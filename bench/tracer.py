"""Span tracer for the thetaparity layers, and the child process that uses it.

The layers are the five modules `f2series`, `census`, `quadarith`,
`theorems` and `cli`. `install` wraps every public function of each module
(the names in its `__all__`) and every public method of its public classes,
from outside the package: nothing under `src/` changes. A wrapped call
records one span: name, thread, parent span, start and end. The span stack is
thread-local, because `run_suite` scans on a thread pool.

Wrappers are installed in the defining module and then rebound wherever the
same function object is bound at module level in the package, including the
package namespace (`thetaparity.run_suite` is a re-export) and module-level
dicts (`cli._BUILDERS` holds `census.build_B` and
`f2series.inverse_seventh_power` by reference).

One private function is wrapped as well: `theorems._scan`, the per-statement
range scan, so the suite time splits by statement (`theorems.stmt.<SID>`).

Self time is assigned by a sweep over all span boundaries. At each instant
the wall-clock interval is shared equally among the open spans that have no
open child. A worker thread's root span counts as a child of the deepest
main-thread span enclosing it, so a thread waiting on the pool is not
charged while its workers run. The shares add up to the wall time covered
by spans, also when two threads overlap.

Run as a script, this file is the child process of a traced command:

    python3 bench/tracer.py --out REPORT.json -- gen inv-theta 2^20 --out b.f2s
    python3 bench/tracer.py --out REPORT.json --check-bitmap b.f2s

The first form runs `thetaparity.cli.main(argv)` in-process; the second
checks that a 1/g bitmap satisfies g * (1/g) = 1 and reports its
`non15_count` at 2^20 and 2^23. The CLI writes to stdout as usual; the
report goes to REPORT.json.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time

# span record fields: spans are flat tuples of atoms, appended when the call
# returns, so the cyclic garbage collector soon stops scanning them
_ID, _NAME, _TID, _PARENT, _START, _END = range(6)


class Tracer:
    """Records spans around wrapped calls, and counts computed from them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, count=None):
        """Wrapped fn records a span; count(name, args, kwargs, result) adds counts."""
        spans = self.spans
        local = self._local
        next_id = self._ids.__next__
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next_id()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, get_ident(), parent, start, end))
            if count is not None:
                self.add_counts(count(name, args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def add_counts(self, items):
        with self._lock:
            for key, value in items:
                self.counts[key] = self.counts.get(key, 0) + value


def _adopt_parents(spans, main_tid) -> dict:
    """Parent id of each span id: its own, or for worker roots the enclosing main span."""
    main = [s for s in spans if s[_TID] == main_tid]
    parents = {}
    for s in spans:
        parent = s[_PARENT]
        if parent < 0 and s[_TID] != main_tid:
            enclosing = [m for m in main
                         if m[_START] <= s[_START] and s[_END] <= m[_END]]
            if enclosing:
                parent = max(enclosing, key=lambda m: m[_START])[_ID]
        parents[s[_ID]] = parent
    return parents


def aggregate(spans, main_tid) -> dict:
    """Sweep attribution of wall time to spans, summed per span name.

    Returns {name: {"calls", "self_s", "incl_s"}}. incl_s is the span's own
    share plus that of its descendants; a span nested in one of the same
    name is not counted twice.
    """
    parents = _adopt_parents(spans, main_tid)
    by_start = sorted(spans, key=lambda s: s[_START])
    depth = {-1: -1}
    for s in by_start:
        depth[s[_ID]] = depth[parents[s[_ID]]] + 1
    # at equal times, ends go first (deepest first), then starts (outermost
    # first); a span of zero duration takes no share and opens nothing
    events = []
    for s in spans:
        if s[_END] > s[_START]:
            d = depth[s[_ID]]
            events.append((s[_START], 1, d, s[_ID]))
            events.append((s[_END], 0, -d, s[_ID]))
    events.sort()
    open_children = {}
    self_s = dict.fromkeys(parents, 0.0)
    leaves: dict[int, bool] = {}
    prev = events[0][0] if events else 0.0
    for t, kind, _, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        prev = t
        pid = parents[sid]
        if kind == 1:
            open_children[sid] = 0
            leaves[sid] = True
            if pid >= 0:
                if open_children[pid] == 0:
                    leaves.pop(pid, None)
                open_children[pid] += 1
        else:
            leaves.pop(sid, None)
            if pid >= 0:
                open_children[pid] -= 1
                if open_children[pid] == 0:
                    leaves[pid] = True

    # inclusive share: children start no earlier than their parents, so
    # walking by descending start visits every child before its parent
    incl = dict(self_s)
    for s in reversed(by_start):
        pid = parents[s[_ID]]
        if pid >= 0:
            incl[pid] += incl[s[_ID]]
    names = {s[_ID]: s[_NAME] for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        sid, name = s[_ID], s[_NAME]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s[sid]
        ancestor = parents[sid]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            row["incl_s"] += incl[sid]
    return out


# --- computed kernel counts ------------------------------------------------
#
# Shift-XOR counts and bytes are computed from the arguments, not measured:
# each exponent below the truncation point is one shifted copy XORed into an
# accumulator of prec/8 bytes.

def _below(exponents, limit):
    return bisect.bisect_left(exponents, limit)


def _count_newton(name, args, kwargs, result):
    e, limit = args[0], args[1]
    xors = nbytes = 0
    prec = 1
    while prec < limit:
        prec = min(2 * prec, limit)
        k = _below(e.exponents, prec)
        xors += k
        nbytes += k * ((prec + 7) // 8)
    return [("f2series.kernel.shift_xors", xors), ("f2series.kernel.bytes", nbytes)]


def _count_mul_sparse(name, args, kwargs, result):
    e, limit = args[1], args[2]
    k = _below(e.exponents, limit)
    return [("f2series.kernel.shift_xors", k),
            ("f2series.kernel.bytes", k * ((limit + 7) // 8))]


def _count_seventh(name, args, kwargs, result):
    # the final multiply by g; the inner inversion is counted by its own span
    limit = args[0]
    k = math.isqrt(limit - 1) + 1
    return [("f2series.kernel.shift_xors", k),
            ("f2series.kernel.bytes", k * ((limit + 7) // 8))]


def _count_table(name, args, kwargs, result):
    return [("quadarith.square_tuple_count_table.entries", args[1] + 1)]


def _count_scan(name, args, kwargs, result):
    holds, vacuous, violated = result[0], result[1], result[2]
    return [(name + ".n", holds + vacuous + violated)]


_COUNTERS = {
    "f2series.invert_newton": _count_newton,
    "f2series.mul_sparse": _count_mul_sparse,
    "f2series.inverse_seventh_power": _count_seventh,
    "quadarith.square_tuple_count_table": _count_table,
}


def _scan_wrapper(tracer, scan):
    wrapped = {}

    @functools.wraps(scan)
    def traced_scan(sid, *args, **kwargs):
        fn = wrapped.get(sid)
        if fn is None:
            fn = wrapped[sid] = tracer.wrap(f"theorems.stmt.{sid.name}", scan,
                                            _count_scan)
        return fn(sid, *args, **kwargs)

    return traced_scan


def install(tracer: Tracer):
    """Wrap the layers' public functions and methods; returns the originals."""
    import thetaparity
    from thetaparity import census, cli, f2series, quadarith, theorems

    modules = {"f2series": f2series, "census": census, "quadarith": quadarith,
               "theorems": theorems, "cli": cli}
    namespaces = [thetaparity, *modules.values()]
    originals = {}

    def rebind(old, new):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is old:
                    setattr(ns, key, new)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is old:
                            value[k] = new

    for layer, module in modules.items():
        for public in module.__all__:
            obj = getattr(module, public)
            if inspect.isclass(obj):
                if obj.__module__ != module.__name__:
                    continue
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    name = f"{layer}.{obj.__name__}.{attr}"
                    setattr(obj, attr, tracer.wrap(name, member, _COUNTERS.get(name)))
            elif callable(obj) and not hasattr(obj, "__wrapped_by_tracer__"):
                name = f"{layer}.{public}"
                originals[name] = obj
                rebind(obj, tracer.wrap(name, obj, _COUNTERS.get(name)))
    rebind(theorems._scan, _scan_wrapper(tracer, theorems._scan))
    return originals


def _check_bitmap(path) -> dict:
    from thetaparity import census, f2series

    b = f2series.read_f2s(path)
    product = f2series.mul_sparse(b, f2series.squares(b.length), b.length)
    return {
        "identity": product == f2series.BitSeries(b.length, 1),
        "non15_count": [census.non15_count(b, 1 << 20), census.non15_count(b, 1 << 23)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="write the JSON report here")
    parser.add_argument("--check-bitmap", help="check a 1/g bitmap instead of running the CLI")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import thetaparity  # noqa: F401  (import cost belongs to start-up)
    from thetaparity import cli

    tracer = Tracer()
    factorize = install(tracer)["quadarith.factorize"]
    cache_before = factorize.cache_info()

    report: dict = {}
    t0 = time.perf_counter()
    if args.check_bitmap:
        report["check"] = _check_bitmap(args.check_bitmap)
        rc = 0
    else:
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    t1 = time.perf_counter()
    sys.stdout.flush()
    report["run_s"] = t1 - t0
    cache_after = factorize.cache_info()
    report["layers"] = aggregate(tracer.spans, threading.main_thread().ident)
    report["counts"] = dict(tracer.counts)
    report["factorize_cache"] = {"hits": cache_after.hits - cache_before.hits,
                                 "misses": cache_after.misses - cache_before.misses}
    report["post_s"] = time.perf_counter() - t1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter teardown: freeing the recorded spans is not the
    # program's cost, and the parent times this process to its exit
    os._exit(code)
