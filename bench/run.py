"""Benchmark of the thetaparity command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload bitmap-2e23 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (see bench/workloads.py): `bitmap-2e23` builds the three 2^23
bitmaps and scans B; `verify-member` runs eight membership statements over
10^4 values of n on the 2^23 bitmap; `verify-arith` runs all eighteen
statements over 5*10^3 values. The seed picks the verify window start
16*(seed mod 4).

With `--trace 0`, every command runs as a user runs it: a fresh
`python3 -m thetaparity` process with default options, timed from spawn to
exit. Commands repeat in a closed loop until `--seconds` of command time
have passed, and at least MIN_PASSES times, so that a slow first pass does
not stand alone. The end-to-end metrics are:

- wall_s: median wall time of one pass over the workload's commands;
- setup_s: median over SETUP_REPS passes of the same commands at a trivial
  size (limit 1, x = step = 1, hi = lo) with the same input files, so
  interpreter start, import, argument parsing, bitmap load and context
  construction;
- peak_rss_mb: the largest ru_maxrss of any measured command process,
  spawned from a small helper (bench/spawner.py) so that it is the
  command's own.

The report lines above the result also give fail_frac, checks_per_s for
`verify` and coefficients per second for each `gen`.

With `--trace 1`, the loop above runs first, without the trivial-size
passes, then the same commands run once more in traced child processes
(bench/tracer.py), each in a fresh interpreter; one traced pass keeps the
run within its time limit at 2^23. Their outputs must equal the untraced
ones. The result holds the per-layer metrics of that pass. A metric of a
layer the workload does not call reads 0. `f2series.kernel.shift_xors`
and `f2series.kernel.bytes` are computed from the call arguments, not
measured; `f2series.mul_sparse.s` and `census.non15_count.s` time the
g * (1/g) = 1 check of the B file, which runs outside the commands.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Output checks run outside the timed spans; a command with an
unexpected exit code or a failed check counts as failed. The exit code is 0
whenever a result is printed, and 2 without one (for instance when the
package sources are not beside this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
SPAWNER = BENCH / "spawner.py"

SETUP_REPS = 5
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 150
LOWER_LAYERS = ("f2series.", "census.", "quadarith.", "theorems.")

# every metric's unit, as BENCHMARK.json lists it
UNITS = {m["name"]: m["unit"]
         for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


@dataclass
class Run:
    """One command execution as measured by the parent."""

    wall_s: float
    maxrss_kb: int
    stdout: bytes
    report: dict = field(default_factory=dict)  # the tracer child's report


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


class Spawner:
    """Runs commands through bench/spawner.py, which says why."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, "-S", str(SPAWNER)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)

    def spawn(self, argv, cwd: Path, stdout_path: Path) -> tuple:
        """Run argv to completion; returns (wall seconds, exit code, maxrss KiB)."""
        request = [argv, str(cwd), self.env, str(stdout_path), COMMAND_TIMEOUT_S]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return tuple(json.loads(reply))


class Runner:
    def __init__(self, spawner: Spawner, tally: Tally):
        self.spawner = spawner
        self.tally = tally

    def run(self, cmd: wl.Command, cwd: Path, traced: bool = False) -> Run:
        """Run one command, fresh process, and check its outputs."""
        cwd.mkdir(parents=True, exist_ok=True)
        stdout_path = cwd / f".{cmd.label}.stdout"
        report_path = cwd / f".{cmd.label}.report.json"
        if traced:
            argv = [sys.executable, str(TRACER), "--out", str(report_path),
                    "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "thetaparity", *cmd.args]
        wall, rc, maxrss = self.spawner.spawn(argv, cwd, stdout_path)
        run = Run(wall, maxrss, stdout_path.read_bytes())
        if traced and report_path.exists():
            run.report = json.loads(report_path.read_text())
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not problems:
            try:
                problems = cmd.check(cwd, run.stdout)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"check failed: {exc!r}"]
        self.tally.record(cmd.label, problems)
        return run

    def check_bitmap(self, path: Path) -> dict:
        """g * (1/g) = 1 and non15_count on a 1/g bitmap, in a traced child."""
        report_path = path.parent / ".bitmap-check.json"
        argv = [sys.executable, str(TRACER), "--out", str(report_path),
                "--check-bitmap", str(path)]
        _, rc, _ = self.spawner.spawn(argv, path.parent, path.parent / ".bitmap-check.stdout")
        report = json.loads(report_path.read_text()) if rc == 0 else {}
        check = report.get("check", {})
        problems = []
        if not check.get("identity"):
            problems.append("g * (1/g) != 1")
        if tuple(check.get("non15_count", ())) != wl.NON15_COUNT:
            problems.append(f"non15_count {check.get('non15_count')}, "
                            f"expected {wl.NON15_COUNT}")
        self.tally.record("bitmap-check", problems)
        return report


def passes(runner: Runner, commands, cwd: Path, seconds: float) -> list:
    """Closed loop over the commands until `seconds` of command time and MIN_PASSES."""
    done = []
    elapsed = 0.0
    while len(done) < MIN_PASSES or elapsed < seconds:
        runs = [runner.run(cmd, cwd) for cmd in commands]
        done.append(runs)
        elapsed += sum(r.wall_s for r in runs)
    return done


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(loop: list, setup: list, commands) -> tuple:
    """Contract metrics, plus the report-only ones, from the untraced passes."""
    walls = [sum(r.wall_s for r in runs) for runs in loop]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median([sum(r.wall_s for r in runs) for runs in setup]),
        "peak_rss_mb": max(r.maxrss_kb for runs in loop for r in runs) / 1024,
    }
    extra = {}
    for i, cmd in enumerate(commands):
        if cmd.label.startswith("gen."):
            extra[f"{cmd.label}.coeffs_per_s"] = median(
                [cmd.items / runs[i].wall_s for runs in loop])
        elif cmd.label == "verify":
            extra["checks_per_s"] = median([cmd.items / runs[i].wall_s for runs in loop])
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(walls),
               "wall_s_passes": [round(w, 4) for w in walls]}
    return metrics, extra, samples


# --- per-layer metrics from a traced pass -------------------------------------

def layer_metrics(runs: list, check: dict, untraced_wall: float, commands) -> dict:
    """Per-layer metrics of one traced pass over the workload's commands."""
    spans: dict = {}
    counts: dict = {}
    hits = misses = 0
    cli_s: dict = {}
    startups = []
    traced_wall = 0.0
    for cmd, run in zip(commands, runs):
        rep = run.report
        for name, row in rep.get("layers", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in rep.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        cache = rep.get("factorize_cache", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        command = cmd.args[0]
        cli_s[command] = cli_s.get(command, 0.0) + rep.get("run_s", 0.0)
        wall = run.wall_s - rep.get("post_s", 0.0)
        startups.append(wall - rep.get("run_s", 0.0))
        traced_wall += wall
    check_spans = check.get("layers", {})

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(name, source=spans):
        return source.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_s = (self_s("f2series.invert_newton") + self_s("f2series.inverse_seventh_power")
                + self_s("f2series.mul_sparse"))
    m = {
        "f2series.invert_newton.calls": calls("f2series.invert_newton"),
        "f2series.invert_newton.s": incl("f2series.invert_newton"),
        "f2series.inverse_seventh_power.self_s": self_s("f2series.inverse_seventh_power"),
        "f2series.kernel.shift_xors": counts.get("f2series.kernel.shift_xors", 0),
        "f2series.kernel.bytes": counts.get("f2series.kernel.bytes", 0),
        "f2series.kernel.gbps": ratio(counts.get("f2series.kernel.bytes", 0), kernel_s) / 1e9,
        "f2series.coefficient.calls": calls("f2series.BitSeries.coefficient"),
        "f2series.coefficient.s": incl("f2series.BitSeries.coefficient"),
        "f2series.coefficient.us_per_call": 1e6 * ratio(
            incl("f2series.BitSeries.coefficient"), calls("f2series.BitSeries.coefficient")),
        "f2series.read_f2s.s": incl("f2series.read_f2s"),
        "f2series.write_f2s.s": incl("f2series.write_f2s"),
        "f2series.mul_sparse.s": incl("f2series.mul_sparse", check_spans),
        "quadarith.class_number.calls": calls("quadarith.class_number"),
        "quadarith.class_number.s": incl("quadarith.class_number"),
        "quadarith.class_number.us_per_call": 1e6 * ratio(
            incl("quadarith.class_number"), calls("quadarith.class_number")),
        "quadarith.count_signed_representations.calls":
            calls("quadarith.count_signed_representations"),
        "quadarith.count_signed_representations.s":
            incl("quadarith.count_signed_representations"),
        "quadarith.factorize.calls": calls("quadarith.factorize"),
        "quadarith.factorize.s": incl("quadarith.factorize"),
        "quadarith.factorize.hit_ratio": ratio(hits, hits + misses),
        "quadarith.ideal_count.calls": calls("quadarith.ideal_count"),
        "quadarith.ideal_count.s": incl("quadarith.ideal_count"),
        "quadarith.square_tuple_count_table.calls": calls("quadarith.square_tuple_count_table"),
        "quadarith.square_tuple_count_table.s": incl("quadarith.square_tuple_count_table"),
        "quadarith.square_tuple_count_table.entries":
            counts.get("quadarith.square_tuple_count_table.entries", 0),
        "quadarith.count_square_tuples.calls": calls("quadarith.count_square_tuples"),
        "theorems.warm_tuple_counts.s": incl("theorems.SeriesContext.warm_tuple_counts"),
        "theorems.run_suite.s": incl("theorems.run_suite"),
        "theorems.self_s": sum(row["self_s"] for name, row in spans.items()
                               if name.startswith("theorems.")),
    }
    for sid in wl.ALL_STATEMENTS:
        name = f"theorems.stmt.{sid}"
        m[f"{name}.n_per_s"] = ratio(counts.get(f"{name}.n", 0), incl(name))
    m.update({
        "census.interval_counts.s": incl("census.interval_counts"),
        "census.alpha_sweep.s": incl("census.alpha_sweep"),
        "census.non15_count.s": incl("census.non15_count", check_spans),
    })
    for command in ("gen", "verify", "census", "alpha"):
        m[f"cli.{command}.s"] = cli_s.get(command, 0.0)
    m["cli.startup_s"] = median(startups)
    for cmd, run in zip(commands, runs):
        if cmd.label.startswith("gen."):
            m[f"{cmd.label}.coeffs_per_s"] = ratio(cmd.items, run.report.get("run_s", 0.0))
    for series in ("inv-theta", "inv-pentagonal", "inv-theta7"):
        m.setdefault(f"gen.{series}.coeffs_per_s", 0.0)
    verify_items = sum(cmd.items for cmd in commands if cmd.label == "verify")
    m["checks_per_s"] = ratio(verify_items, cli_s.get("verify", 0.0))
    covered = sum(row["self_s"] for name, row in spans.items()
                  if name.startswith(LOWER_LAYERS))
    m["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1
    m["trace.coverage"] = ratio(covered, traced_wall)
    return m


# --- machine record ------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "thetaparity").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "commit": commit(),
        "src_sha256_16": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": model,
        **caches,
    }


# --- one workload ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, spawner: Spawner,
                 work: Path) -> dict:
    inputs, untraced, traced, trivial = (work / d for d in
                                         ("inputs", "untraced", "traced", "trivial"))
    load = wl.WORKLOADS[name](seed, inputs, untraced)
    tally = Tally()
    runner = Runner(spawner, tally)
    for cmd in load.inputs:
        runner.run(cmd, inputs)
    loop = passes(runner, load.commands, untraced, seconds)
    setup = [] if trace else [[runner.run(cmd, trivial) for cmd in load.trivial]
                              for _ in range(SETUP_REPS)]
    metrics, extra, samples = end_to_end(loop, setup, load.commands)
    untraced_wall = metrics["wall_s"]
    if trace:
        runs = [runner.run(cmd, traced, traced=True) for cmd in load.commands]
        for cmd, run, plain in zip(load.commands, runs, loop[-1]):
            same = run.stdout == plain.stdout and all(
                (traced / f).read_bytes() == (untraced / f).read_bytes()
                for f in cmd.outputs)
            tally.record(f"traced {cmd.label}",
                         [] if same else ["output differs from the untraced run"])
        check = runner.check_bitmap(traced / load.bitmap_check) if load.bitmap_check else {}
        metrics = layer_metrics(runs, check, untraced_wall, load.commands)
        samples = {"per_layer": 1, "untraced_wall_s": len(loop)}
    return {
        "metrics": metrics,
        "extra": extra,
        "samples": samples,
        "tally": tally,
        "window_lo": wl.window_start(seed) if name != "bitmap-2e23" else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thetaparity benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetaparity" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}/thetaparity", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", "import thetaparity; print(thetaparity.__file__)"],
                           env=env, capture_output=True, text=True)
    if probe.returncode != 0 or Path(probe.stdout.strip()).parent != SRC / "thetaparity":
        print(f"error: thetaparity does not import from {SRC}: {probe.stderr.strip()}",
              file=sys.stderr)
        return 2

    record = machine_record()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        try:
            with Spawner(env) as spawner:
                res = run_workload(name, args.seed, args.seconds, bool(args.trace), spawner,
                                   work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        tally = res["tally"]
        for problem in tally.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"# {name} seed={args.seed} window_lo={res['window_lo']} "
              f"seconds={args.seconds} trace={args.trace}")
        print("# machine " + json.dumps(record))
        print("# samples " + json.dumps(res["samples"]))
        report = {k: (v, UNITS[k]) for k, v in res["metrics"].items()}
        if not args.trace:
            report.update((k, (v, UNITS[k])) for k, v in res["extra"].items())
            report["fail_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
        for key, (value, u) in report.items():
            print(f"{key:48s} {value:16.6g} {u}")
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
