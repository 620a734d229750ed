"""Self-test of the benchmark's tracer: python3 bench/selftest.py

Checks, in about ten seconds:
- the sweep attribution on hand-made spans, with worker threads;
- that `install` wraps re-exports and the CLI's table of series constructors;
- that traced and untraced runs of small CLI commands print and write
  byte-identical outputs, and that the traced report covers the command;
- that a command's peak RSS, as the spawner reports it, is its own and not
  the benchmark process's.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SCRATCH = BENCH.parent / ".bench_work"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_sweep() -> None:
    # main span A on [0, 10]; worker roots W1 [1, 5] and W2 [2, 6] in two
    # other threads; C [2, 3] inside W1. While workers run, A is not charged.
    spans = [(0, "A", 1, -1, 0.0, 10.0), (1, "W1", 2, -1, 1.0, 5.0),
             (2, "C", 2, 1, 2.0, 3.0), (3, "W2", 3, -1, 2.0, 6.0)]
    got = tracer.aggregate(spans, main_tid=1)
    expect({k: round(v["self_s"], 9) for k, v in got.items()}
           == {"A": 5.0, "W1": 2.0, "C": 0.5, "W2": 2.5},
           "sweep shares wall time among leaves across threads")
    expect(round(got["A"]["incl_s"], 9) == 10.0 and round(got["W1"]["incl_s"], 9) == 2.5,
           "inclusive time adds adopted worker spans to their parent")


def test_install() -> None:
    import thetaparity
    from thetaparity import cli, theorems

    originals = (thetaparity.run_suite, cli._BUILDERS["inv-theta7"])
    t = tracer.Tracer()
    tracer.install(t)
    expect(thetaparity.run_suite is theorems.run_suite
           and hasattr(theorems.run_suite, "__wrapped_by_tracer__"),
           "package re-export and defining module share one wrapper")
    expect(hasattr(cli._BUILDERS["inv-theta7"], "__wrapped_by_tracer__"),
           "CLI series table calls the wrapped constructor")
    expect(thetaparity.run_suite is not originals[0]
           and cli._BUILDERS["inv-theta7"] is not originals[1], "originals replaced")


COMMANDS = [
    ["gen", "inv-theta", "4097", "--out", "b.f2s"],
    ["gen", "inv-pentagonal", "4096", "--out", "bs.f2s"],
    ["gen", "inv-theta7", "4097", "--out", "b7.f2s"],
    ["census", "--bitmap", "b.f2s", "--x", "2^6", "--intervals", "4"],
    ["alpha", "--bitmap", "b.f2s", "--max-x", "2^8", "--step", "2^4"],
    ["verify", "all", "0", "2000", "--inv-theta", "b.f2s", "--inv-theta7", "b7.f2s"],
    ["verify", "T1_1,T1_2,T1_4,T3_6,T3_8,L3_1,L3_3,L3_5", "16", "4000",
     "--inv-theta", "b.f2s", "--inv-theta7", "b7.f2s"],
]


def test_outputs_unchanged() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        plain, traced = Path(tmp, "plain"), Path(tmp, "traced")
        plain.mkdir()
        traced.mkdir()
        for args in COMMANDS:
            a = subprocess.run([sys.executable, "-m", "thetaparity", *args], cwd=plain,
                               env=env, capture_output=True)
            b = subprocess.run([sys.executable, str(BENCH / "tracer.py"), "--out",
                                "report.json", "--", *args], cwd=traced,
                               env=env, capture_output=True)
            files = [args[-1]] if args[0] == "gen" else []
            same = (a.returncode == b.returncode == 0 and a.stdout == b.stdout
                    and all((plain / f).read_bytes() == (traced / f).read_bytes()
                            for f in files))
            expect(same, f"same output traced and untraced: {' '.join(args[:2])}")
            report = json.loads((traced / "report.json").read_text())
            covered = sum(r["self_s"] for r in report["layers"].values())
            expect(abs(covered - report["run_s"]) < 0.01 * report["run_s"] + 1e-3,
                   f"spans account for the command's time: {' '.join(args[:2])}")


def test_spawner_rss() -> None:
    import run

    ballast = bytearray(100 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp, \
            run.Spawner(dict(os.environ)) as spawner:
        _, rc, maxrss_kib = spawner.spawn([sys.executable, "-c", "pass"], Path(tmp),
                                          Path(tmp, "out"))
    expect(rc == 0 and maxrss_kib < 60 << 10,
           f"child peak RSS {maxrss_kib >> 10} MiB excludes the parent's 100 MiB")


if __name__ == "__main__":
    test_sweep()
    test_spawner_rss()
    test_install()
    test_outputs_unchanged()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
