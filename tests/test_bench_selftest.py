"""The benchmark's self-test, run as a tier-1 test.

bench/tracer.py rebinds package internals (the CLI's series constructors,
the statement scan and the package re-exports); its self-test checks that
those still exist and that traced and untraced commands agree.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failed"
