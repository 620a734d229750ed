"""Smoke test: each demo script runs to exit 0 at a small size.

The demos are not imported by the package, so a stale option or a renamed
function there would otherwise go unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("theorem_suite.py", ["--hi", "200"]),
    ("build_and_census.py", ["--log2-limit", "12", "--log2-x", "4",
                             "--intervals", "4"]),
    ("alpha_sweep.py", ["--log2-max-x", "8", "--log2-step", "2"]),
    ("arithmetic_oracles.py", []),
])
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
