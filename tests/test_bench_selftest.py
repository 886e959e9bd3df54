"""The benchmark's own self-test, run as part of the suite.

bench/ drives gtopo through library names (the CLI handlers, and the calls
its tracer wraps by module attribute), so a change that renames or drops one
of them fails here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_reports_ok():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
