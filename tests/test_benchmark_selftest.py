"""The benchmark's self-test (``ctrbench/selftest.py``) passes.

It runs one small round of every workload through the package's public
calls and the benchmark's correctness checks, so a changed signature or
output the benchmark relies on fails here, not first in a benchmark run.
The self-test is run as it stands, from the repository root."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "ctrbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
