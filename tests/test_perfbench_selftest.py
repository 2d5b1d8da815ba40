"""The benchmark's self-test: its checks reject corrupted results and its
tracer still binds to the package's functions."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
