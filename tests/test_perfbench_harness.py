"""The benchmark harness's own tests, run as part of this suite.

The harness wraps functions of ``src/`` by name to trace them, so a
change to those functions can break it without failing any test here;
running its tests from the repository root catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_harness_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
