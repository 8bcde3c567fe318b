"""Smoke test of the benchmark harness, so it cannot rot between benchmark runs.

``bench/selftest.py`` checks the benchmark's reference simulator against
hand-derived answers and shows that every output check can fail; it takes
well under a second and writes no files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
