"""The benchmark's self-test passes against the program in this checkout.

bench/selftest.py runs each workload's correctness checks on real runs and
shows that every check catches its corruption, so a program change that
breaks a name, record field or check the benchmark depends on fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
