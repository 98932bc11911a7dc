"""Each demo script runs to completion from a checkout; the generation,
dispatch, unit-health and full-comparison demos print exactly what they
printed when pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the demo's stdout.
STDOUT_SHA256 = {
    "01_generation_models.py": "9f07943cd1f1d46bd36603c53abd994eedba3e357eec1e35a262fcf7308ed5fe",
    "03_priority_dispatch.py": "d8ec1167d0aebf7276b6d9553843e8acfbfd69e43b106533cbcfdc6a7218385c",
    "04_unit_health.py": "0ddc1117412a3c0cfb8c8ac84457a0ac250cc8a368b991b2339e0aca751618aa",
    "05_full_comparison.py": "6152e3320af80fbee5ed8b8de656cf9f102311f08c56b456173b7850d0831699",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
