"""Each demo runs as a user would run it and prints exactly its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "fixtures" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
