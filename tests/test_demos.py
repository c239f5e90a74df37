"""Each demo runs as a user would run it and prints exactly its pinned output;
warnings are errors, as in the rest of the suite."""

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
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()


def test_readme_library_example():
    """The python block under "Library example" in README.md prints, line by
    line, the results that its comments give."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = "".join(line.split("# ", 1)[1] + "\n" for line in block.splitlines() if "# " in line)
    assert expected == "y>x\n{'x>y': 5, 'y>x': 4}\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block], capture_output=True, text=True, env=env, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected
