"""Every demo script and the README quick start run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # The first python code block of the README.
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", snippet)
    assert proc.returncode == 0, proc.stderr
