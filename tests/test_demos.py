"""Every demo script, and the example in README.md, runs to completion
against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_example() -> str:
    """The one ```python block of README.md."""
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```", 1)[0]


SCRIPTS = [pytest.param([str(path)], id=path.name) for path in DEMOS] + [
    pytest.param(["-c", readme_example()], id="README.md")
]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("args", SCRIPTS)
def test_demo_runs(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
