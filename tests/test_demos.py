"""Each demo prints the same bytes as when its output was recorded.

The recorded stdout of demos/<name>.py is tests/demo_outputs/<name>.txt.
A change that is meant to alter what a demo prints re-records that file
and says why."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120, check=True
    ).stdout
    assert out == (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
