"""Every script under ``examples/`` runs to completion and prints."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples"))
    if name.endswith(".py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    if script == "model_training.py":
        pytest.importorskip("numpy")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
