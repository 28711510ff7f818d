"""Every script under ``examples/`` runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
EXAMPLES = sorted(glob.glob(
    os.path.join(os.path.dirname(SRC), "examples", "*.py")))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script):
    done = subprocess.run(
        [sys.executable, script], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
