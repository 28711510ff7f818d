"""The harness package loads only the submodule asked for."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _loaded_by(statement: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
        capture_output=True, text=True).stdout
    return {name for name in out.split() if name.startswith("repro")}


def test_crash_sweep_loads_no_simulated_experiment_or_model():
    loaded = _loaded_by("import repro.harness.crashsweep")
    assert "repro.rt.filestore" in loaded
    assert not [name for name in loaded
                if name == "repro.harness.experiments"
                or name.startswith(("repro.analysis", "repro.storage"))]


def test_simulated_target_load_loads_no_runtime():
    """``sim_target_load``'s cold start."""
    loaded = _loaded_by(
        "from repro.harness.experiments import run_target_load")
    assert "repro.sim.kernel" in loaded
    assert not [name for name in loaded if name.startswith("repro.rt")]
