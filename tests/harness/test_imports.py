"""Each import loads only the module asked for and what it uses."""

import ast
import glob
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


def test_runtime_client_loads_no_simulator_and_no_daemon():
    loaded = _loaded_by("import repro.rt.client")
    assert "repro.rt.client" in loaded
    assert not [name for name in loaded
                if name.startswith(("repro.sim", "repro.rt.server",
                                    "repro.rt.chaosproxy",
                                    "repro.rt.cluster"))]


def test_every_package_init_is_only_a_docstring():
    """Packages are namespaces: a name is imported from the module that
    defines it, never re-exported by a package."""
    inits = glob.glob(os.path.join(SRC, "repro", "**", "__init__.py"),
                      recursive=True)
    assert len(inits) > 10
    for path in inits:
        with open(path) as f:
            tree = ast.parse(f.read())
        assert len(tree.body) == 1 and ast.get_docstring(tree), path


def test_core_imports_only_core_and_the_standard_library():
    """``repro.core`` is sans-IO: its procedures, stores and rules load
    no simulator, runtime or network module, so every driver can run
    them.  Nested (function-level) imports count too."""
    paths = glob.glob(os.path.join(SRC, "repro", "core", "*.py"))
    assert len(paths) > 10
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # ``from .x`` stays in the package; ``from ..x``
                    # leaves it.
                    assert node.level == 1, (path, node.module)
                    continue
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert (module.split(".")[0] in sys.stdlib_module_names
                        or module == "repro.core"
                        or module.startswith("repro.core.")), (path, module)
