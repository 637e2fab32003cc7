"""The public API surface: everything README documents must import."""

import importlib

import pytest


PUBLIC_MODULES = [
    "repro",
    "repro.simcore",
    "repro.cluster",
    "repro.workloads",
    "repro.service",
    "repro.interference",
    "repro.monitoring",
    "repro.model",
    "repro.scheduler",
    "repro.baselines",
    "repro.sim",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name) is not None, f"{module}.{name}"


def test_top_level_lazy_exports():
    import repro

    assert callable(repro.build_nutch_service)
    assert callable(repro.standard_policies)
    assert repro.PCSScheduler.__name__ == "PCSScheduler"
    assert repro.ExperimentRunner is not None
    assert repro.RunnerConfig is not None
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_snippet_runs():
    """The exact snippet from README must work (tiny scale)."""
    from repro.experiments.fig6 import run_quick_comparison

    result = run_quick_comparison(arrival_rate=60.0, seed=2, n_intervals=4)
    out = result.render()
    assert "Basic" in out and "PCS" in out


def test_every_module_imports_without_scipy():
    """The package declares numpy as its only numeric dependency: every
    module must import with scipy unavailable."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages("
        "repro.__path__, 'repro.') if not m.name.endswith('__main__')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 50
