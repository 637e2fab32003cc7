"""The public API surface and the import set.

Every public package imports and resolves its ``__all__``; every module
imports with numpy as the only third-party dependency; and a quick
Basic-vs-PCS comparison loads only the modules it runs.
"""

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
    """The quickstart driver call must work (tiny scale)."""
    from repro.experiments.fig6 import run_quick_comparison

    result = run_quick_comparison(arrival_rate=60.0, seed=2, n_intervals=4)
    out = result.render()
    assert "Basic" in out and "PCS" in out


def _run_python(script):
    """Run ``script`` in a fresh interpreter with this checkout's ``src``."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_every_module_imports_without_scipy_or_networkx():
    """The package declares numpy as its only dependency: every module
    must import with scipy and networkx unavailable."""
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages("
        "repro.__path__, 'repro.') if not m.name.endswith('__main__')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 50


def test_quick_comparison_imports_only_what_it_runs():
    """A batch Basic-vs-PCS run loads neither networkx nor asyncio (only
    the live service awaits), nor the Fig. 5 and Fig. 7 drivers."""
    script = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.experiments import fig6\n"
        "fig6.run_quick_comparison(arrival_rate=60.0, seed=2, n_intervals=4)\n"
        "print(' '.join(sorted(m for m in ('networkx', 'asyncio', "
        "'repro.experiments.fig5', 'repro.experiments.fig7') "
        "if m in sys.modules)))\n"
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
