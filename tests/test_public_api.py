"""The public API surface and the import set.

Every public package imports and resolves its ``__all__``; every module
imports with numpy as the only third-party dependency; the packages
export their names lazily; and a quick Basic-vs-PCS comparison, a Fig. 7
decision and a routing-only sweep point each load only the modules they
run.
"""

import ast
import importlib
import inspect

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


#: Subpackages whose ``__init__`` maps each public name to a submodule.
LAZY_PACKAGES = [
    "repro.baselines",
    "repro.cluster",
    "repro.controlplane",
    "repro.interference",
    "repro.model",
    "repro.monitoring",
    "repro.scheduler",
    "repro.service",
    "repro.sim",
    "repro.simcore",
    "repro.workloads",
]

#: What a Fig. 7 decision never needs: the simulator, the sweep, the
#: routing kernels, the scenario builders, the control loop and the
#: batch-job churn.
NOT_FOR_FIG7 = (
    "repro.sim.runner",
    "repro.sim.queue_sim",
    "repro.sim.sweep",
    "repro.sim.aggregate",
    "repro.baselines.routing",
    "repro.scenarios.builtin",
    "repro.controlplane.loop",
    "repro.workloads.generator",
    "multiprocessing",
)


def _loaded(script, modules):
    """Run ``script`` fresh and return which of ``modules`` it loaded."""
    proc = _run_python(
        "import sys\n"
        + script
        + f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_fig7_decisions_import_no_simulator():
    """Building Fig. 7 instances and scheduling them, flat and
    hierarchically, with the oracle loads none of the simulation
    layers."""
    script = (
        "import numpy as np\n"
        "import repro.cli\n"
        "from repro.experiments import fig7\n"
        "from repro.scheduler.hierarchical import HierarchicalScheduler\n"
        "from repro.scheduler.pcs import PCSScheduler, SchedulerConfig\n"
        "from repro.scheduler.threshold import StaticThreshold\n"
        "config = SchedulerConfig(threshold=StaticThreshold(1e-3))\n"
        "for m, k in ((80, 16), (160, 16)):\n"
        "    rng = np.random.default_rng(m)\n"
        "    PCSScheduler(fig7._oracle(), config).schedule(\n"
        "        fig7.make_instance(m, k, rng))\n"
        "    HierarchicalScheduler(fig7._oracle(), config, group_size=40)"
        ".schedule(fig7.make_instance(m, k, rng))\n"
    )
    assert _loaded(script, NOT_FOR_FIG7) == []


def test_tiny_fig7_run_imports_no_simulator():
    """``run_fig7`` reduces its repeats through the aggregate layer,
    which loads without the runner it can also reduce."""
    script = (
        "from repro.experiments.fig7 import Fig7Config, run_fig7\n"
        "run_fig7(Fig7Config(sizes=((40, 8),), repeats=1,"
        " hierarchical_sizes=()))\n"
    )
    loaded = _loaded(script, NOT_FOR_FIG7)
    assert loaded == ["repro.sim.aggregate"]


def test_routing_sweep_point_imports_no_decide_stack():
    """A Basic + RED-3 sweep never decides, so it loads neither the
    performance matrix, Eq. 1's fitting nor a scheduler."""
    decide_stack = (
        "repro.model.matrix",
        "repro.model.training",
        "repro.model.combined",
        "repro.model.regression",
        "repro.scheduler.pcs",
        "repro.scheduler.hierarchical",
        "repro.scheduler.threshold",
    )
    script = (
        "import repro.cli\n"
        "from repro.baselines.policies import BasicPolicy, REDPolicy\n"
        "from repro.scenarios import get_scenario\n"
        "from repro.service.nutch import NutchConfig\n"
        "from repro.sim.sweep import ParallelSweepRunner, SweepSpec\n"
        "base = get_scenario('nutch-search').runner_config(\n"
        "    n_nodes=6, interval_s=5.0, n_intervals=2, warmup_intervals=0,\n"
        "    nutch=NutchConfig(n_search_groups=2, replicas_per_group=2))\n"
        "spec = SweepSpec(base=base,"
        " policies=(BasicPolicy(), REDPolicy(replicas=3)),"
        " arrival_rates=(20.0,))\n"
        "result = ParallelSweepRunner(spec, workers=1).run()\n"
        "assert len(result.results) == 2\n"
    )
    assert _loaded(script, decide_stack) == []


def _export_table(package):
    """The name -> submodule table written in ``package``'s ``__init__``."""
    tree = ast.parse(inspect.getsource(package))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} has no export table")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_each_name_is_the_object_its_submodule_defines(self, name):
        package = importlib.import_module(name)
        table = _export_table(package)
        assert list(table) == package.__all__
        for export, submodule in table.items():
            module = importlib.import_module(f"{name}.{submodule}")
            value = getattr(package, export)
            assert value is getattr(module, export), export
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, export

    def test_each_name_is_listed_by_dir(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_each_name(self, name):
        package = importlib.import_module(name)
        namespace = {}
        exec(f"from {name} import *", namespace)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), export

    def test_unknown_name_raises_attribute_error_naming_the_package(
        self, name
    ):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_export
