"""repro — a full reproduction of *PCS: Predictive Component-level
Scheduling for Reducing Tail Latency in Cloud Online Services*
(Han et al., ICPP 2015).

Layering (bottom-up):

- :mod:`repro.simcore` — discrete-event engine, distributions, queues.
- :mod:`repro.cluster` — nodes, machines, shared resources.
- :mod:`repro.workloads` — batch-job profiles, churn, traces.
- :mod:`repro.service` — multi-stage online-service model (Nutch-like).
- :mod:`repro.scenarios` — named workload scenarios (service builder +
  workload profile + runner defaults); the paper's ``nutch-search``
  plus a deep pipeline and a heavy-tailed fan-out feed, all runnable
  end to end via ``RunnerConfig.scenario`` / ``--scenario``.
- :mod:`repro.interference` — ground-truth service-time inflation.
- :mod:`repro.monitoring` — online contention/arrival-rate monitors.
- :mod:`repro.model` — the performance predictor (paper Eqs. 1–5).
- :mod:`repro.scheduler` — PCS (paper Algorithms 1–2) and extensions.
- :mod:`repro.baselines` — Basic, RED-k, RI-p comparison policies.
- :mod:`repro.sim` — full-system simulation harness, including the
  shared latency-metric kernel (:mod:`repro.sim.metrics`, nearest-rank
  percentiles) and the parallel sweep-execution subsystem
  (:mod:`repro.sim.sweep`: policies × rates × seeds grids over
  multiprocessing workers with an on-disk resume cache).
- :mod:`repro.experiments` — drivers for the paper's Figures 5–7; all
  three route their independent grid points through the execution
  backends of :mod:`repro.sim.backends`, so ``workers=N`` parallelises
  any figure without changing a single reported number.

Every package exports its public names lazily (PEP 562): a name loads
its submodule on first access, so a command loads only the layers it
runs.

Quickstart::

    from repro import quickstart_comparison
    result = quickstart_comparison(arrival_rate=100.0, seed=1)
    print(result.render())
"""

from __future__ import annotations

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict):
    """PEP 562 hooks for a package whose public names live in submodules.

    ``table`` maps each public name to the submodule of ``package``
    (a dotted path relative to it) that defines the name.  Returns
    ``(__all__, __getattr__, __dir__)`` for the package to bind: the
    first access to a name imports its submodule and caches the name
    in the package, so ``from repro.<pkg> import name`` loads only the
    modules that name needs.  An unknown name raises
    :class:`AttributeError`, which also lets ``from repro.<pkg> import
    <submodule>`` fall through to the import system.
    """

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__


# The most-used entry points; the full API lives in the subpackages.
__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ReproError": "errors",
        "RngRegistry": "rng",
        "build_nutch_service": "service.nutch",
        "standard_policies": "baselines.policies",
        "PCSScheduler": "scheduler.pcs",
        "ExperimentRunner": "sim.runner",
        "RunnerConfig": "sim.runner",
        "SweepSpec": "sim.sweep",
        "ParallelSweepRunner": "sim.sweep",
        "ScenarioSpec": "scenarios",
        "get_scenario": "scenarios",
        "register_scenario": "scenarios",
        "scenario_names": "scenarios",
    },
)
__all__ += ["__version__", "quickstart_comparison"]


def quickstart_comparison(arrival_rate: float = 100.0, seed: int = 0, **kwargs):
    """Run a small Basic-vs-PCS comparison and return its result table.

    A convenience wrapper around the Fig. 6 experiment driver with small
    defaults suitable for a laptop; see ``examples/quickstart.py``.
    """
    from repro.experiments.fig6 import run_quick_comparison

    return run_quick_comparison(arrival_rate=arrival_rate, seed=seed, **kwargs)
