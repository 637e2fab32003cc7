"""The PCS component-level scheduler — paper §V.

- :mod:`repro.scheduler.pcs` — Algorithm 1: the greedy migration loop
  over the performance matrix, with the paper's tie-breaking rule and
  migration threshold ε.
- :mod:`repro.scheduler.threshold` — static ε (the paper's 5 ms =
  5 % of the accepted 100 ms overall latency) and the adaptive variant
  the paper flags as possible future work.
- :mod:`repro.scheduler.hierarchical` — §VI-D's grouped strategy for
  services beyond ~640 components.
- :mod:`repro.scheduler.migration` — enforcement of the allocation
  array on a cluster, with the paper's migration-cost model.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "SchedulerConfig": "pcs",
        "Migration": "pcs",
        "SchedulingOutcome": "pcs",
        "PCSScheduler": "pcs",
        "StaticThreshold": "threshold",
        "AdaptiveThreshold": "threshold",
        "HierarchicalScheduler": "hierarchical",
        "MigrationExecutor": "migration",
        "MigrationCostModel": "migration",
    },
)
