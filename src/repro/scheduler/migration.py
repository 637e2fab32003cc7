"""Migration enforcement and its cost model (paper §VI-C).

"Storm first uploads the source codes ... and the configuration
information of the component to ZooKeeper ... At each scheduling
interval, the migration of components (e.g. 10 to 20 components) can be
completed within 3 seconds without interrupting the running services
and only causes small consumptions of memory and I/O resources."

:class:`MigrationCostModel` turns that description into numbers the
experiment harness can apply: an enforcement wall-clock estimate and a
brief, small service-time penalty on freshly migrated components
(warm-up of caches on the destination node).
:class:`MigrationExecutor` applies a scheduling outcome to a live
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.errors import SchedulingError
from repro.scheduler.pcs import SchedulingOutcome
from repro.service.component import Component

__all__ = ["MigrationCostModel", "MigrationExecutor"]


@dataclass(frozen=True)
class MigrationCostModel:
    """Costs of enforcing migrations via the deployment APIs.

    Attributes
    ----------
    batch_time_s:
        Wall-clock to migrate a typical batch (the paper: ≤ 3 s for
        10–20 components) — modeled as affine: ``fixed + per_component·n``.
    per_component_s:
        Marginal per-component enforcement time.
    warmup_penalty:
        Multiplicative service-time penalty on a migrated component
        while its destination caches warm up.
    warmup_duration_s:
        How long the penalty lasts after enforcement.
    """

    fixed_s: float = 1.0
    per_component_s: float = 0.1
    warmup_penalty: float = 1.10
    warmup_duration_s: float = 10.0

    def __post_init__(self) -> None:
        if self.fixed_s < 0 or self.per_component_s < 0:
            raise SchedulingError("migration times must be >= 0")
        if self.warmup_penalty < 1.0:
            raise SchedulingError("warmup_penalty must be >= 1")
        if self.warmup_duration_s < 0:
            raise SchedulingError("warmup_duration_s must be >= 0")

    def enforcement_time_s(self, n_migrations: int) -> float:
        """Estimated wall-clock to enforce ``n_migrations``."""
        if n_migrations < 0:
            raise SchedulingError("n_migrations must be >= 0")
        if n_migrations == 0:
            return 0.0
        return self.fixed_s + self.per_component_s * n_migrations


class MigrationExecutor:
    """Applies a :class:`SchedulingOutcome` to a live cluster."""

    def __init__(
        self,
        cluster: Cluster,
        components: Sequence[Component],
        cost_model: MigrationCostModel | None = None,
    ) -> None:
        self.cluster = cluster
        self.components = list(components)
        self.cost_model = cost_model or MigrationCostModel()
        self.enforced = 0
        self.total_enforcement_time_s = 0.0

    def enforce(self, outcome: SchedulingOutcome) -> Dict[str, int]:
        """Enforce every migration of ``outcome`` on the cluster.

        Returns ``{component name: destination node index}`` for the
        components actually moved.  The executor trusts the outcome's
        allocation array: a mismatch between the outcome and the
        cluster's current placement raises.
        """
        moved: Dict[str, int] = {}
        for mig in outcome.migrations:
            component = self.components[mig.component_index]
            current = self.cluster.node_of(component)
            current_idx = self.cluster.node_index(current)
            if current_idx != mig.origin:
                raise SchedulingError(
                    f"{component.name}: outcome says origin {mig.origin} "
                    f"but cluster has it on {current_idx}"
                )
            destination = self.cluster.nodes[mig.destination]
            self.cluster.migrate(component, destination, MachineKind.SERVICE)
            moved[component.name] = mig.destination
        self.enforced += len(moved)
        self.total_enforcement_time_s += self.cost_model.enforcement_time_s(
            len(moved)
        )
        return moved
