"""Service components: the schedulable unit of PCS.

A component is a logical server (one FIFO queue, one VM) belonging to a
replica group of a stage.  It carries

- a *base* service-time distribution — its speed on an idle node; the
  interference model inflates it under contention;
- its own resource demand ``U_ci`` (Table III's migration quantum);
- identity within the topology (stage / group / replica index), which
  the scheduler and the performance matrix use.

Components satisfy the cluster's ``Resident`` protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cluster.resources import ResourceVector
from repro.errors import TopologyError
from repro.simcore.distributions import Distribution

__all__ = ["ComponentClass", "Component"]


class ComponentClass(enum.Enum):
    """Functional role of a component in the Nutch-like service (Fig. 1).

    §VI-D exploits homogeneity within a class: "only one out of all
    homogeneous components needs to be profiled".
    """

    SEGMENTING = "segmenting"
    SEARCHING = "searching"
    AGGREGATING = "aggregating"
    GENERIC = "generic"


@dataclass(eq=False)
class Component:
    """A single service component (Resident protocol: name + demand).

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"searching-g03-r1"``.
    cls:
        The component's :class:`ComponentClass` (profiling equivalence
        class).
    base_service:
        Service-time distribution on an *idle* node, in seconds.
    demand:
        The component's resource footprint ``U_ci`` *at the reference
        request rate* ``reference_rps``.
    reference_rps / idle_fraction / max_demand_scale:
        Load model of the footprint: serving requests costs resources,
        so the *effective* demand scales affinely with the component's
        current request rate —
        ``demand · clip(idle_fraction + (1 − idle_fraction)·rps/reference,
        idle_fraction, max_demand_scale)``.
        This is the feedback loop that makes request redundancy
        expensive: a replica executing k× the requests burns ~k× the
        shared resources and interferes with its co-runners (the
        paper's §VI-C observation that redundancy "adversely
        deteriorates the service performance when load gets heavier").
    stage_index / group_index / replica_index:
        Position inside the service topology; filled by the topology
        constructor.

    Notes
    -----
    The ``demand`` attribute read by the cluster's contention
    accounting is the *effective* (load-scaled) demand; the constructor
    argument is stored as :attr:`base_demand`.  With the default
    ``load_rps == reference_rps`` the two coincide.
    """

    name: str
    cls: ComponentClass
    base_service: Distribution
    demand: ResourceVector = field(default_factory=ResourceVector.zero)
    reference_rps: float = 10.0
    idle_fraction: float = 0.4
    max_demand_scale: float = 3.0
    stage_index: int = -1
    group_index: int = -1
    replica_index: int = -1

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("component name must be non-empty")
        if self.base_service.mean <= 0:
            raise TopologyError(
                f"component {self.name} base service mean must be positive"
            )
        if self.reference_rps <= 0:
            raise TopologyError("reference_rps must be positive")
        if not 0 <= self.idle_fraction <= 1:
            raise TopologyError("idle_fraction must be in [0, 1]")
        if self.max_demand_scale < 1:
            raise TopologyError("max_demand_scale must be >= 1")
        # Reinterpret the constructor's `demand` as the base footprint
        # and make the public attribute load-aware.
        self.base_demand: ResourceVector = self.demand
        self.load_rps: float = self.reference_rps
        self._refresh_effective_demand()

    def _refresh_effective_demand(self) -> None:
        scale = self.idle_fraction + (1.0 - self.idle_fraction) * (
            self.load_rps / self.reference_rps
        )
        scale = min(max(scale, self.idle_fraction), self.max_demand_scale)
        self.demand = self.base_demand * scale

    def set_load(self, rps: float) -> None:
        """Update the component's request rate; rescales its demand."""
        if rps < 0:
            raise TopologyError(f"load must be >= 0, got {rps}")
        self.load_rps = float(rps)
        self._refresh_effective_demand()

    @property
    def base_mean(self) -> float:
        """Mean idle-node service time (seconds)."""
        return self.base_service.mean

    @property
    def base_scv(self) -> float:
        """Squared coefficient of variation of the base service time."""
        return self.base_service.scv

    def positioned(
        self, stage_index: int, group_index: int, replica_index: int
    ) -> "Component":
        """Fill in topology coordinates (called by the topology builder)."""
        self.stage_index = stage_index
        self.group_index = group_index
        self.replica_index = replica_index
        return self

    def __repr__(self) -> str:
        return (
            f"Component({self.name}, {self.cls.value}, "
            f"base={self.base_service.mean * 1e3:.2f}ms)"
        )
