"""The online service: topology + identity + deployment helpers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.placement import (
    least_loaded_placement,
    random_placement,
    round_robin_placement,
)
from repro.errors import TopologyError
from repro.service.component import Component, ComponentClass
from repro.service.topology import ServiceTopology

__all__ = ["OnlineService"]


class OnlineService:
    """A named, deployable multi-stage online service.

    Wraps a :class:`~repro.service.topology.ServiceTopology` with the
    operations the experiment harness needs: deploying onto a cluster,
    looking components up per class (the §VI-D profiling trick), and
    exposing the component list in performance-matrix row order.
    """

    def __init__(self, name: str, topology: ServiceTopology) -> None:
        if not name:
            raise TopologyError("service name must be non-empty")
        self.name = name
        self.topology = topology

    # ------------------------------------------------------------------
    # component views
    # ------------------------------------------------------------------
    @property
    def components(self) -> List[Component]:
        """All components in matrix row order."""
        return self.topology.components

    @property
    def n_components(self) -> int:
        """The paper's ``m``."""
        return self.topology.n_components

    def classes(self) -> List[ComponentClass]:
        """Distinct component classes, in first-appearance order."""
        seen: Dict[ComponentClass, None] = {}
        for c in self.components:
            seen.setdefault(c.cls)
        return list(seen)

    def representative(self, cls: ComponentClass) -> Component:
        """One component per class — '§VI-D: only one out of all
        homogeneous components needs to be profiled'."""
        for c in self.components:
            if c.cls is cls:
                return c
        raise TopologyError(f"service has no component of class {cls.value}")

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        cluster: Cluster,
        strategy: str = "round_robin",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Place every component on the cluster.

        ``strategy`` ∈ {"round_robin", "random", "least_loaded"}; the
        random strategy needs ``rng``.
        """
        comps: Sequence[Component] = self.components
        if strategy == "round_robin":
            round_robin_placement(cluster, comps, MachineKind.SERVICE)
        elif strategy == "random":
            if rng is None:
                raise TopologyError("random deployment needs an rng")
            random_placement(cluster, comps, rng, MachineKind.SERVICE)
        elif strategy == "least_loaded":
            least_loaded_placement(cluster, comps, MachineKind.SERVICE)
        else:
            raise TopologyError(f"unknown deployment strategy {strategy!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineService({self.name}, {self.topology.describe()})"
