"""Nodes: physical machines with shared-resource capacities.

A node aggregates the resource demands of its resident programs (service
components and batch jobs) and answers the question the online monitor
asks on real hardware: *what contention does resident X observe from
everything else on this node?* — the contention vector ``U`` of paper
Table II, including the node's own background hardware/software activity
(§II-A: storage-device garbage collection, kernel daemons, maintenance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from repro.cluster.machine import Machine, MachineKind, Resident
from repro.cluster.resources import ResourceVector
from repro.errors import CapacityError, PlacementError

__all__ = ["NodeCapacity", "Node"]


@dataclass(frozen=True)
class NodeCapacity:
    """Capacities of one node, defaulted to the paper's testbed.

    Two 6-core Xeon E5645 processors → 12 cores; 1 GbE network
    (125 MB/s); a SATA-era disk (~300 MB/s aggregate); cache pressure is
    capped at a saturation MPKI beyond which extra co-runners add no
    further misses.
    """

    cores: int = 12
    disk_bw_mbps: float = 300.0
    net_bw_mbps: float = 125.0
    cache_mpki_cap: float = 60.0
    machine_slots: int = 8

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise CapacityError(f"cores must be positive, got {self.cores}")
        if self.disk_bw_mbps <= 0 or self.net_bw_mbps <= 0:
            raise CapacityError("bandwidth capacities must be positive")
        if self.cache_mpki_cap <= 0:
            raise CapacityError("cache_mpki_cap must be positive")
        if self.machine_slots <= 0:
            raise CapacityError("machine_slots must be positive")

    @cached_property
    def vector(self) -> ResourceVector:
        """Saturation levels as a vector (core usage saturates at 1.0),
        built once per capacity."""
        return ResourceVector(
            core=1.0,
            cache_mpki=self.cache_mpki_cap,
            disk_bw=self.disk_bw_mbps,
            net_bw=self.net_bw_mbps,
        )


@dataclass
class Node:
    """A physical machine hosting VMs for components and batch jobs."""

    name: str
    capacity: NodeCapacity = field(default_factory=NodeCapacity)
    background: ResourceVector = field(default_factory=ResourceVector.zero)
    _machines: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise PlacementError("node name must be non-empty")

    # ------------------------------------------------------------------
    # machine management
    # ------------------------------------------------------------------
    @property
    def machines(self) -> tuple[Machine, ...]:
        """All machines on this node, in creation order."""
        return tuple(self._machines.values())

    @property
    def free_slots(self) -> int:
        """Machine slots still available."""
        return self.capacity.machine_slots - len(self._machines)

    def add_machine(
        self, name: str, kind: MachineKind = MachineKind.SERVICE
    ) -> Machine:
        """Create a machine on this node; enforces the slot capacity."""
        if name in self._machines:
            raise PlacementError(f"machine {name} already exists on {self.name}")
        if self.free_slots <= 0:
            raise CapacityError(
                f"node {self.name} has no free machine slots "
                f"({self.capacity.machine_slots} in use)"
            )
        machine = Machine(name, kind)
        self._machines[name] = machine
        return machine

    def host(self, resident: Resident, kind: MachineKind) -> Machine:
        """Place ``resident`` on a free machine of ``kind`` (create one if
        a slot is available)."""
        for machine in self._machines.values():
            if machine.kind is kind and not machine.busy:
                machine.assign(resident)
                return machine
        # Names carry a per-node sequence number: machines are reused
        # across residents, so a resident-derived name could collide
        # when a component returns to a node it once left.
        self._machine_seq = getattr(self, "_machine_seq", 0) + 1
        machine = self.add_machine(
            f"{self.name}/{kind.value}-{self._machine_seq}", kind
        )
        machine.assign(resident)
        return machine

    def evict(self, resident: Resident) -> Machine:
        """Remove ``resident`` from whichever machine hosts it."""
        for machine in self._machines.values():
            if machine.occupant is resident:
                machine.release()
                return machine
        raise PlacementError(f"{resident.name} is not hosted on node {self.name}")

    def residents(self) -> Iterator[Resident]:
        """Iterate over all programs currently running on this node."""
        for machine in self._machines.values():
            if machine.busy:
                yield machine.occupant

    # ------------------------------------------------------------------
    # contention accounting
    # ------------------------------------------------------------------
    def _demand_sum(self, exclude: Optional[Resident]) -> np.ndarray:
        total = self.background.as_array().copy()
        for resident in self.residents():
            if resident is not exclude:
                total += resident.demand.as_array()
        return total

    def total_demand(self, exclude: Optional[Resident] = None) -> ResourceVector:
        """Sum of resident demands (optionally excluding one) + background.

        A read copies the background and adds each counted resident's
        demand to it in place, one at a time in :meth:`residents`
        (machine) order, then checks the sum once as it becomes a
        vector.  These are the additions a left fold of ``+`` over the
        residents makes, in its order, so the bits match that fold;
        subtracting one resident from a node total would not.
        """
        return ResourceVector._of(self._demand_sum(exclude))

    def contention_for(self, resident: Optional[Resident]) -> ResourceVector:
        """Contention vector ``U`` observed by ``resident`` (Table II).

        The sum of all *other* residents' demands plus background
        activity, saturated at the node's capacity vector — co-runners
        cannot jointly use more than 100 % of the cores or more than the
        physical bandwidths.

        Passing ``None`` returns the contention a *newly arriving*
        resident would observe.  The sum is :meth:`total_demand`'s,
        clipped before its one check, so a sum that overflows reads as
        the capacity.
        """
        return ResourceVector._of(
            np.minimum(self._demand_sum(resident), self.capacity.vector.as_array())
        )

    def utilisation(self) -> float:
        """Core-usage fraction of the whole node (for placement/tests)."""
        return min(1.0, self.total_demand().core)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.name}, machines={len(self._machines)}/"
            f"{self.capacity.machine_slots})"
        )
