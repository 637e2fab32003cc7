"""The cluster: a set of nodes plus the component/job placement map.

This is the object the scheduler manipulates: ``migrate()`` implements
the component-node allocation enforcement of Algorithm 1 line 16 (in the
paper via Storm/ZooKeeper deployment APIs; here by moving the resident
between simulated machines).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.cluster.machine import MachineKind, Resident
from repro.cluster.node import Node, NodeCapacity
from repro.cluster.resources import ResourceVector
from repro.errors import PlacementError

__all__ = ["Cluster"]


class Cluster:
    """Nodes indexed by name, plus a resident → node placement map.

    Parameters
    ----------
    nodes:
        The nodes forming the cluster.  Node names must be unique; the
        iteration order defines the node *index* used by the
        performance matrix (columns of ``L``).
    """

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise PlacementError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        if not self._nodes:
            raise PlacementError("cluster needs at least one node")
        self._placement: Dict[int, Node] = {}  # id(resident) -> node
        self._migrations = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        n_nodes: int,
        capacity: Optional[NodeCapacity] = None,
        name_prefix: str = "node",
    ) -> "Cluster":
        """Build ``n_nodes`` identical nodes named ``node-0 … node-{n-1}``."""
        if n_nodes <= 0:
            raise PlacementError(f"n_nodes must be positive, got {n_nodes}")
        cap = capacity or NodeCapacity()
        return cls(Node(f"{name_prefix}-{i}", capacity=cap) for i in range(n_nodes))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """Nodes in index order (performance-matrix column order)."""
        return list(self._nodes.values())

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise PlacementError(f"no node named {name!r}") from None

    def node_index(self, node: Node) -> int:
        """The matrix column index of ``node``."""
        for i, n in enumerate(self._nodes.values()):
            if n is node:
                return i
        raise PlacementError(f"node {node.name} is not part of this cluster")

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(
        self,
        resident: Resident,
        node: Node | str,
        kind: MachineKind = MachineKind.SERVICE,
    ) -> Node:
        """Place a new resident on ``node``; returns the hosting node."""
        target = self.node(node) if isinstance(node, str) else node
        if target.name not in self._nodes:
            raise PlacementError(f"node {target.name} is not part of this cluster")
        if id(resident) in self._placement:
            raise PlacementError(
                f"{resident.name} is already placed on "
                f"{self._placement[id(resident)].name}; use migrate()"
            )
        target.host(resident, kind)
        self._placement[id(resident)] = target
        return target

    def remove(self, resident: Resident) -> None:
        """Remove ``resident`` from the cluster entirely."""
        node = self._placement.pop(id(resident), None)
        if node is None:
            raise PlacementError(f"{resident.name} is not placed anywhere")
        node.evict(resident)

    def migrate(
        self,
        resident: Resident,
        destination: Node | str,
        kind: MachineKind = MachineKind.SERVICE,
    ) -> Node:
        """Move ``resident`` to ``destination``; returns the origin node.

        A no-op migration (destination == current node) raises, because
        Algorithm 1 never proposes one — the matrix diagonal entries are
        zero and the threshold ε is positive.
        """
        target = self.node(destination) if isinstance(destination, str) else destination
        origin = self._placement.get(id(resident))
        if origin is None:
            raise PlacementError(f"{resident.name} is not placed; use place()")
        if origin is target:
            raise PlacementError(
                f"{resident.name} already runs on {target.name} (no-op migration)"
            )
        origin.evict(resident)
        try:
            target.host(resident, kind)
        except Exception:
            origin.host(resident, kind)  # roll back so state stays consistent
            raise
        self._placement[id(resident)] = target
        self._migrations += 1
        return origin

    def node_of(self, resident: Resident) -> Node:
        """The node currently hosting ``resident``."""
        node = self._placement.get(id(resident))
        if node is None:
            raise PlacementError(f"{resident.name} is not placed anywhere")
        return node

    def placement_indices(self, residents: Sequence[Resident]) -> List[int]:
        """Node index of each resident — the allocation array ``A[m]``
        of Algorithm 1."""
        index_by_id = {id(n): i for i, n in enumerate(self._nodes.values())}
        return [index_by_id[id(self.node_of(r))] for r in residents]

    # ------------------------------------------------------------------
    # contention queries
    # ------------------------------------------------------------------
    def contention_for(self, resident: Resident) -> ResourceVector:
        """Contention vector observed by ``resident`` on its current node."""
        return self.node_of(resident).contention_for(resident)

    @property
    def migrations(self) -> int:
        """Total number of migrations enforced so far."""
        return self._migrations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(nodes={len(self._nodes)}, placed={len(self._placement)})"
