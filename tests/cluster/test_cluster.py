"""Tests for the cluster placement map and migration API."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.node import Node, NodeCapacity
from repro.cluster.placement import (
    least_loaded_placement,
    random_placement,
    round_robin_placement,
)
from repro.cluster.resources import ResourceVector
from repro.errors import PlacementError


class FakeResident:
    def __init__(self, name, **demand):
        self.name = name
        self.demand = ResourceVector(**demand)


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4)


class TestConstruction:
    def test_homogeneous_names_and_order(self, cluster):
        assert [n.name for n in cluster.nodes] == [
            "node-0", "node-1", "node-2", "node-3"
        ]
        assert len(cluster) == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlacementError):
            Cluster([Node("a"), Node("a")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(PlacementError):
            Cluster([])

    def test_nonpositive_homogeneous_rejected(self):
        with pytest.raises(PlacementError):
            Cluster.homogeneous(0)

    def test_node_lookup(self, cluster):
        assert cluster.node("node-2").name == "node-2"
        with pytest.raises(PlacementError):
            cluster.node("nope")

    def test_node_index_matches_order(self, cluster):
        for i, node in enumerate(cluster.nodes):
            assert cluster.node_index(node) == i

    def test_foreign_node_index_rejected(self, cluster):
        with pytest.raises(PlacementError):
            cluster.node_index(Node("foreign"))


class TestPlacement:
    def test_place_and_node_of(self, cluster):
        r = FakeResident("c0", core=0.1)
        cluster.place(r, "node-1")
        assert cluster.node_of(r).name == "node-1"
        assert r in cluster.node("node-1").residents()

    def test_double_place_rejected(self, cluster):
        r = FakeResident("c0")
        cluster.place(r, "node-0")
        with pytest.raises(PlacementError):
            cluster.place(r, "node-1")

    def test_remove(self, cluster):
        r = FakeResident("c0")
        cluster.place(r, "node-0")
        cluster.remove(r)
        with pytest.raises(PlacementError):
            cluster.node_of(r)
        assert r not in cluster.node("node-0").residents()

    def test_remove_unplaced_rejected(self, cluster):
        with pytest.raises(PlacementError):
            cluster.remove(FakeResident("ghost"))

    def test_residents_on(self, cluster):
        a, b = FakeResident("a"), FakeResident("b")
        cluster.place(a, "node-0")
        cluster.place(b, "node-0")
        assert {r.name for r in cluster.node("node-0").residents()} == {"a", "b"}
        assert list(cluster.node("node-1").residents()) == []


class TestMigration:
    def test_migrate_moves_resident(self, cluster):
        r = FakeResident("c0", core=0.2)
        cluster.place(r, "node-0")
        origin = cluster.migrate(r, "node-3")
        assert origin.name == "node-0"
        assert cluster.node_of(r).name == "node-3"
        assert cluster.migrations == 1

    def test_noop_migration_rejected(self, cluster):
        r = FakeResident("c0")
        cluster.place(r, "node-0")
        with pytest.raises(PlacementError):
            cluster.migrate(r, "node-0")

    def test_migrate_unplaced_rejected(self, cluster):
        with pytest.raises(PlacementError):
            cluster.migrate(FakeResident("ghost"), "node-1")

    def test_migration_updates_contention_both_sides(self, cluster):
        comp = FakeResident("comp", core=0.1)
        heavy = FakeResident("job", core=0.7)
        probe0 = FakeResident("p0")
        probe1 = FakeResident("p1")
        cluster.place(probe0, "node-0")
        cluster.place(probe1, "node-1")
        cluster.place(comp, "node-0")
        cluster.place(heavy, "node-0", MachineKind.BATCH)
        assert cluster.contention_for(probe0).core == pytest.approx(0.8)
        cluster.migrate(comp, "node-1")
        assert cluster.contention_for(probe0).core == pytest.approx(0.7)
        assert cluster.contention_for(probe1).core == pytest.approx(0.1)

    def test_migrate_rolls_back_when_destination_full(self):
        cluster = Cluster(
            [
                Node("n0", capacity=NodeCapacity(machine_slots=2)),
                Node("n1", capacity=NodeCapacity(machine_slots=1)),
            ]
        )
        blocker = FakeResident("blocker")
        cluster.place(blocker, "n1")
        r = FakeResident("c0")
        cluster.place(r, "n0")
        with pytest.raises(Exception):
            cluster.migrate(r, "n1")
        # Rolled back: still on n0.
        assert cluster.node_of(r).name == "n0"
        assert r in cluster.node("n0").residents()

    def test_placement_indices_is_allocation_array(self, cluster):
        rs = [FakeResident(f"c{i}") for i in range(4)]
        for r, node in zip(rs, ["node-2", "node-0", "node-3", "node-2"]):
            cluster.place(r, node)
        assert cluster.placement_indices(rs) == [2, 0, 3, 2]


class TestPlacementPolicies:
    def _components(self, n):
        return [FakeResident(f"c{i}", core=0.1) for i in range(n)]

    def test_round_robin_cycles(self, cluster):
        nodes = round_robin_placement(cluster, self._components(6))
        assert [n.name for n in nodes] == [
            "node-0",
            "node-1",
            "node-2",
            "node-3",
            "node-0",
            "node-1",
        ]

    def test_random_placement_places_everything(self, cluster):
        rng = np.random.default_rng(0)
        comps = self._components(10)
        random_placement(cluster, comps, rng)
        for c in comps:
            assert cluster.node_of(c) is not None

    def test_least_loaded_prefers_idle_node(self, cluster):
        heavy = FakeResident("heavy", core=0.9)
        cluster.place(heavy, "node-0", MachineKind.BATCH)
        nodes = least_loaded_placement(cluster, self._components(3))
        assert "node-0" not in {n.name for n in nodes}

    def test_least_loaded_raises_when_full(self):
        cluster = Cluster(
            [Node("n0", capacity=NodeCapacity(machine_slots=1))]
        )
        least_loaded_placement(cluster, self._components(1))
        with pytest.raises(PlacementError):
            least_loaded_placement(cluster, self._components(1))
