"""Tests for machines, nodes, and contention accounting."""

import pytest

from repro.cluster.machine import Machine, MachineKind
from repro.cluster.node import Node, NodeCapacity
from repro.cluster.resources import ResourceVector
from repro.errors import CapacityError, PlacementError


class FakeResident:
    """Minimal Resident for tests."""

    def __init__(self, name, **demand):
        self.name = name
        self.demand = ResourceVector(**demand)


class TestMachine:
    def test_assign_release_roundtrip(self):
        m = Machine("vm-0")
        r = FakeResident("c0", core=0.1)
        m.assign(r)
        assert m.busy and m.occupant is r
        assert m.release() is r
        assert not m.busy

    def test_double_assign_rejected(self):
        m = Machine("vm-0")
        m.assign(FakeResident("a"))
        with pytest.raises(PlacementError):
            m.assign(FakeResident("b"))

    def test_release_idle_rejected(self):
        with pytest.raises(PlacementError):
            Machine("vm-0").release()

    def test_idle_demand_zero(self):
        assert Machine("vm-0").demand == ResourceVector.zero()

    def test_demand_tracks_occupant(self):
        m = Machine("vm-0")
        m.assign(FakeResident("c", core=0.25, disk_bw=10.0))
        assert m.demand.core == 0.25 and m.demand.disk_bw == 10.0

    def test_empty_name_rejected(self):
        with pytest.raises(PlacementError):
            Machine("")


class TestNodeCapacity:
    def test_defaults_match_paper_testbed(self):
        cap = NodeCapacity()
        assert cap.cores == 12  # two 6-core Xeon E5645
        assert cap.net_bw_mbps == pytest.approx(125.0)  # 1 GbE

    def test_capacity_vector_core_saturates_at_one(self):
        assert NodeCapacity().vector.core == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"disk_bw_mbps": -1.0},
            {"net_bw_mbps": 0.0},
            {"cache_mpki_cap": 0.0},
            {"machine_slots": 0},
        ],
    )
    def test_invalid_capacities_rejected(self, kwargs):
        with pytest.raises(CapacityError):
            NodeCapacity(**kwargs)


class TestNodeMachines:
    def test_add_machine_takes_a_slot(self):
        node = Node("n0")
        node.add_machine("vm-a")
        assert node.free_slots == NodeCapacity().machine_slots - 1

    def test_duplicate_machine_name_rejected(self):
        node = Node("n0")
        node.add_machine("vm-a")
        with pytest.raises(PlacementError):
            node.add_machine("vm-a")

    def test_slot_capacity_enforced(self):
        node = Node("n0", capacity=NodeCapacity(machine_slots=2))
        node.add_machine("a")
        node.add_machine("b")
        with pytest.raises(CapacityError):
            node.add_machine("c")

    def test_host_reuses_idle_machine_of_same_kind(self):
        node = Node("n0")
        r1 = FakeResident("c1")
        node.host(r1, MachineKind.SERVICE)
        node.evict(r1)
        node.host(FakeResident("c2"), MachineKind.SERVICE)
        assert len(node.machines) == 1

    def test_host_does_not_reuse_other_kind(self):
        node = Node("n0")
        r1 = FakeResident("c1")
        node.host(r1, MachineKind.SERVICE)
        node.evict(r1)
        node.host(FakeResident("j1"), MachineKind.BATCH)
        assert len(node.machines) == 2

    def test_evict_unknown_resident_rejected(self):
        with pytest.raises(PlacementError):
            Node("n0").evict(FakeResident("ghost"))

    def test_hosts_and_residents(self):
        node = Node("n0")
        r = FakeResident("c")
        node.host(r, MachineKind.SERVICE)
        assert list(node.residents()) == [r]


class TestContention:
    def test_contention_excludes_self(self):
        node = Node("n0")
        c = FakeResident("comp", core=0.2)
        j = FakeResident("job", core=0.5, disk_bw=50.0)
        node.host(c, MachineKind.SERVICE)
        node.host(j, MachineKind.BATCH)
        u = node.contention_for(c)
        assert u.core == pytest.approx(0.5)
        assert u.disk_bw == pytest.approx(50.0)

    def test_contention_includes_background(self):
        node = Node("n0", background=ResourceVector(core=0.05, cache_mpki=1.0))
        c = FakeResident("comp", core=0.2)
        node.host(c, MachineKind.SERVICE)
        u = node.contention_for(c)
        assert u.core == pytest.approx(0.05)
        assert u.cache_mpki == pytest.approx(1.0)

    def test_contention_saturates_at_capacity(self):
        node = Node("n0")
        c = FakeResident("comp")
        node.host(c, MachineKind.SERVICE)
        for i in range(4):
            node.host(FakeResident(f"j{i}", core=0.5), MachineKind.BATCH)
        assert node.contention_for(c).core == pytest.approx(1.0)

    def test_contention_for_none_is_arrival_view(self):
        node = Node("n0")
        node.host(FakeResident("j", core=0.4), MachineKind.BATCH)
        assert node.contention_for(None).core == pytest.approx(0.4)

    def test_total_demand_with_exclude(self):
        node = Node("n0")
        a = FakeResident("a", core=0.3)
        b = FakeResident("b", core=0.2)
        node.host(a, MachineKind.BATCH)
        node.host(b, MachineKind.BATCH)
        assert node.total_demand(exclude=a).core == pytest.approx(0.2)

    def test_utilisation_capped_at_one(self):
        node = Node("n0")
        for i in range(3):
            node.host(FakeResident(f"j{i}", core=0.6), MachineKind.BATCH)
        assert node.utilisation() == 1.0

    def test_empty_node_name_rejected(self):
        with pytest.raises(PlacementError):
            Node("")
