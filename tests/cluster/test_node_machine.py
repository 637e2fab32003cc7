"""Tests for machines, nodes, and contention accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


amounts = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)
vector_args = st.tuples(amounts, amounts, amounts, amounts)


@st.composite
def reshuffled_nodes(draw):
    """A node whose machine order differs from its placement order, and
    the resident (or ``None``) whose contention is read."""
    capacity = NodeCapacity(
        cache_mpki_cap=draw(st.floats(1.0, 1e3)),
        disk_bw_mbps=draw(st.floats(1.0, 1e3)),
        net_bw_mbps=draw(st.floats(1.0, 1e3)),
    )
    node = Node(
        "n0", capacity=capacity, background=ResourceVector(*draw(vector_args))
    )
    placed = []
    for i in range(draw(st.integers(1, capacity.machine_slots))):
        resident = FakeResident(f"r{i}")
        resident.demand = ResourceVector(*draw(vector_args))
        kind = draw(st.sampled_from(MachineKind))
        node.host(resident, kind)
        placed.append((resident, kind))
    moved = draw(st.lists(st.sampled_from(placed), unique_by=lambda p: p[0].name))
    for resident, _ in moved:
        node.evict(resident)
    for resident, kind in draw(st.permutations(moved)):
        node.host(resident, kind)
    exclude = draw(st.none() | st.sampled_from([r for r, _ in placed]))
    return node, exclude


class TestContentionContract:
    """A read is the background plus every other resident's demand,
    added one at a time in :meth:`Node.residents` order, then clipped at
    the capacity: the same bits as this left fold."""

    @given(case=reshuffled_nodes())
    @settings(max_examples=200, deadline=None)
    def test_reads_equal_the_machine_order_fold(self, case):
        node, exclude = case
        total = node.background.as_array()
        for resident in node.residents():
            if resident is not exclude:
                total = np.add(total, resident.demand.as_array())
        cap = node.capacity
        clipped = np.minimum(
            total,
            [1.0, cap.cache_mpki_cap, cap.disk_bw_mbps, cap.net_bw_mbps],
        )
        got_total = node.total_demand(exclude=exclude).as_array()
        got_contention = node.contention_for(exclude).as_array()
        assert got_total.tobytes() == total.tobytes()
        assert got_contention.tobytes() == clipped.tobytes()
        assert not got_contention.flags.writeable

    def test_capacity_vector_is_built_once(self):
        cap = NodeCapacity()
        assert cap.vector is cap.vector
        assert cap == NodeCapacity() and hash(cap) == hash(NodeCapacity())
        assert repr(cap) == repr(NodeCapacity())

    def test_overflowing_sum_reads_as_capacity(self):
        huge = np.finfo(np.float64).max
        node = Node("n0", background=ResourceVector(disk_bw=huge))
        node.host(FakeResident("j", disk_bw=huge), MachineKind.BATCH)
        with np.errstate(over="ignore"):
            assert node.contention_for(None).disk_bw == 300.0
