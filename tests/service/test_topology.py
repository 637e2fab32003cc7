"""Tests for service topology construction and invariants."""

import pytest

from repro.errors import TopologyError
from repro.service.component import Component, ComponentClass
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage
from repro.simcore.distributions import Exponential
from repro.units import ms


def _comp(name, cls=ComponentClass.GENERIC, mean=ms(5)):
    return Component(name=name, cls=cls, base_service=Exponential(mean))


def _simple_topology():
    return ServiceTopology(
        [
            Stage("front", [ReplicaGroup("f-g0", [_comp("f0"), _comp("f1")])]),
            Stage(
                "mid",
                [
                    ReplicaGroup("m-g0", [_comp("m00"), _comp("m01")]),
                    ReplicaGroup("m-g1", [_comp("m10"), _comp("m11")]),
                ],
            ),
            Stage("back", [ReplicaGroup("b-g0", [_comp("b0")])]),
        ]
    )


class TestValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(TopologyError):
            ServiceTopology([])

    def test_empty_group_rejected(self):
        with pytest.raises(TopologyError):
            ReplicaGroup("g", [])

    def test_stage_without_groups_rejected(self):
        with pytest.raises(TopologyError):
            Stage("s", [])

    def test_duplicate_stage_names_rejected(self):
        stage = lambda n: Stage(n, [ReplicaGroup(f"{n}-g", [_comp(f"{n}-c")])])
        with pytest.raises(TopologyError):
            ServiceTopology([stage("a"), Stage("a", [ReplicaGroup("x", [_comp("y")])])])

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(TopologyError):
            ServiceTopology(
                [
                    Stage("a", [ReplicaGroup("g0", [_comp("dup")])]),
                    Stage("b", [ReplicaGroup("g1", [_comp("dup")])]),
                ]
            )

    def test_component_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            _comp("")

    def test_component_zero_mean_rejected(self):
        from repro.simcore.distributions import Deterministic

        with pytest.raises(TopologyError):
            Component(
                name="c",
                cls=ComponentClass.GENERIC,
                base_service=Deterministic(0.0),
            )


class TestCoordinates:
    def test_positions_assigned(self):
        topo = _simple_topology()
        m11 = topo.component("m11")
        assert (m11.stage_index, m11.group_index, m11.replica_index) == (1, 1, 1)

    def test_component_order_stage_major(self):
        topo = _simple_topology()
        assert [c.name for c in topo.components] == [
            "f0",
            "f1",
            "m00",
            "m01",
            "m10",
            "m11",
            "b0",
        ]

    def test_component_index_matches_order(self):
        topo = _simple_topology()
        for i, c in enumerate(topo.components):
            assert topo.component_index(c) == i

    def test_counts(self):
        topo = _simple_topology()
        assert topo.n_stages == 3
        assert topo.n_components == 7
        assert topo.stage("mid").n_groups == 2
        assert [g.n_replicas for g in topo.stage("mid").groups] == [2, 2]

    def test_lookup_errors(self):
        topo = _simple_topology()
        with pytest.raises(TopologyError):
            topo.stage("nope")
        with pytest.raises(TopologyError):
            topo.component("nope")
        with pytest.raises(TopologyError):
            topo.component_index(_comp("alien"))


def _reachable(start, edges):
    """Stage indices reachable from ``start`` along ``edges`` (itself included)."""
    seen, todo = {start}, [start]
    while todo:
        for nxt in edges[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


class TestGraphView:
    def test_graph_is_dag_with_sentinels(self):
        topo = _simple_topology()
        preds = topo.predecessor_indices
        # Acyclic: every edge points from an earlier stage to a later one.
        assert all(p < si for si, ps in enumerate(preds) for p in ps)
        entries = {si for si, ps in enumerate(preds) if not ps}
        assert entries == {0} and topo.exit_indices == (2,)
        # Every component lies on an entry→exit path.
        for c in topo.components:
            assert _reachable(c.stage_index, preds) & entries
            assert _reachable(c.stage_index, topo.successor_indices) & set(
                topo.exit_indices
            )

    def test_stage_layering(self):
        topo = _simple_topology()
        preds = topo.predecessor_indices
        stage_of = {c.name: c.stage_index for c in topo.components}
        # front components feed every mid component.
        assert stage_of["f0"] in preds[stage_of["m00"]]
        assert stage_of["f1"] in preds[stage_of["m11"]]
        assert stage_of["f0"] not in preds[stage_of["b0"]]

    def test_describe_mentions_all_stages(self):
        out = _simple_topology().describe()
        assert "front" in out and "mid" in out and "back" in out
