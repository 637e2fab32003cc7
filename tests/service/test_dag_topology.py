"""DAG topology model: predecessor validation, derived indices,
chain degeneracy, and the graph views."""

import pytest

from repro.errors import TopologyError
from repro.service.component import Component, ComponentClass
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage
from repro.simcore.distributions import Exponential
from repro.units import ms


def _comp(name, cls=ComponentClass.GENERIC, mean=ms(5)):
    return Component(name=name, cls=cls, base_service=Exponential(mean))


def _stage(name, preds=None, participation=1.0, n=1):
    return Stage(
        name,
        [
            ReplicaGroup(
                f"{name}-g0",
                [_comp(f"{name}-r{r}") for r in range(n)],
                participation=participation,
            )
        ],
        predecessors=preds,
    )


def _diamond():
    """a -> {b, c} -> d, plus the a -> d skip edge."""
    return ServiceTopology(
        [
            _stage("a"),
            _stage("b", preds=("a",)),
            _stage("c", preds=("a",)),
            _stage("d", preds=("a", "b", "c")),
        ]
    )


class TestValidation:
    def test_unknown_predecessor_rejected(self):
        with pytest.raises(TopologyError, match="unknown predecessor"):
            ServiceTopology([_stage("a"), _stage("b", preds=("zzz",))])

    def test_later_predecessor_rejected(self):
        """Definition order is the topological order — forward (or
        self-) references would allow cycles."""
        with pytest.raises(TopologyError, match="earlier"):
            ServiceTopology(
                [_stage("a", preds=("b",)), _stage("b", preds=())]
            )

    def test_self_predecessor_rejected(self):
        with pytest.raises(TopologyError, match="cannot precede itself"):
            _stage("a", preds=("a",))

    def test_duplicate_predecessors_rejected(self):
        with pytest.raises(TopologyError, match="duplicate predecessors"):
            ServiceTopology(
                [_stage("a"), _stage("b", preds=("a", "a"))]
            )

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_participation_bounds(self, p):
        with pytest.raises(TopologyError, match="participation"):
            ReplicaGroup("g", [_comp("c")], participation=p)

    def test_participation_one_is_not_optional(self):
        assert not ReplicaGroup("g", [_comp("c")]).optional
        assert ReplicaGroup(
            "h", [_comp("d")], participation=0.5
        ).optional


class TestDerivedIndices:
    def test_chain_defaults(self):
        topo = ServiceTopology([_stage("a"), _stage("b"), _stage("c")])
        assert topo.predecessor_indices == ((), (0,), (1,))
        assert topo.successor_indices == ((1,), (2,), ())
        assert topo.exit_indices == (2,)
        assert topo.is_chain

    def test_diamond_indices(self):
        topo = _diamond()
        assert topo.predecessor_indices == ((), (0,), (0,), (0, 1, 2))
        assert topo.successor_indices == ((1, 2, 3), (3,), (3,), ())
        assert topo.exit_indices == (3,)
        assert not topo.is_chain

    def test_parallel_entry_and_multiple_exits(self):
        topo = ServiceTopology(
            [_stage("a"), _stage("side", preds=()), _stage("z", preds=("a",))]
        )
        assert topo.predecessor_indices == ((), (), (0,))
        assert topo.exit_indices == (1, 2)
        assert not topo.is_chain

    def test_optional_group_breaks_chain(self):
        topo = ServiceTopology(
            [_stage("a"), _stage("b", participation=0.5)]
        )
        assert topo.has_optional_groups
        assert not topo.is_chain

    def test_explicit_chain_predecessors_still_chain(self):
        topo = ServiceTopology(
            [_stage("a"), _stage("b", preds=("a",))]
        )
        assert topo.is_chain

    def test_component_order_stays_stage_major(self):
        topo = _diamond()
        assert [c.name for c in topo.components] == [
            "a-r0", "b-r0", "c-r0", "d-r0"
        ]
        for i, c in enumerate(topo.components):
            assert topo.component_index(c) == i


def _stage_edges(topo):
    names = [s.name for s in topo.stages]
    return {
        (names[p], names[si])
        for si, ps in enumerate(topo.predecessor_indices)
        for p in ps
    }


class TestGraphViews:
    def test_stage_graph_edges(self):
        topo = _diamond()
        assert _stage_edges(topo) == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")
        }
        # The successor view holds the same edges, reversed.
        assert {
            (p, s)
            for p, ss in enumerate(topo.successor_indices)
            for s in ss
        } == {
            (p, s) for s, ps in enumerate(topo.predecessor_indices) for p in ps
        }
        # Acyclic: every edge points from an earlier stage to a later one.
        assert all(
            p < si for si, ps in enumerate(topo.predecessor_indices) for p in ps
        )

    def test_component_graph_follows_dag(self):
        topo = _diamond()
        preds = topo.predecessor_indices
        stage_of = {c.name: c.stage_index for c in topo.components}
        assert preds[stage_of["a-r0"]] == ()  # fed by request arrival
        assert stage_of["a-r0"] in preds[stage_of["b-r0"]]
        assert stage_of["a-r0"] in preds[stage_of["c-r0"]]
        assert stage_of["a-r0"] in preds[stage_of["d-r0"]]  # the skip edge
        assert topo.exit_indices == (stage_of["d-r0"],)
        assert stage_of["b-r0"] not in preds[stage_of["c-r0"]]

    def test_graph_carries_participation(self):
        topo = ServiceTopology(
            [_stage("a"), _stage("b", participation=0.25)]
        )
        participation = {
            c.name: g.participation
            for s in topo.stages
            for g in s.groups
            for c in g.components
        }
        assert participation["b-r0"] == 0.25
        assert participation["a-r0"] == 1.0

    def test_describe_shapes(self):
        chain = ServiceTopology([_stage("a"), _stage("b")])
        assert " -> " in chain.describe()
        dag = _diamond()
        out = dag.describe()
        assert "<- a,b,c" in out and "entry" in out
        opt = ServiceTopology([_stage("a"), _stage("b", participation=0.5)])
        assert "1opt" in opt.describe()
