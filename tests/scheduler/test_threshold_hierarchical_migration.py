"""Tests for threshold policies, hierarchical scheduling, and migration
enforcement."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeCapacity
from repro.errors import SchedulingError
from repro.model.matrix import MatrixInputs
from repro.model.predictor import LatencyPredictor
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.migration import MigrationCostModel, MigrationExecutor
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import AdaptiveThreshold, StaticThreshold
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import Exponential
from repro.units import ms


class StubPredictor(LatencyPredictor):
    rho_max = 0.98

    def __init__(self):
        self.coef = np.array([0.5, 0.01, 0.002, 0.004])

    def predict_mean_service(self, cls, contention):
        u = np.atleast_2d(np.asarray(contention, dtype=np.float64))
        return 0.006 * (1.0 + u @ self.coef)

    def scv(self, cls):
        return 1.0


class TestThresholds:
    def test_static_is_constant(self):
        t = StaticThreshold(ms(5))
        assert t.epsilon(0.010) == t.epsilon(10.0) == ms(5)

    def test_static_paper_default(self):
        assert StaticThreshold().epsilon_s == pytest.approx(ms(5))

    def test_static_invalid(self):
        with pytest.raises(SchedulingError):
            StaticThreshold(0.0)

    def test_adaptive_tracks_fraction(self):
        t = AdaptiveThreshold(fraction=0.05)
        # Paper's anchor: 5% of 100 ms = 5 ms.
        assert t.epsilon(0.100) == pytest.approx(ms(5))
        assert t.epsilon(0.400) == pytest.approx(ms(20))

    def test_adaptive_clamps(self):
        t = AdaptiveThreshold(fraction=0.05, min_epsilon_s=ms(1), max_epsilon_s=ms(50))
        assert t.epsilon(0.0) == pytest.approx(ms(1))
        assert t.epsilon(100.0) == pytest.approx(ms(50))

    def test_adaptive_invalid(self):
        with pytest.raises(SchedulingError):
            AdaptiveThreshold(fraction=0.0)
        with pytest.raises(SchedulingError):
            AdaptiveThreshold(min_epsilon_s=ms(10), max_epsilon_s=ms(5))
        with pytest.raises(SchedulingError):
            AdaptiveThreshold().epsilon(-1.0)


def _skewed_inputs(rng, m, k):
    stage_of = np.sort(rng.integers(0, 3, m))
    demands = rng.uniform(0.05, 0.2, (m, 4)) * np.array([1.0, 8.0, 30.0, 10.0])
    assignment = np.zeros(m, dtype=np.int64)
    node_totals = np.zeros((k, 4))
    node_totals[0] = demands.sum(axis=0)
    return MatrixInputs(
        stage_of, [ComponentClass.GENERIC] * m, demands, assignment,
        node_totals, np.full(m, 25.0),
    )


class TestHierarchical:
    def test_small_instance_delegates_to_flat(self):
        rng = np.random.default_rng(0)
        inputs = _skewed_inputs(rng, m=8, k=3)
        flat = PCSScheduler(StubPredictor()).schedule(inputs.copy())
        hier = HierarchicalScheduler(StubPredictor(), group_size=640).schedule(
            inputs.copy()
        )
        assert hier.n_migrations == flat.n_migrations
        np.testing.assert_array_equal(hier.assignment, flat.assignment)

    def test_chunked_scheduling_still_improves(self):
        rng = np.random.default_rng(1)
        inputs = _skewed_inputs(rng, m=24, k=4)
        hier = HierarchicalScheduler(StubPredictor(), group_size=8)
        outcome = hier.schedule(inputs)
        assert outcome.n_migrations > 0
        # Node totals stay conserved across chunks.
        total = inputs.node_totals.sum(axis=0)
        expected = inputs.demands.sum(axis=0)
        np.testing.assert_allclose(total, expected, atol=1e-9)

    def test_migration_indices_are_global(self):
        rng = np.random.default_rng(2)
        inputs = _skewed_inputs(rng, m=20, k=4)
        outcome = HierarchicalScheduler(StubPredictor(), group_size=5).schedule(
            inputs
        )
        # At least one migration must come from a later chunk.
        assert any(m.component_index >= 5 for m in outcome.migrations)
        for mig in outcome.migrations:
            assert 0 <= mig.component_index < 20

    def test_bad_group_size(self):
        with pytest.raises(SchedulingError):
            HierarchicalScheduler(StubPredictor(), group_size=0)


class TestMigrationCostModel:
    def test_paper_batch_claim_holds(self):
        # §VI-C: 10–20 components migrate within 3 seconds.
        assert MigrationCostModel().enforcement_time_s(20) <= 3.0

    def test_zero_migrations_free(self):
        assert MigrationCostModel().enforcement_time_s(0) == 0.0

    def test_affine_growth(self):
        m = MigrationCostModel(fixed_s=1.0, per_component_s=0.1)
        assert m.enforcement_time_s(10) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            MigrationCostModel(fixed_s=-1.0)
        with pytest.raises(SchedulingError):
            MigrationCostModel(warmup_penalty=0.5)
        with pytest.raises(SchedulingError):
            MigrationCostModel().enforcement_time_s(-1)


class TestMigrationExecutor:
    def _setup(self):
        cluster = Cluster.homogeneous(3, NodeCapacity(machine_slots=8))
        comps = [
            Component(
                name=f"c{i}",
                cls=ComponentClass.GENERIC,
                base_service=Exponential(ms(5)),
            )
            for i in range(4)
        ]
        for c in comps:
            cluster.place(c, "node-0")
        return cluster, comps

    def test_enforce_moves_components(self):
        from repro.scheduler.pcs import Migration, SchedulingOutcome

        cluster, comps = self._setup()
        outcome = SchedulingOutcome(
            migrations=[
                Migration(0, 0, 1, ms(10), ms(8)),
                Migration(2, 0, 2, ms(7), ms(6)),
            ],
            initial_overall_s=0.1,
            final_overall_s=0.08,
            analysis_time_s=0.0,
            search_time_s=0.0,
            assignment=np.array([1, 0, 2, 0]),
        )
        executor = MigrationExecutor(cluster, comps)
        moved = executor.enforce(outcome)
        assert moved == {"c0": 1, "c2": 2}
        assert cluster.node_of(comps[0]).name == "node-1"
        assert cluster.node_of(comps[2]).name == "node-2"
        assert executor.enforced == 2
        assert executor.total_enforcement_time_s > 0
        # The moved components are the ones that pay next window's warm-up.
        assert list(moved) == ["c0", "c2"]

    def test_enforce_detects_stale_outcome(self):
        from repro.scheduler.pcs import Migration, SchedulingOutcome

        cluster, comps = self._setup()
        outcome = SchedulingOutcome(
            migrations=[Migration(0, 2, 1, ms(10), ms(8))],  # wrong origin
            initial_overall_s=0.1,
            final_overall_s=0.09,
            analysis_time_s=0.0,
            search_time_s=0.0,
            assignment=np.array([1, 0, 0, 0]),
        )
        with pytest.raises(SchedulingError):
            MigrationExecutor(cluster, comps).enforce(outcome)


class TestHierarchicalDag:
    """Chunked scheduling must keep the DAG critical-path objective
    (restricted to each chunk's stage range), not silently revert to
    the chain sum."""

    def test_chunk_predecessors_restricts_and_renumbers(self):
        from repro.scheduler.hierarchical import chunk_predecessors

        # Diamond over stages 0..3 plus a tail 4 waiting on 3.
        preds = ((), (0,), (0,), (0, 1, 2), (3,))
        # Chunk covering stages 2..4: the edges into 0 and 1 drop
        # (fixed outside), survivors renumber to the chunk frame —
        # stage 3 keeps only its edge from stage 2 (local 0), stage 4
        # its edge from stage 3 (local 1).
        assert chunk_predecessors(preds, 2, 4) == ((), (0,), (1,))
        # Full range is the identity.
        assert chunk_predecessors(preds, 0, 4) == preds
        # A single-stage chunk is one entry stage.
        assert chunk_predecessors(preds, 3, 3) == ((),)

    def test_chunks_receive_the_truncated_dag(self):
        """Every per-chunk sub-MatrixInputs carries stage_predecessors
        (restricted + renumbered), never None for a DAG instance."""
        from tests.model.test_matrix import _random_inputs

        rng = np.random.default_rng(5)
        inputs = _random_inputs(rng, m=18, k=4, n_stages=4)
        n = int(inputs.stage_of.max()) + 1
        inputs.stage_predecessors = tuple(
            () if s == 0 else ((0,) if s < n - 1 else tuple(range(n - 1)))
            for s in range(n)
        )
        scheduler = HierarchicalScheduler(StubPredictor(), group_size=6)
        seen = []
        original = scheduler._inner.schedule

        def capture(sub):
            seen.append(sub.stage_predecessors)
            return original(sub)

        scheduler._inner.schedule = capture
        scheduler.schedule(inputs)
        assert len(seen) >= 2  # actually chunked
        assert all(preds is not None for preds in seen)
        for preds in seen:
            # Valid local DAG: distinct earlier indices per stage.
            for si, ps in enumerate(preds):
                assert all(0 <= p < si for p in ps)

    def test_chain_chunks_stay_on_the_exact_sum_path(self):
        from tests.model.test_matrix import _random_inputs

        rng = np.random.default_rng(6)
        inputs = _random_inputs(rng, m=18, k=4, n_stages=4)
        scheduler = HierarchicalScheduler(StubPredictor(), group_size=6)
        seen = []
        original = scheduler._inner.schedule

        def capture(sub):
            seen.append(sub.stage_predecessors)
            return original(sub)

        scheduler._inner.schedule = capture
        scheduler.schedule(inputs)
        assert seen and all(preds is None for preds in seen)
