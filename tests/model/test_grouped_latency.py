"""Tests for the grouped Eqs. 3–4 generalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model.service_latency import grouped_overall_latency, overall_latency


class TestGroupedOverallLatency:
    def test_one_component_per_group_is_paper_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 30))
            stage_of = np.sort(rng.integers(0, 4, m))
            lat = rng.uniform(0.001, 0.1, m)
            assert grouped_overall_latency(
                lat, np.arange(m), stage_of
            ) == pytest.approx(overall_latency(lat, stage_of))

    def test_group_mean_semantics(self):
        # One stage, two groups of two replicas.
        lat = np.array([10.0, 30.0, 5.0, 7.0])
        group_of = np.array([0, 0, 1, 1])
        stage_of = np.zeros(4, dtype=int)
        # Group means: 20 and 6 -> stage max = 20.
        assert grouped_overall_latency(lat, group_of, stage_of) == pytest.approx(20.0)

    def test_sum_over_stages(self):
        lat = np.array([4.0, 6.0, 10.0, 20.0])
        group_of = np.array([0, 0, 1, 1])
        stage_of = np.array([0, 0, 1, 1])
        assert grouped_overall_latency(lat, group_of, stage_of) == pytest.approx(
            5.0 + 15.0
        )

    @given(
        lat=st.lists(st.floats(min_value=0, max_value=1), min_size=4, max_size=4)
    )
    @settings(max_examples=50, deadline=None)
    def test_grouping_never_exceeds_plain_max(self, lat):
        # Averaging replicas can only lower a stage's latency vs max.
        lat = np.array(lat)
        group_of = np.array([0, 0, 1, 1])
        stage_of = np.zeros(4, dtype=int)
        assert (
            grouped_overall_latency(lat, group_of, stage_of)
            <= overall_latency(lat, stage_of) + 1e-12
        )

    def test_straggler_dilution_by_replica_count(self):
        # A straggler in a group of 5 counts for one fifth.
        lat = np.array([100.0, 10.0, 10.0, 10.0, 10.0])
        group_of = np.zeros(5, dtype=int)
        stage_of = np.zeros(5, dtype=int)
        assert grouped_overall_latency(lat, group_of, stage_of) == pytest.approx(28.0)

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ModelError):
            grouped_overall_latency(
                np.ones(3), np.zeros(3, dtype=int), np.zeros(4, dtype=int)
            )


class TestMatrixGroupedConsistency:
    def test_matrix_overall_matches_helper(self):
        from repro.model.matrix import MatrixInputs, PerformanceMatrix
        from repro.model.predictor import LatencyPredictor
        from repro.service.component import ComponentClass

        class Stub(LatencyPredictor):
            rho_max = 0.98

            def predict_mean_service(self, cls, contention):
                u = np.atleast_2d(contention)
                return 0.005 * (1.0 + u.sum(axis=1) / 100.0)

            def scv(self, cls):
                return 1.0

        rng = np.random.default_rng(1)
        m, k = 8, 3
        group_of = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        stage_of = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        demands = rng.uniform(0, 0.2, (m, 4))
        assignment = rng.integers(0, k, m)
        node_totals = np.zeros((k, 4))
        for i in range(m):
            node_totals[assignment[i]] += demands[i]
        inputs = MatrixInputs(
            stage_of, [ComponentClass.GENERIC] * m, demands, assignment,
            node_totals, np.full(m, 10.0), group_of=group_of,
        )
        pm = PerformanceMatrix(inputs, Stub())
        assert pm.current_overall == pytest.approx(
            grouped_overall_latency(pm.base_latencies, group_of, stage_of)
        )

    def test_grouped_fast_equals_reference(self):
        from repro.model.matrix import MatrixInputs, PerformanceMatrix
        from repro.model.predictor import LatencyPredictor
        from repro.service.component import ComponentClass

        class Stub(LatencyPredictor):
            rho_max = 0.98

            def predict_mean_service(self, cls, contention):
                u = np.atleast_2d(contention)
                return 0.005 * (1.0 + u @ np.array([0.5, 0.01, 0.002, 0.004]))

            def scv(self, cls):
                return 1.0

        rng = np.random.default_rng(3)
        m, k = 12, 4
        group_of = np.repeat(np.arange(6), 2)
        stage_of = np.repeat([0, 1, 2], 4)
        demands = rng.uniform(0, 0.3, (m, 4)) * np.array([1.0, 10.0, 40.0, 15.0])
        assignment = rng.integers(0, k, m)
        node_totals = np.zeros((k, 4))
        for i in range(m):
            node_totals[assignment[i]] += demands[i]
        node_totals += rng.uniform(0, 0.5, (k, 4)) * np.array([1.0, 20.0, 80.0, 30.0])

        def inputs():
            return MatrixInputs(
                stage_of.copy(), [ComponentClass.GENERIC] * m, demands.copy(),
                assignment.copy(), node_totals.copy(), np.full(m, 15.0),
                group_of=group_of.copy(),
            )

        fast = PerformanceMatrix(inputs(), Stub()).build("fast")
        ref = PerformanceMatrix(inputs(), Stub()).build("reference")
        np.testing.assert_allclose(fast.L, ref.L, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fast.R, ref.R, rtol=1e-10, atol=1e-12)

    def test_group_spanning_stages_rejected(self):
        from repro.model.matrix import MatrixInputs
        from repro.service.component import ComponentClass

        with pytest.raises(ModelError):
            MatrixInputs(
                stage_of=np.array([0, 1]),
                classes=[ComponentClass.GENERIC] * 2,
                demands=np.zeros((2, 4)),
                assignment=np.zeros(2, dtype=int),
                node_totals=np.ones((2, 4)),
                arrival_rates=np.ones(2),
                group_of=np.array([0, 0]),  # spans stages 0 and 1
            )


class TestGroupedStageLatencies:
    """The per-stage extraction the DAG-composing crossover predictor
    consumes (``grouped_stage_latencies``)."""

    def test_per_stage_vector_matches_the_sum(self):
        from repro.model.service_latency import grouped_stage_latencies

        rng = np.random.default_rng(3)
        m = 12
        stage_of = np.sort(rng.integers(0, 3, m))
        group_of = np.sort(rng.integers(0, 6, m))
        # group ids must be non-decreasing within the stage-major order
        # and refine stages; sorting both keeps that true here because
        # groups never span stages in this construction.
        order = np.lexsort((group_of, stage_of))
        stage_of, group_of = stage_of[order], group_of[order]
        # Re-label groups so (stage, group) pairs are globally sorted.
        pairs = stage_of * 100 + group_of
        group_of = np.unique(pairs, return_inverse=True)[1]
        lat = rng.uniform(0.001, 0.1, m)
        per_stage = grouped_stage_latencies(lat, group_of, stage_of)
        assert float(per_stage.sum()) == pytest.approx(
            grouped_overall_latency(lat, group_of, stage_of)
        )

    def test_group_mean_then_stage_max(self):
        from repro.model.service_latency import grouped_stage_latencies

        lat = np.array([10.0, 30.0, 5.0, 7.0, 2.0])
        group_of = np.array([0, 0, 1, 1, 2])
        stage_of = np.array([0, 0, 0, 0, 1])
        per_stage = grouped_stage_latencies(lat, group_of, stage_of)
        assert per_stage.tolist() == [20.0, 2.0]

    def test_dag_composition_equals_chain_on_a_chain(self):
        from repro.model.service_latency import (
            dag_overall_latency,
            grouped_stage_latencies,
        )

        lat = np.array([4.0, 6.0, 1.0, 3.0, 9.0])
        group_of = np.array([0, 0, 1, 1, 2])
        stage_of = np.array([0, 0, 1, 1, 2])
        per_stage = grouped_stage_latencies(lat, group_of, stage_of)
        chain = [(s - 1,) if s else () for s in range(3)]
        assert dag_overall_latency(per_stage, chain) == pytest.approx(
            grouped_overall_latency(lat, group_of, stage_of)
        )

    def test_misaligned_shapes_rejected(self):
        from repro.model.service_latency import grouped_stage_latencies

        with pytest.raises(ModelError):
            grouped_stage_latencies(
                np.ones(3), np.zeros(3, int), np.zeros(2, int)
            )
