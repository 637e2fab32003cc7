"""Tests for the performance matrix (Eq. 5 + Table III).

The central property: the vectorised fast build equals the literal
reference build, elementwise, on randomised instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, SchedulingError, UnstableQueueError
from repro.model.matrix import MatrixInputs, PerformanceMatrix
from repro.model.predictor import LatencyPredictor
from repro.service.component import ComponentClass


class StubPredictor(LatencyPredictor):
    """Deterministic affine service-time model for matrix tests."""

    rho_max = 0.98

    def __init__(self, base=0.006, scv=1.0):
        self.base = base
        self._scv = scv
        self.coef = np.array([0.5, 0.01, 0.002, 0.004])

    def predict_mean_service(self, cls, contention):
        u = np.atleast_2d(np.asarray(contention, dtype=np.float64))
        return self.base * (1.0 + u @ self.coef)

    def scv(self, cls):
        return self._scv


def _random_inputs(rng, m=12, k=4, n_stages=3):
    stage_of = np.sort(rng.integers(0, n_stages, m))
    classes = [ComponentClass.GENERIC] * m
    demands = rng.uniform(0, 0.3, (m, 4)) * np.array([1.0, 10.0, 40.0, 15.0])
    assignment = rng.integers(0, k, m)
    # Node totals must include at least the components' own demands.
    node_totals = np.zeros((k, 4))
    for i in range(m):
        node_totals[assignment[i]] += demands[i]
    node_totals += rng.uniform(0, 0.5, (k, 4)) * np.array([1.0, 20.0, 80.0, 30.0])
    arrival_rates = rng.uniform(5.0, 40.0, m)
    return MatrixInputs(
        stage_of=stage_of,
        classes=classes,
        demands=demands,
        assignment=assignment,
        node_totals=node_totals,
        arrival_rates=arrival_rates,
    )


class ClassStubPredictor(StubPredictor):
    """Per-class service-time scale and SCV, so class batching shows.

    Cache contention *shortens* service here, as a fitted polynomial
    may: a component that gains a neighbour can get faster, so a stage
    maximum taken over the wrong groups no longer hides behind
    monotonicity.
    """

    SCALE = {
        ComponentClass.SEGMENTING: 0.7,
        ComponentClass.SEARCHING: 1.0,
        ComponentClass.AGGREGATING: 1.6,
        ComponentClass.GENERIC: 1.2,
    }
    SCV = {
        ComponentClass.SEGMENTING: 0.5,
        ComponentClass.SEARCHING: 1.0,
        ComponentClass.AGGREGATING: 2.0,
        ComponentClass.GENERIC: 1.5,
    }

    def __init__(self):
        super().__init__()
        self.coef = np.array([0.5, -0.02, 0.002, 0.004])

    def predict_mean_service(self, cls, contention):
        return self.SCALE[cls] * super().predict_mean_service(cls, contention)

    def scv(self, cls):
        return self.SCV[cls]


#: Replica-group sizes per stage: one group of 9 members, and groups
#: small enough that most span several nodes.
GROUP_SIZES = ((1, 3), (9, 2), (2, 1), (2,))
#: Stage DAG over those stages: 0 -> {1, 2} -> 3, plus a 0 -> 3 skip.
GROUP_PREDS = ((), (0,), (0,), (0, 1, 2))
STAGE_CLASSES = (
    ComponentClass.SEGMENTING,
    ComponentClass.SEARCHING,
    ComponentClass.GENERIC,
    ComponentClass.AGGREGATING,
)
FEATURES = ("groups", "classes", "dag", "mix", "limits", "all")


def _grouped_inputs(rng, features, k=4):
    """Replica groups over few nodes, so groups span origins and
    targets, with the named extras switched on ("all": every one)."""
    on = set(FEATURES) if features == "all" else {features}
    stage_of, group_of, classes = [], [], []
    for stage, sizes in enumerate(GROUP_SIZES):
        for size in sizes:
            stage_of += [stage] * size
            group_of += [len(set(group_of))] * size
            if "classes" in on:
                classes += [STAGE_CLASSES[stage]] * size
            else:
                classes += [ComponentClass.GENERIC] * size
    m = len(stage_of)
    demands = rng.uniform(0, 0.3, (m, 4)) * np.array([1.0, 10.0, 40.0, 15.0])
    assignment = rng.integers(0, k, m)
    node_totals = np.zeros((k, 4))
    np.add.at(node_totals, assignment, demands)
    node_totals += rng.uniform(0, 0.5, (k, 4)) * np.array([1.0, 20.0, 80.0, 30.0])
    n_stages = len(GROUP_SIZES)
    mix = "mix" in on
    return MatrixInputs(
        stage_of=np.array(stage_of),
        classes=classes,
        demands=demands,
        assignment=assignment,
        node_totals=node_totals,
        arrival_rates=rng.uniform(5.0, 40.0, m),
        node_limits=(
            np.bincount(assignment, minlength=k) + 2 if "limits" in on else None
        ),
        group_of=np.array(group_of),
        stage_predecessors=GROUP_PREDS if "dag" in on else None,
        class_weights=np.array([0.6, 0.4]) if mix else None,
        class_stage_participation=(
            np.array([[1.0] * n_stages, [1.0, 0.0, 1.0, 0.5]]) if mix else None
        ),
        class_service_scales=np.array([1.0, 1.5]) if mix else None,
    )


def _spanning_groups(inputs):
    """Group ids with members on more than one node."""
    return {
        int(g)
        for g in np.unique(inputs.group_of)
        if np.unique(inputs.assignment[inputs.group_of == g]).size > 1
    }


def _layout_inputs(stage_of, group_of):
    """Minimal inputs with the given stage and replica-group layout."""
    m = len(stage_of)
    return MatrixInputs(
        stage_of=np.asarray(stage_of),
        classes=[ComponentClass.GENERIC] * m,
        demands=np.zeros((m, 4)),
        assignment=np.zeros(m, dtype=int),
        node_totals=np.ones((1, 4)),
        arrival_rates=np.ones(m),
        group_of=np.asarray(group_of),
    )


def _per_group_stage_check(stage_of, group_of):
    """The per-group loop ``MatrixInputs`` ran before the one-pass
    check: the error message, or None when every group has one stage."""
    stage_of, group_of = np.asarray(stage_of), np.asarray(group_of)
    for g in np.unique(group_of):
        stages = np.unique(stage_of[group_of == g])
        if stages.size != 1:
            return f"group {g} spans stages {stages}"
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestFastEqualsReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        inputs = _random_inputs(rng, m=10 + seed, k=3 + seed % 3)
        pred = StubPredictor()
        fast = PerformanceMatrix(inputs.copy(), pred).build("fast")
        ref = PerformanceMatrix(inputs.copy(), pred).build("reference")
        np.testing.assert_allclose(fast.L, ref.L, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fast.R, ref.R, rtol=1e-10, atol=1e-12)

    def test_larger_instance(self, rng):
        inputs = _random_inputs(rng, m=40, k=8, n_stages=4)
        pred = StubPredictor()
        fast = PerformanceMatrix(inputs.copy(), pred).build("fast")
        ref = PerformanceMatrix(inputs.copy(), pred).build("reference")
        np.testing.assert_allclose(fast.L, ref.L, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("features", FEATURES)
    def test_grouped_instances(self, features, seed):
        """Every (i, j), including a group's member moving onto a node
        that hosts others of its group, and a group of 9."""
        inputs = _grouped_inputs(np.random.default_rng([seed, 7]), features)
        assert _spanning_groups(inputs)
        pred = ClassStubPredictor()
        fast = PerformanceMatrix(inputs.copy(), pred).build("fast")
        ref = PerformanceMatrix(inputs.copy(), pred).build("reference")
        np.testing.assert_allclose(fast.L, ref.L, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fast.R, ref.R, rtol=1e-10, atol=1e-12)

    def test_unknown_method_rejected(self, rng):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError):
            PerformanceMatrix(inputs, StubPredictor()).build("magic")


class TestEntrySemantics:
    def _two_node_setup(self, heavy_on_0=True):
        """One component on a contended node, an idle node next door."""
        stage_of = np.array([0])
        classes = [ComponentClass.GENERIC]
        demands = np.array([[0.1, 1.0, 2.0, 1.0]])
        assignment = np.array([0])
        node_totals = np.array(
            [
                [0.9, 30.0, 150.0, 50.0],  # node 0: heavy batch load
                [0.1, 1.0, 2.0, 1.0],  # node 1: idle
            ]
        )
        if not heavy_on_0:
            node_totals = node_totals[::-1].copy()
        node_totals[0 if heavy_on_0 else 1] += demands[0]
        arrival = np.array([20.0])
        return MatrixInputs(
            stage_of, classes, demands, assignment, node_totals, arrival
        )

    def test_migration_to_idle_node_positive(self):
        inputs = self._two_node_setup()
        pm = PerformanceMatrix(inputs, StubPredictor())
        l_gain, r_gain = pm.entry(0, 1)
        assert l_gain > 0
        assert r_gain > 0

    def test_diagonal_zero(self):
        inputs = self._two_node_setup()
        pm = PerformanceMatrix(inputs, StubPredictor())
        assert pm.entry(0, 0) == (0.0, 0.0)

    def test_out_of_range_rejected(self):
        pm = PerformanceMatrix(self._two_node_setup(), StubPredictor())
        with pytest.raises(ModelError):
            pm.entry(5, 0)
        with pytest.raises(ModelError):
            pm.entry(0, 9)

    def test_migration_to_heavier_node_negative(self):
        inputs = self._two_node_setup(heavy_on_0=False)
        # Component sits on the idle node; moving to the heavy one hurts.
        inputs.assignment[:] = 0
        pm = PerformanceMatrix(inputs, StubPredictor())
        l_gain, r_gain = pm.entry(0, 1)
        assert l_gain < 0
        assert r_gain < 0


class TestTableIIIDirections:
    """Paper's four qualitative claims (i)-(iv) after §IV-C."""

    def _inputs(self):
        rng = np.random.default_rng(5)
        return _random_inputs(rng, m=10, k=3)

    def test_origin_components_speed_up_target_slow_down(self):
        inputs = self._inputs()
        pred = StubPredictor()
        pm = PerformanceMatrix(inputs, pred)
        i = 0
        origin = int(inputs.assignment[i])
        target = (origin + 1) % inputs.k
        base = pm.base_latencies
        # Recompute latencies after the hypothetical migration by hand.
        u_new = pm._contention_now().copy()
        u_new[i] = inputs.node_totals[target]
        d = inputs.demands[i]
        for c in range(inputs.m):
            if c == i:
                continue
            if inputs.assignment[c] == origin:
                u_new[c] = np.maximum(u_new[c] - d, 0.0)
            elif inputs.assignment[c] == target:
                u_new[c] = u_new[c] + d
        l_new = pm._latencies(np.arange(inputs.m), u_new)
        for c in range(inputs.m):
            if c == i:
                continue
            if inputs.assignment[c] == origin:
                assert l_new[c] <= base[c] + 1e-15  # (ii) decreased
            elif inputs.assignment[c] == target:
                assert l_new[c] >= base[c] - 1e-15  # (iii) increased
            else:
                assert l_new[c] == pytest.approx(base[c])  # (iv) unchanged


class TestMigrationAndUpdate:
    def test_apply_migration_moves_demand(self, rng):
        inputs = _random_inputs(rng, m=8, k=3)
        pm = PerformanceMatrix(inputs, StubPredictor())
        i = 2
        origin = int(inputs.assignment[i])
        target = (origin + 1) % inputs.k
        before_origin = inputs.node_totals[origin].copy()
        before_target = inputs.node_totals[target].copy()
        pm.apply_migration(i, target)
        np.testing.assert_allclose(
            inputs.node_totals[origin], np.maximum(before_origin - inputs.demands[i], 0)
        )
        np.testing.assert_allclose(
            inputs.node_totals[target], before_target + inputs.demands[i]
        )
        assert inputs.assignment[i] == target

    def test_noop_migration_rejected(self, rng):
        inputs = _random_inputs(rng)
        pm = PerformanceMatrix(inputs, StubPredictor())
        with pytest.raises(SchedulingError):
            pm.apply_migration(0, int(inputs.assignment[0]))

    def test_migration_gain_realised(self):
        """Predicted reduction == actual reduction in predicted overall
        latency once the migration is applied (self-consistency)."""
        rng = np.random.default_rng(11)
        inputs = _random_inputs(rng, m=10, k=4)
        pm = PerformanceMatrix(inputs, StubPredictor()).build("fast")
        i, j = np.unravel_index(np.argmax(pm.L), pm.L.shape)
        predicted_gain = pm.L[i, j]
        before = pm.current_overall
        pm.apply_migration(int(i), int(j))
        after = pm.current_overall
        assert before - after == pytest.approx(predicted_gain, rel=1e-9)

    def test_algorithm2_update_matches_fresh_entries(self, rng):
        inputs = _random_inputs(rng, m=10, k=4)
        pred = StubPredictor()
        pm = PerformanceMatrix(inputs, pred).build("fast")
        i, j = np.unravel_index(np.argmax(pm.L), pm.L.shape)
        i, j = int(i), int(j)
        origin = pm.apply_migration(i, j)
        candidates = [c for c in range(inputs.m) if c != i]
        pm.algorithm2_update(i, origin, j, candidates)
        # Affected columns must equal fresh exact entries.
        for r in candidates:
            for c in (origin, j):
                fresh = pm.entry(r, c)
                assert pm.L[r, c] == pytest.approx(fresh[0], abs=1e-12)
            if int(inputs.assignment[r]) in (origin, j):
                for c in range(inputs.k):
                    fresh = pm.entry(r, c)
                    assert pm.L[r, c] == pytest.approx(fresh[0], abs=1e-12)

    @pytest.mark.parametrize("features", FEATURES)
    def test_algorithm2_sequence_matches_fresh_entries(self, features):
        """Three migrations in a row, the first moving a replica onto a
        node that hosts more of its group; after each, every refreshed
        row and column equals fresh entries."""
        inputs = _grouped_inputs(np.random.default_rng(11), features)
        pm = PerformanceMatrix(inputs, ClassStubPredictor()).build("fast")
        candidates = set(range(inputs.m))
        for step in range(3):
            if step == 0:
                # A member of a spread group, onto a node of its group.
                i = next(
                    int(c) for c in range(inputs.m)
                    if int(inputs.group_of[c]) in _spanning_groups(inputs)
                )
                mates = inputs.assignment[inputs.group_of == inputs.group_of[i]]
                j = int(next(n for n in mates if n != inputs.assignment[i]))
            else:
                # The greedy's pick among candidates and free nodes.
                sub = pm.L.copy()
                sub[sorted(set(range(inputs.m)) - candidates)] = -np.inf
                if inputs.node_limits is not None:
                    full = inputs.component_counts() >= inputs.node_limits
                    sub[:, full] = -np.inf
                i, j = (int(x) for x in np.unravel_index(np.argmax(sub), sub.shape))
            origin = pm.apply_migration(i, j)
            candidates.discard(i)
            pm.algorithm2_update(i, origin, j, candidates)
            for r in candidates:
                cols = (
                    range(inputs.k)
                    if int(inputs.assignment[r]) in (origin, j)
                    else (origin, j)
                )
                for c in cols:
                    fresh = pm.entry(r, c)
                    assert pm.L[r, c] == pytest.approx(fresh[0], abs=1e-12)
                    assert pm.R[r, c] == pytest.approx(fresh[1], abs=1e-12)

    def test_update_before_build_rejected(self, rng):
        pm = PerformanceMatrix(_random_inputs(rng), StubPredictor())
        with pytest.raises(SchedulingError):
            pm.algorithm2_update(0, 0, 1, [1])

    def test_rebuild_rows(self, rng):
        inputs = _random_inputs(rng, m=8, k=3)
        pm = PerformanceMatrix(inputs, StubPredictor()).build("fast")
        pm.apply_migration(0, (int(inputs.assignment[0]) + 1) % inputs.k)
        pm.rebuild_rows([1, 2])
        for r in (1, 2):
            for c in range(inputs.k):
                assert pm.L[r, c] == pytest.approx(pm.entry(r, c)[0], abs=1e-12)


class TestInputValidation:
    def test_bad_shapes(self, rng):
        good = _random_inputs(rng)
        with pytest.raises(ModelError):
            MatrixInputs(
                stage_of=good.stage_of,
                classes=good.classes[:-1],
                demands=good.demands,
                assignment=good.assignment,
                node_totals=good.node_totals,
                arrival_rates=good.arrival_rates,
            )

    def test_assignment_out_of_range(self, rng):
        good = _random_inputs(rng)
        bad = good.assignment.copy()
        bad[0] = 99
        with pytest.raises(ModelError):
            MatrixInputs(
                good.stage_of,
                good.classes,
                good.demands,
                bad,
                good.node_totals,
                good.arrival_rates,
            )

    def test_unsorted_stage_rejected(self, rng):
        good = _random_inputs(rng)
        bad = good.stage_of.copy()
        bad[0] = bad[-1] + 1
        with pytest.raises(ModelError):
            MatrixInputs(
                bad,
                good.classes,
                good.demands,
                good.assignment,
                good.node_totals,
                good.arrival_rates,
            )

    def test_group_spanning_stages_is_named(self):
        with pytest.raises(ModelError) as excinfo:
            _layout_inputs([0, 0, 1, 1, 2], [0, 1, 1, 2, 3])
        assert str(excinfo.value) == "group 1 spans stages [0 1]"

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        ),
        nested=st.booleans(),
    )
    def test_stage_check_matches_the_per_group_loop(self, pairs, nested):
        """The one-pass neighbour check raises exactly when, and with the
        message, the per-group ``np.unique`` loop it replaced did."""
        stage_of = np.sort([s for s, _ in pairs])
        group_of = np.sort([g for _, g in pairs])
        if nested:
            # Number the (stage, group) pairs: a layout that passes.
            group_of = np.unique(
                stage_of * 100 + group_of, return_inverse=True
            )[1]
        try:
            _layout_inputs(stage_of, group_of)
        except ModelError as exc:
            message = str(exc)
        else:
            message = None
        assert message == _per_group_stage_check(stage_of, group_of)
        if nested:
            assert message is None

    def test_copy_independent(self, rng):
        a = _random_inputs(rng)
        b = a.copy()
        b.assignment[0] = (b.assignment[0] + 1) % b.k
        assert a.assignment[0] != b.assignment[0] or a.k == 1


class TestClassWeightedObjective:
    """Request-class mix in the overall-latency objective."""

    def _classed(self, inputs, weights, participation, scales=None):
        # Densify stage indices: random instances may skip a stage
        # label, and participation columns must align with the stages
        # that actually exist (runner-built inputs are always dense).
        stage_of = np.unique(inputs.stage_of, return_inverse=True)[1]
        n_stages = int(stage_of.max()) + 1
        return MatrixInputs(
            stage_of=stage_of,
            classes=list(inputs.classes),
            demands=inputs.demands.copy(),
            assignment=inputs.assignment.copy(),
            node_totals=inputs.node_totals.copy(),
            arrival_rates=inputs.arrival_rates.copy(),
            class_weights=np.asarray(weights, dtype=np.float64),
            class_stage_participation=np.broadcast_to(
                np.asarray(participation, dtype=np.float64),
                (len(weights), n_stages),
            ).copy(),
            class_service_scales=(
                None if scales is None
                else np.asarray(scales, dtype=np.float64)
            ),
        )

    def test_single_unit_class_is_bit_identical_to_classless(self, rng):
        """The degenerate mix must not perturb the objective at all —
        the matrix-side face of the resolve_classes -> None contract."""
        inputs = _random_inputs(rng, m=14, k=4)
        plain = PerformanceMatrix(inputs.copy(), StubPredictor()).build("fast")
        classed = PerformanceMatrix(
            self._classed(inputs, [1.0], 1.0), StubPredictor()
        ).build("fast")
        np.testing.assert_array_equal(plain.L, classed.L)
        np.testing.assert_array_equal(plain.R, classed.R)

    def test_light_class_discounts_the_objective(self, rng):
        """A class that skips stages shrinks predicted overall latency,
        so migration gains on skipped stages are discounted."""
        inputs = _random_inputs(rng, m=14, k=4)
        full = PerformanceMatrix(
            self._classed(inputs, [1.0], 1.0), StubPredictor()
        )
        mixed_inputs = self._classed(inputs, [0.5, 0.5], 1.0)
        part = np.ones_like(mixed_inputs.class_stage_participation)
        part[1, 1:] = 0.0  # class 2 only visits the entry stage
        mixed_inputs.class_stage_participation = part
        mixed = PerformanceMatrix(mixed_inputs, StubPredictor())
        assert mixed.base_overall < full.base_overall

    def test_unit_service_scales_bit_identical(self, rng):
        """All-ones σ must not perturb the objective — the matrix face
        of the service_scale contract (None and ones are the same)."""
        inputs = _random_inputs(rng, m=14, k=4)
        plain = PerformanceMatrix(
            self._classed(inputs, [0.5, 0.5], 1.0), StubPredictor()
        ).build("fast")
        scaled = PerformanceMatrix(
            self._classed(inputs, [0.5, 0.5], 1.0, scales=[1.0, 1.0]),
            StubPredictor(),
        ).build("fast")
        np.testing.assert_array_equal(plain.L, scaled.L)
        np.testing.assert_array_equal(plain.R, scaled.R)

    def test_doubling_a_class_scale_moves_the_objective(self, rng):
        """PR-6 follow-up: a 2x service_scale class must raise the
        predicted mixed objective (the simulators already charge it)."""
        inputs = _random_inputs(rng, m=14, k=4)
        plain = PerformanceMatrix(
            self._classed(inputs, [0.5, 0.5], 1.0), StubPredictor()
        )
        heavy = PerformanceMatrix(
            self._classed(inputs, [0.5, 0.5], 1.0, scales=[1.0, 2.0]),
            StubPredictor(),
        )
        assert heavy.base_overall > plain.base_overall
        # Full participation, equal weights: the heavy class's chain
        # doubles, so the mix rises by exactly a quarter... of twice
        # the base — i.e. 1.5x overall.
        assert heavy.base_overall == pytest.approx(
            1.5 * plain.base_overall, rel=1e-12
        )

    def test_scales_require_class_weights(self, rng):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError, match="requires class_weights"):
            MatrixInputs(
                stage_of=inputs.stage_of, classes=inputs.classes,
                demands=inputs.demands, assignment=inputs.assignment,
                node_totals=inputs.node_totals,
                arrival_rates=inputs.arrival_rates,
                class_service_scales=np.array([1.0]),
            )

    @pytest.mark.parametrize(
        "scales,message",
        [
            ([1.0, 1.0, 1.0], r"\(C,\)"),
            ([1.0, 0.0], "finite and > 0"),
            ([1.0, -2.0], "finite and > 0"),
            ([1.0, np.nan], "finite and > 0"),
        ],
    )
    def test_bad_scales_rejected(self, rng, scales, message):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError, match=message):
            self._classed(inputs, [0.5, 0.5], 1.0, scales=scales)

    def test_copy_carries_the_scales(self, rng):
        inputs = self._classed(
            _random_inputs(rng), [0.5, 0.5], 1.0, scales=[1.0, 2.0]
        )
        dup = inputs.copy()
        np.testing.assert_array_equal(
            dup.class_service_scales, inputs.class_service_scales
        )
        assert dup.class_service_scales is not inputs.class_service_scales

    def test_fields_must_come_together(self, rng):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError, match="together"):
            MatrixInputs(
                stage_of=inputs.stage_of, classes=inputs.classes,
                demands=inputs.demands, assignment=inputs.assignment,
                node_totals=inputs.node_totals,
                arrival_rates=inputs.arrival_rates,
                class_weights=np.array([1.0]),
            )
        with pytest.raises(ModelError, match="together"):
            MatrixInputs(
                stage_of=inputs.stage_of, classes=inputs.classes,
                demands=inputs.demands, assignment=inputs.assignment,
                node_totals=inputs.node_totals,
                arrival_rates=inputs.arrival_rates,
                class_stage_participation=np.ones((1, 3)),
            )

    @pytest.mark.parametrize(
        "weights,participation,message",
        [
            ([0.7, 0.7], 1.0, "sum to 1"),
            ([1.5, -0.5], 1.0, "sum to 1"),
            ([1.0], 1.5, r"\[0, 1\]"),
        ],
    )
    def test_bad_values_rejected(self, rng, weights, participation, message):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError, match=message):
            self._classed(inputs, weights, participation)

    def test_bad_shape_rejected(self, rng):
        inputs = _random_inputs(rng)
        with pytest.raises(ModelError, match=r"\(C, S\)"):
            MatrixInputs(
                stage_of=inputs.stage_of, classes=inputs.classes,
                demands=inputs.demands, assignment=inputs.assignment,
                node_totals=inputs.node_totals,
                arrival_rates=inputs.arrival_rates,
                class_weights=np.array([1.0]),
                class_stage_participation=np.ones((2, 99)),
            )

    def test_copy_carries_the_mix(self, rng):
        inputs = self._classed(_random_inputs(rng), [0.5, 0.5], 1.0)
        dup = inputs.copy()
        np.testing.assert_array_equal(dup.class_weights, inputs.class_weights)
        assert dup.class_weights is not inputs.class_weights
        np.testing.assert_array_equal(
            dup.class_stage_participation, inputs.class_stage_participation
        )


class FaultUnderLoadPredictor(StubPredictor):
    """Returns a non-positive mean for contention above ``limit`` on any
    resource once armed.  With ``limit`` at the largest node total, only
    Table III's ``U + U_ci`` rows can exceed it: ``U``, ``U − U_ci`` and
    ``U_nj`` never exceed their node's total."""

    def __init__(self):
        super().__init__()
        self.limit = None

    def predict_mean_service(self, cls, contention):
        means = super().predict_mean_service(cls, contention)
        if self.limit is None:
            return means
        over = (np.atleast_2d(contention) > self.limit).any(axis=1)
        return np.where(over, -means, means)


class TestKernelBoundary:
    """What the kernel checks once at construction and on every call."""

    def test_non_positive_mean_under_load_fails_the_build(self, rng):
        inputs = _random_inputs(rng, m=12, k=4)
        pred = FaultUnderLoadPredictor()
        pred.limit = inputs.node_totals.max(axis=0)
        pm = PerformanceMatrix(inputs, pred)  # U and U_nj stay in bounds
        with pytest.raises(UnstableQueueError, match="positive"):
            pm.build("fast")

    def test_non_positive_mean_under_load_fails_the_update(self, rng):
        inputs = _random_inputs(rng, m=12, k=4)
        pred = FaultUnderLoadPredictor()
        pm = PerformanceMatrix(inputs, pred).build("fast")
        # The lightest component onto the busiest node: the column
        # refresh then loads that node's members with heavier rows.
        j = int(np.argmax(inputs.node_totals[:, 0]))
        away = np.flatnonzero(inputs.assignment != j)
        i = int(away[np.argmin(inputs.demands[away, 0])])
        origin = pm.apply_migration(i, j)
        pred.limit = inputs.node_totals.max(axis=0)
        with pytest.raises(UnstableQueueError, match="positive"):
            pm.algorithm2_update(i, origin, j, range(inputs.m))

    @pytest.mark.parametrize(
        "scv,rho_max,message",
        [(-0.5, 0.98, "scv"), (1.0, 1.0, "rho_max"), (1.0, 0.0, "rho_max")],
    )
    def test_eq2_inputs_checked_at_construction(self, rng, scv, rho_max, message):
        pred = StubPredictor(scv=scv)
        pred.rho_max = rho_max
        with pytest.raises(UnstableQueueError, match=message):
            PerformanceMatrix(_random_inputs(rng), pred)

    @pytest.mark.parametrize("kind", [set, list, np.array])
    def test_candidates_in_any_container(self, kind):
        inputs = _grouped_inputs(np.random.default_rng(4), "all")
        i = 3
        j = (int(inputs.assignment[i]) + 1) % inputs.k
        reference = PerformanceMatrix(inputs.copy(), ClassStubPredictor()).build()
        origin = reference.apply_migration(i, j)
        reference.algorithm2_update(i, origin, j, np.arange(inputs.m))
        pm = PerformanceMatrix(inputs.copy(), ClassStubPredictor()).build()
        pm.apply_migration(i, j)
        candidates = list(range(inputs.m))[::-1]  # unsorted, moved included
        pm.algorithm2_update(i, origin, j, kind(candidates))
        np.testing.assert_array_equal(pm.L, reference.L)
        np.testing.assert_array_equal(pm.R, reference.R)

    def test_update_leaves_the_paper_s_stale_entries(self, rng):
        """Algorithm 2 rewrites the moved nodes' columns of candidate
        rows and whole candidate rows on the moved nodes, nothing else."""
        inputs = _random_inputs(rng, m=20, k=5)
        pm = PerformanceMatrix(inputs, StubPredictor()).build()
        i, j = (int(x) for x in np.unravel_index(np.argmax(pm.L), pm.L.shape))
        pm.L[:], pm.R[:] = np.nan, np.nan
        origin = pm.apply_migration(i, j)
        # One retired row; the moved component may arrive among the
        # candidates, but it is not one.
        candidates = [c for c in range(inputs.m) if c != (i + 1) % inputs.m]
        pm.algorithm2_update(i, origin, j, candidates)
        cand = np.isin(np.arange(inputs.m), candidates) & (np.arange(inputs.m) != i)
        on_moved = np.isin(inputs.assignment, (origin, j))
        written = (cand & on_moved)[:, None] | (
            cand[:, None] & np.isin(np.arange(inputs.k), (origin, j))
        )
        assert not np.isnan(pm.L[written]).any()
        assert not np.isnan(pm.R[written]).any()
        assert np.isnan(pm.L[~written]).all() and np.isnan(pm.R[~written]).all()
