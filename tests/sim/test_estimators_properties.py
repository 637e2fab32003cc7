"""Property tests proving the streaming estimator layer honest.

:mod:`repro.sim.estimators` promises, in its docstring, a concrete
error contract; this suite enforces it:

- **P² and reservoir estimates track the exact kernel** — on
  exponential, Pareto-tailed and bimodal latency distributions the
  estimated quantiles sit within their documented *rank* error of the
  exact nearest-rank percentile (rank space is the right currency: it
  is distribution-free, so a heavy tail cannot excuse a bad estimate);
- **the exact path is permutation/partition invariant** — however the
  sample is split into batches and reordered, percentiles are
  bit-identical to one pooled pass (the property golden pins rely on);
- **reservoirs are deterministic and chunk-invariant** under
  :class:`repro.rng.RngRegistry` seeding — the kept set depends on the
  seed and the observation order, never on chunk boundaries;
- **merging is associative** — per-interval accumulators combined in
  any grouping produce the same run summary;
- **the streaming mean is exact up to float rounding** — folded one
  observation or one batch at a time, or merged with another
  accumulator, it matches NumPy's mean of everything folded in.

Two engines drive the randomised properties, mirroring
``test_metrics_properties.py``: hypothesis when importable, and a
seeded stdlib-``random`` fallback that always runs.
"""

import numpy as np
import pytest

from repro.errors import EstimatorError
from repro.monitoring.streaming import P2Quantile
from repro.rng import RngRegistry
from repro.sim.estimators import (
    DEFAULT_RESERVOIR_SIZE,
    IntervalAccumulatorSet,
    LatencyAccumulator,
    ReservoirSampler,
)
from repro.sim.metrics import percentile

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # minimal tier-1 environment
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# latency populations with qualitatively different shapes
# ----------------------------------------------------------------------
def _population(name: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if name == "exponential":
        return rng.exponential(0.010, n)
    if name == "pareto":  # heavy tail: infinite variance at alpha < 2
        return 0.002 * (1.0 + rng.pareto(1.5, n))
    if name == "bimodal":  # cache hit vs miss
        fast = rng.exponential(0.001, n)
        slow = 0.050 + rng.exponential(0.020, n)
        return np.where(rng.random(n) < 0.8, fast, slow)
    raise AssertionError(name)


POPULATIONS = ("exponential", "pareto", "bimodal")


def _rank_error(sample: np.ndarray, estimate: float, q: float) -> float:
    """|empirical CDF at the estimate − q/100| — distribution-free."""
    return abs(float(np.mean(sample <= estimate)) - q / 100.0)


# ----------------------------------------------------------------------
# estimator vs exact kernel, per distribution
# ----------------------------------------------------------------------
class TestEstimatorErrorContract:
    N = 40_000

    @pytest.mark.parametrize("dist", POPULATIONS)
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    def test_reservoir_within_documented_rank_error(self, dist, q):
        sample = _population(dist, self.N, seed=hash(dist) % 2**31)
        acc = LatencyAccumulator(
            "streaming", rng=np.random.default_rng(5), reservoir_size=16384
        )
        # Stream in uneven chunks, as the simulator would.
        for part in np.array_split(sample, 13):
            acc.add(part)
        est = acc._reservoir.quantile(q)
        # Contract: rank error O(sqrt(q(1-q)/k)); allow 4 sigma plus the
        # 1/k nearest-rank discretisation.
        p = q / 100.0
        bound = 4.0 * np.sqrt(p * (1.0 - p) / 16384) + 1.0 / 16384
        assert _rank_error(sample, est, q) <= bound
        # The estimate is an actually observed latency (float32-rounded).
        assert np.min(np.abs(sample.astype(np.float32) - np.float32(est))) == 0.0

    @pytest.mark.parametrize("dist", POPULATIONS)
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    def test_p2_tracks_exact_kernel(self, dist, q):
        sample = _population(dist, self.N, seed=1 + hash(dist) % 2**31)
        est = P2Quantile(q / 100.0)
        est.add_many(sample)
        # P² is distribution-dependent (parabolic markers); its rank
        # error on these shapes is bounded empirically at 2 percentile
        # points — far looser than the reservoir, which is why the
        # streaming accumulator uses the reservoir.
        assert _rank_error(sample, float(est.estimate), q) <= 0.02

    @pytest.mark.parametrize("dist", POPULATIONS)
    def test_streaming_mean_max_n_are_exact(self, dist):
        sample = _population(dist, 10_000, seed=3)
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        for part in np.array_split(sample, 7):
            acc.add(part)
        s = acc.summary()
        assert s.n == sample.size
        assert s.max == float(sample.max())
        assert s.mean == pytest.approx(float(sample.mean()), rel=1e-12)

    def test_exact_summary_bit_identical_to_pool(self):
        sample = _population("bimodal", 5000, seed=9)
        acc = LatencyAccumulator("exact")
        for part in np.array_split(sample, 11):
            acc.add(part)
        s = acc.summary()
        assert s.p99 == percentile(sample, 99)
        assert s.p50 == percentile(sample, 50)
        assert s.mean == float(sample.mean())


# ----------------------------------------------------------------------
# streaming mean: the Chan fold behind add() and merge()
# ----------------------------------------------------------------------
class TestStreamingMean:
    @staticmethod
    def _acc(seed: int = 0) -> LatencyAccumulator:
        return LatencyAccumulator(
            "streaming", rng=np.random.default_rng(seed), reservoir_size=32
        )

    @pytest.mark.parametrize("dist", POPULATIONS)
    def test_matches_numpy(self, dist):
        # One observation per add() is the Welford special case.
        sample = _population(dist, 2000, seed=5)
        acc = self._acc()
        for x in sample:
            acc.add([x])
        assert acc.n == sample.size
        assert acc.mean == pytest.approx(float(sample.mean()), rel=1e-9)

    def test_batched_fold_matches_one_at_a_time(self):
        xs = np.random.default_rng(2).exponential(1.0, 5000)
        one = self._acc()
        for x in xs:
            one.add([x])
        batched = self._acc()
        for part in np.array_split(xs, 9):
            batched.add(part)
        assert batched.n == one.n
        assert batched.mean == pytest.approx(one.mean, rel=1e-12)

    def test_merge_equals_concatenation(self):
        a = _population("pareto", 700, seed=11)
        b = _population("bimodal", 300, seed=12)
        left, right = self._acc(1), self._acc(2)
        left.add(a)
        right.add(b)
        left.merge(right)
        both = np.concatenate([a, b])
        assert left.n == both.size
        assert left.mean == pytest.approx(float(both.mean()), rel=1e-12)
        assert left.summary().max == float(both.max())

    def test_merge_with_empty(self):
        full = self._acc(1)
        full.add([1.0, 2.0])
        full.merge(self._acc(2))
        assert (full.n, full.mean) == (2, 1.5)
        empty = self._acc(3)
        empty.merge(full)
        assert (empty.n, empty.mean) == (2, 1.5)


# ----------------------------------------------------------------------
# shared randomised properties (engine-agnostic)
# ----------------------------------------------------------------------
def check_exact_partition_invariant(values, bounds):
    """Exact-path percentiles ignore how the sample was batched."""
    arr = np.asarray(values, dtype=np.float64)
    whole = LatencyAccumulator("exact")
    whole.add(arr)
    split = LatencyAccumulator("exact")
    for a, b in zip(bounds[:-1], bounds[1:]):
        split.add(arr[a:b])
    sw, ss = whole.summary(), split.summary()
    assert (sw.p50, sw.p95, sw.p99, sw.max, sw.n) == (
        ss.p50, ss.p95, ss.p99, ss.max, ss.n
    )


def check_exact_permutation_invariant(values, shuffler):
    arr = list(values)
    shuffled = list(values)
    shuffler(shuffled)
    a, b = LatencyAccumulator("exact"), LatencyAccumulator("exact")
    a.add(arr)
    b.add(shuffled)
    sa, sb = a.summary(), b.summary()
    # Percentiles and max are exactly permutation invariant (sorting);
    # the mean is summed in array order, so it is only float-close.
    assert (sa.p50, sa.p95, sa.p99, sa.max) == (sb.p50, sb.p95, sb.p99, sb.max)
    assert sa.mean == pytest.approx(sb.mean, rel=1e-12, abs=0.0)


def check_reservoir_chunk_invariant(values, seed, bounds):
    """The kept set — and thus every quantile — ignores chunking."""
    arr = np.asarray(values, dtype=np.float64)
    cap = 64

    def build(cuts):
        rngs = RngRegistry(seed)
        sampler = ReservoirSampler(cap, rngs.get("reservoir"))
        for a, b in zip(cuts[:-1], cuts[1:]):
            sampler.add(arr[a:b])
        return sampler

    whole = build([0, arr.size])
    split = build(bounds)
    assert whole.n_seen == split.n_seen == arr.size
    assert np.array_equal(np.sort(whole.values), np.sort(split.values))
    if arr.size:
        for q in (50.0, 99.0):
            assert whole.quantile(q) == split.quantile(q)


def check_merge_associative(values, seed, bounds):
    """((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)) for streamed accumulators."""
    arr = np.asarray(values, dtype=np.float64)
    thirds = [
        arr[a:b] for a, b in zip(bounds[:-1], bounds[1:])
    ]

    def build():
        rngs = RngRegistry(seed)
        accs = []
        for i, part in enumerate(thirds):
            acc = LatencyAccumulator(
                "streaming", rng=rngs.get(f"part-{i}"), reservoir_size=32
            )
            acc.add(part)
            accs.append(acc)
        return accs

    a1, b1, c1 = build()
    left = a1.merge(b1).merge(c1)
    a2, b2, c2 = build()
    right = a2.merge(b2.merge(c2))
    assert left.n == right.n == arr.size
    if arr.size:
        sl, sr = left.summary(), right.summary()
        assert (sl.p50, sl.p95, sl.p99, sl.max, sl.n) == (
            sr.p50, sr.p95, sr.p99, sr.max, sr.n
        )
        assert sl.mean == pytest.approx(sr.mean, rel=1e-12, abs=0.0)


def check_reservoir_deterministic(values, seed):
    arr = np.asarray(values, dtype=np.float64)

    def build():
        rngs = RngRegistry(seed)
        s = ReservoirSampler(48, rngs.get("estimator-overall"))
        s.add(arr)
        return s

    s1, s2 = build(), build()
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1._priorities, s2._priorities)


def check_add_parts_equals_add_per_part(mode, prefix, parts, seed, capacity):
    """One ``add_parts`` pass leaves the state ``add`` per part leaves:
    n, the mean's bytes, max, batch count, the kept (priority, value)
    pairs and the priority stream's position."""

    def build():
        rng = np.random.default_rng(seed)
        acc = LatencyAccumulator(
            mode,
            rng=rng if mode == "streaming" else None,
            reservoir_size=capacity,
        )
        acc.add(prefix)
        return acc, rng

    (one, one_rng), (per, per_rng) = build(), build()
    one.add_parts(parts)
    for part in parts:
        per.add(part)
    assert (one.n, one.n_batches) == (per.n, per.n_batches)
    assert one.n_batches == 1 + len(parts)
    assert one_rng.bit_generator.state == per_rng.bit_generator.state
    if mode == "exact":
        assert [a.tobytes() for a in one._parts] == [
            a.tobytes() for a in per._parts
        ]
        return
    if one.n:
        assert np.float64(one.mean).tobytes() == np.float64(per.mean).tobytes()
        assert one.summary() == per.summary()

    def kept(acc):
        res = acc._reservoir
        return sorted(zip(res._priorities.tolist(), res.values.tolist()))

    assert kept(one) == kept(per)


def _bounds(rng_draw, n, k):
    """Sorted split points 0..n from k draws."""
    cuts = sorted(rng_draw(0, n) for _ in range(k))
    return [0] + cuts + [n]


# ----------------------------------------------------------------------
# engine 1: hypothesis
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    latencies = st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=300,
    )
    seeds = st.integers(min_value=0, max_value=2**31 - 1)

    class TestHypothesisProperties:
        @given(latencies, seeds, st.integers(min_value=1, max_value=6))
        @settings(max_examples=50, deadline=None)
        def test_exact_partition_invariant(self, values, seed, k):
            rng = np.random.default_rng(seed)
            bounds = sorted(
                [0, len(values)] + list(rng.integers(0, len(values) + 1, k))
            )
            check_exact_partition_invariant(values, bounds)

        @given(latencies, st.randoms(use_true_random=False))
        @settings(max_examples=50, deadline=None)
        def test_exact_permutation_invariant(self, values, rng):
            check_exact_permutation_invariant(values, rng.shuffle)

        @given(latencies, seeds, st.integers(min_value=1, max_value=6))
        @settings(max_examples=50, deadline=None)
        def test_reservoir_chunk_invariant(self, values, seed, k):
            rng = np.random.default_rng(seed ^ 0x9E3779B9)
            bounds = sorted(
                [0, len(values)] + list(rng.integers(0, len(values) + 1, k))
            )
            check_reservoir_chunk_invariant(values, seed, bounds)

        @given(latencies, seeds)
        @settings(max_examples=50, deadline=None)
        def test_merge_associative(self, values, seed):
            rng = np.random.default_rng(seed ^ 0x51F15EED)
            bounds = sorted(
                [0, len(values)] + list(rng.integers(0, len(values) + 1, 2))
            )
            check_merge_associative(values, seed, bounds)

        @given(
            st.sampled_from(["streaming", "exact"]),
            st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=100),
            st.lists(
                st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=120),
                max_size=12,
            ),
            seeds,
            st.integers(min_value=1, max_value=64),
        )
        @settings(max_examples=200, deadline=None)
        def test_add_parts_equals_add_per_part(
            self, mode, prefix, parts, seed, capacity
        ):
            check_add_parts_equals_add_per_part(
                mode, prefix, parts, seed, capacity
            )

        @given(latencies, seeds)
        @settings(max_examples=30, deadline=None)
        def test_reservoir_deterministic(self, values, seed):
            check_reservoir_deterministic(values, seed)


# ----------------------------------------------------------------------
# engine 2: stdlib-random fallback (always runs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(15))
class TestStdlibFallbackProperties:
    def _case(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 300)
        values = [rng.uniform(0.0, 1e3) for _ in range(n)]
        if n > 2:
            values[1] = values[0]  # ties
        return rng, values

    def test_exact_partition_invariant(self, seed):
        rng, values = self._case(seed)
        check_exact_partition_invariant(
            values, _bounds(rng.randint, len(values), rng.randint(1, 5))
        )

    def test_exact_permutation_invariant(self, seed):
        rng, values = self._case(seed)
        check_exact_permutation_invariant(values, rng.shuffle)

    def test_reservoir_chunk_invariant(self, seed):
        rng, values = self._case(seed)
        check_reservoir_chunk_invariant(
            values, seed, _bounds(rng.randint, len(values), rng.randint(1, 5))
        )

    def test_merge_associative(self, seed):
        rng, values = self._case(seed)
        check_merge_associative(
            values, seed, _bounds(rng.randint, len(values), 2)
        )

    def test_reservoir_deterministic(self, seed):
        _, values = self._case(seed)
        check_reservoir_deterministic(values, seed)

    def test_add_parts_equals_add_per_part(self, seed):
        rng, values = self._case(seed)
        cuts = _bounds(rng.randint, len(values), rng.randint(0, 9))
        parts = [values[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        for mode in ("streaming", "exact"):
            check_add_parts_equals_add_per_part(
                mode, values[: rng.randint(0, 40)], parts, seed,
                rng.randint(1, 64),
            )


# ----------------------------------------------------------------------
# misuse surfaces (all EstimatorError, never silent corruption)
# ----------------------------------------------------------------------
class TestMisuse:
    def test_unknown_mode_rejected(self):
        with pytest.raises(EstimatorError):
            LatencyAccumulator("approximate")

    def test_streaming_reservoir_needs_rng(self):
        with pytest.raises(EstimatorError):
            LatencyAccumulator("streaming")

    def test_mode_mismatch_merge_rejected(self):
        exact = LatencyAccumulator("exact")
        stream = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        with pytest.raises(EstimatorError):
            exact.merge(stream)

    def test_capacity_mismatch_merge_rejected(self):
        rng = np.random.default_rng(0)
        a = ReservoirSampler(8, rng)
        b = ReservoirSampler(16, rng)
        with pytest.raises(EstimatorError):
            a.merge(b)

    def test_empty_streaming_summary_rejected(self):
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        with pytest.raises(EstimatorError):
            acc.summary(label="empty interval")

    def test_empty_streaming_mean_rejected(self):
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        acc.add([])
        with pytest.raises(EstimatorError):
            acc.mean

    def test_negative_latency_rejected(self):
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        with pytest.raises(EstimatorError):
            acc.add([-0.5])

    def test_non_finite_latency_rejected(self):
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        with pytest.raises(EstimatorError):
            acc.add([np.nan])

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_bad_part_rejected_before_any_fold(self, bad):
        acc = LatencyAccumulator("streaming", rng=np.random.default_rng(0))
        with pytest.raises(EstimatorError):
            acc.add_parts([[1.0, 2.0], [], [3.0, bad], [4.0]])
        assert acc.n == 0
        with pytest.raises(EstimatorError):
            acc.summary()


# ----------------------------------------------------------------------
# the per-interval accumulator set
# ----------------------------------------------------------------------
class TestIntervalAccumulatorSet:
    def _make(self, seed, class_names=None):
        rngs = RngRegistry(seed)
        return IntervalAccumulatorSet.create(
            rng_for=lambda role: rngs.get(f"estimator-{role}"),
            class_names=class_names,
            reservoir_size=64,
        )

    def test_add_chunk_routes_all_three_families(self):
        s = self._make(0, class_names=("a", "b"))
        overall = np.array([1.0, 2.0, 3.0, 4.0])
        class_of = np.array([0, 1, 0, 1])
        s.add_chunk(
            overall,
            {"x": [np.array([0.1, 0.2])], "y": [np.array([0.3])]},
            class_of,
            ("a", "b"),
        )
        assert s.overall.n == 4
        assert s.component_pool.n == 3
        assert s.per_class["a"].n == 2 and s.per_class["b"].n == 2
        assert s.per_class["a"].summary().max == 3.0

    def test_merge_is_role_by_role(self):
        a, b = self._make(1), self._make(2)
        a.add_chunk(np.array([1.0]), {}, None, None)
        b.add_chunk(np.array([2.0, 3.0]), {}, None, None)
        a.merge(b)
        assert a.overall.n == 3
        assert a.overall.summary().max == 3.0

    def test_merge_per_class_into_classless_rejected(self):
        a, b = self._make(1), self._make(2, class_names=("a",))
        b.add_chunk(np.array([1.0]), {}, np.array([0]), ("a",))
        with pytest.raises(EstimatorError):
            a.merge(b)

    def test_reservoirs_use_distinct_named_streams(self):
        s = self._make(7, class_names=("a",))
        # Same observations into each role: the kept priorities differ
        # because each reservoir draws from its own named stream.
        xs = np.arange(200, dtype=np.float64)
        s.overall.add(xs)
        s.component_pool.add(xs)
        assert not np.array_equal(
            np.sort(s.overall._reservoir.values),
            np.sort(s.component_pool._reservoir.values),
        )
