"""Tests for latency metrics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.metrics import (
    LatencySummary,
    percentile,
    percentiles,
    pool,
    summarize,
)


class TestPercentile:
    def test_nearest_rank_is_observed_value(self):
        rng = np.random.default_rng(0)
        xs = rng.exponential(1.0, 1000)
        p99 = percentile(xs, 99)
        assert p99 in xs

    def test_p0_p100(self):
        xs = [3.0, 1.0, 2.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 99)

    def test_bad_q_rejected(self):
        with pytest.raises(SimulationError):
            percentile([1.0], 150)


class TestPercentiles:
    """``percentiles`` reads several q from one partition; each value
    must be the one a lone ``percentile`` call (and NumPy's scalar
    nearest-rank call) gives, ties included."""

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 1001])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_one_call_per_q_on_tied_samples(self, size, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values, so most ranks fall inside runs of ties.
        xs = np.round(rng.lognormal(0.0, 1.0, size), 1)
        qs = (50, 95, 99)
        got = np.array(percentiles(xs, qs))
        one_by_one = np.array([percentile(xs, q) for q in qs])
        scalar_numpy = np.array(
            [np.percentile(xs, q, method="higher") for q in qs]
        )
        assert got.tobytes() == one_by_one.tobytes() == scalar_numpy.tobytes()
        s = summarize(xs)
        assert np.array([s.p50, s.p95, s.p99]).tobytes() == got.tobytes()

    def test_empty_sample_rejected_with_context(self):
        with pytest.raises(SimulationError, match=r"empty sample \(pool\)"):
            percentiles([], (50, 95, 99), label="pool")

    @pytest.mark.parametrize("q", [-0.1, 100.1, float("nan")])
    def test_out_of_range_q_rejected(self, q):
        with pytest.raises(SimulationError, match="q must be in"):
            percentiles([1.0, 2.0], (50, q))


class TestSummarize:
    def test_fields(self):
        xs = np.arange(1, 101, dtype=float)
        s = summarize(xs)
        assert s.n == 100
        assert s.mean == pytest.approx(50.5)
        assert s.p50 == pytest.approx(51.0)
        assert s.p99 == pytest.approx(100.0)
        assert s.max == 100.0

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(1)
        s = summarize(rng.lognormal(0, 1, 5000))
        assert s.p50 <= s.p95 <= s.p99 <= s.max

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            summarize([-1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            summarize([])

    def test_render_contains_stats(self):
        s = summarize([0.010, 0.020])
        out = s.render("basic")
        assert "basic" in out and "p99" in out and "ms" in out


class TestPool:
    def test_pool_mapping(self):
        pooled = pool({"a": np.array([1.0]), "b": np.array([2.0, 3.0])})
        assert sorted(pooled) == [1.0, 2.0, 3.0]

    def test_pool_skips_empty(self):
        pooled = pool({"a": np.array([]), "b": np.array([5.0])})
        assert list(pooled) == [5.0]

    def test_pool_iterable(self):
        assert pool([np.array([1.0]), np.array([2.0])]).size == 2

    def test_all_empty_rejected(self):
        with pytest.raises(SimulationError):
            pool({"a": np.array([])})


class TestDiagnosableErrors:
    """Empty-sample failures must name the offending context, not fail
    with a bare "nothing to pool"."""

    def test_pool_all_empty_names_components(self):
        with pytest.raises(SimulationError) as exc:
            pool(
                {"searching-3": np.array([]), "aggregate-0": np.array([])},
                label="interval 4",
            )
        msg = str(exc.value)
        assert "interval 4" in msg
        assert "searching-3" in msg and "aggregate-0" in msg
        assert "all 2 samples are empty" in msg

    def test_pool_all_empty_truncates_long_component_lists(self):
        samples = {f"comp-{i}": np.array([]) for i in range(20)}
        with pytest.raises(SimulationError) as exc:
            pool(samples)
        msg = str(exc.value)
        assert "all 20 samples are empty" in msg
        assert "..." in msg and "comp-19" not in msg

    def test_pool_iterable_all_empty_names_positions(self):
        with pytest.raises(SimulationError) as exc:
            pool([np.array([]), np.array([])], label="overall latencies")
        msg = str(exc.value)
        assert "overall latencies" in msg and "[0]" in msg

    def test_pool_no_samples_at_all(self):
        with pytest.raises(SimulationError) as exc:
            pool({}, label="interval 0")
        assert "no samples given" in str(exc.value)
        assert "interval 0" in str(exc.value)

    def test_percentile_empty_names_context(self):
        with pytest.raises(SimulationError) as exc:
            percentile([], 99, label="interval 7 pooled component latencies")
        assert "interval 7" in str(exc.value)

    def test_summarize_empty_names_context(self):
        with pytest.raises(SimulationError) as exc:
            summarize([], label="Basic @ 50 req/s overall latencies")
        assert "Basic @ 50 req/s" in str(exc.value)

    def test_unlabelled_errors_still_clean(self):
        with pytest.raises(SimulationError) as exc:
            percentile([], 99)
        assert "(" not in str(exc.value)


class TestLatencySummaryRoundtrip:
    def test_to_from_dict_exact(self):
        s = summarize(np.random.default_rng(3).lognormal(0, 1, 500))
        assert LatencySummary.from_dict(s.to_dict()) == s

    def test_json_roundtrip_exact(self):
        import json

        s = summarize([0.1, 0.25, 1.0 / 3.0])
        assert LatencySummary.from_dict(json.loads(json.dumps(s.to_dict()))) == s
