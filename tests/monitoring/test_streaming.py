"""Property tests: streaming estimators vs exact NumPy computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MonitoringError
from repro.monitoring.streaming import P2Quantile


class TestP2Quantile:
    def test_exact_for_first_five(self):
        est = P2Quantile(0.5)
        for x in [5.0, 1.0, 3.0]:
            est.add(x)
        assert est.estimate == 3.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize(
        "dist",
        ["exponential", "lognormal", "uniform"],
    )
    def test_converges_on_large_streams(self, q, dist):
        rng = np.random.default_rng(hash((q, dist)) % 2**32)
        n = 50_000
        if dist == "exponential":
            xs = rng.exponential(1.0, n)
        elif dist == "lognormal":
            xs = rng.lognormal(0.0, 1.0, n)
        else:
            xs = rng.uniform(0.0, 10.0, n)
        est = P2Quantile(q)
        est.add_many(xs)
        exact = np.quantile(xs, q)
        assert est.estimate == pytest.approx(exact, rel=0.08)

    def test_p99_of_latency_like_stream(self):
        # The actual use: p99 of M/G/1 sojourn times.
        from repro.simcore.lindley import sojourn_times

        rng = np.random.default_rng(42)
        n = 100_000
        arrivals = np.cumsum(rng.exponential(0.01, n))
        services = rng.exponential(0.007, n)
        lat = sojourn_times(arrivals, services)
        est = P2Quantile(0.99)
        est.add_many(lat)
        assert est.estimate == pytest.approx(np.quantile(lat, 0.99), rel=0.1)

    @given(
        xs=st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_observed_range(self, xs):
        est = P2Quantile(0.9)
        est.add_many(xs)
        assert min(xs) - 1e-9 <= est.estimate <= max(xs) + 1e-9

    def test_constant_stream(self):
        est = P2Quantile(0.99)
        est.add_many([7.0] * 100)
        assert est.estimate == pytest.approx(7.0)

    def test_counts(self):
        est = P2Quantile(0.9)
        est.add_many(range(1, 20))
        assert est.n == 19

    def test_invalid_quantile_rejected(self):
        with pytest.raises(MonitoringError):
            P2Quantile(0.0)
        with pytest.raises(MonitoringError):
            P2Quantile(1.0)

    def test_empty_estimate_rejected(self):
        with pytest.raises(MonitoringError):
            P2Quantile(0.9).estimate

    def test_nonfinite_rejected(self):
        with pytest.raises(MonitoringError):
            P2Quantile(0.9).add(float("inf"))


class TestRollingGauge:
    def _gauge(self, horizon=3):
        from repro.monitoring.streaming import RollingGauge

        return RollingGauge(horizon=horizon)

    def test_empty_gauge(self):
        g = self._gauge()
        assert g.windows == 0
        assert g.last is None
        assert g.rolling() is None

    def test_last_and_rolling(self):
        g = self._gauge(horizon=3)
        g.observe_window(p99=0.030, mean=0.010, n=100)
        g.observe_window(p99=0.050, mean=0.020, n=300)
        assert g.last == {"p99": 0.050, "mean": 0.020, "n": 300.0}
        rolling = g.rolling()
        assert rolling["p99"] == 0.050
        # Request-weighted: (0.010*100 + 0.020*300) / 400.
        assert rolling["mean"] == pytest.approx(0.0175)
        assert rolling["windows"] == 2.0

    def test_horizon_rolls_off_but_counters_persist(self):
        g = self._gauge(horizon=2)
        g.observe_window(p99=9.0, mean=9.0, n=10)
        for _ in range(2):
            g.observe_window(p99=0.01, mean=0.01, n=10)
        # The spike rolled out of the horizon...
        assert g.rolling()["p99"] == 0.01
        assert g.rolling()["windows"] == 2.0
        # ...but the window count still saw it.
        assert g.windows == 3

    def test_validation(self):
        from repro.monitoring.streaming import RollingGauge

        with pytest.raises(MonitoringError):
            RollingGauge(horizon=0)
        g = self._gauge()
        with pytest.raises(MonitoringError):
            g.observe_window(p99=0.1, mean=0.1, n=0)
        with pytest.raises(MonitoringError):
            g.observe_window(p99=float("nan"), mean=0.1, n=5)
