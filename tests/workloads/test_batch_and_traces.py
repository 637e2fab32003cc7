"""Tests for batch jobs and synthetic traces."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import gb, mb, minutes
from repro.workloads.batch import BatchJob, BatchJobSpec
from repro.workloads.traces import (
    GOOGLE_DURATION_SIGMA,
    GOOGLE_MEDIAN_DURATION_S,
    JobRecord,
    SyntheticTraceConfig,
    generate_trace,
    trace_stats,
)


class TestBatchJobSpec:
    def test_of_builds_from_registry_name(self):
        spec = BatchJobSpec.of("spark.sort", gb(1))
        assert spec.profile.name == "spark.sort"

    def test_demand_matches_profile(self):
        spec = BatchJobSpec.of("hadoop.bayes", gb(2))
        assert spec.demand == spec.profile.demand(gb(2))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(WorkloadError):
            BatchJobSpec.of("spark.sort", 0.0)


class TestBatchJob:
    def _job(self, arrival=10.0, duration=60.0):
        return BatchJob(
            spec=BatchJobSpec.of("spark.sort", mb(500)),
            arrival_time=arrival,
            duration=duration,
        )

    def test_departure_time(self):
        assert self._job(10.0, 60.0).departure_time == 70.0

    def test_active_at_window(self):
        job = self._job(10.0, 60.0)
        assert not job.active_at(9.9)
        assert job.active_at(10.0)
        assert job.active_at(69.9)
        assert not job.active_at(70.0)

    def test_demand_cached_and_constant(self):
        job = self._job()
        assert job.demand is job.demand  # same object, computed once

    def test_auto_names_unique(self):
        names = {self._job().name for _ in range(10)}
        assert len(names) == 10

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(WorkloadError):
            self._job(duration=0.0)


class TestJobRecord:
    def test_is_small_threshold_1gb(self):
        small = JobRecord("spark.sort", gb(1) - 1, 0.0, 10.0)
        large = JobRecord("spark.sort", gb(1), 0.0, 10.0)
        assert small.is_small and not large.is_small

    def test_invalid_record_rejected(self):
        with pytest.raises(WorkloadError):
            JobRecord("spark.sort", mb(1), -1.0, 10.0)


class TestTraceCalibration:
    """The trace must reproduce the Google marginals quoted in §I."""

    @pytest.fixture(scope="class")
    def trace(self):
        cfg = SyntheticTraceConfig(horizon_s=20_000.0, jobs_per_s=0.5)
        return generate_trace(cfg, np.random.default_rng(42))

    def test_sigma_calibration_closed_form(self):
        # P(duration <= 3h) = 0.94 pins sigma.
        from repro.stats import norm_cdf

        z = np.log(minutes(180) / GOOGLE_MEDIAN_DURATION_S) / GOOGLE_DURATION_SIGMA
        assert norm_cdf(z) == pytest.approx(0.94, abs=1e-9)

    def test_sigma_pinned_to_six_decimals(self):
        # Regression pin: the self-contained Φ⁻¹ must keep reproducing
        # the SciPy-era constant sigma = ln(18) / z_{0.94}.
        assert round(GOOGLE_DURATION_SIGMA, 6) == 1.859031

    def test_half_complete_within_10min(self, trace):
        stats = trace_stats(trace)
        assert stats.frac_le_10min == pytest.approx(0.50, abs=0.03)

    def test_94pct_within_3h(self, trace):
        stats = trace_stats(trace)
        assert stats.frac_le_3h == pytest.approx(0.94, abs=0.02)

    def test_over_90pct_small_jobs(self, trace):
        stats = trace_stats(trace)
        assert stats.frac_small == pytest.approx(0.90, abs=0.02)

    def test_arrivals_sorted_within_horizon(self, trace):
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)
        assert all(0 <= t <= 20_000.0 for t in times)

    def test_poisson_count(self, trace):
        # ~10k expected arrivals; 5 sigma tolerance.
        assert len(trace) == pytest.approx(10_000, abs=500)

    def test_render_mentions_marginals(self, trace):
        out = trace_stats(trace).render()
        assert "small" in out and "<=10min" in out

    def test_profile_duration_mode(self):
        cfg = SyntheticTraceConfig(
            horizon_s=2_000.0, jobs_per_s=0.1, duration_mode="profile"
        )
        trace = generate_trace(cfg, np.random.default_rng(0))
        stats = trace_stats(trace)
        # Profile jobs are seconds-to-minutes, far below the Google median.
        assert stats.mean_duration_s < GOOGLE_MEDIAN_DURATION_S

    def test_mix_restricts_profiles(self):
        cfg = SyntheticTraceConfig(
            horizon_s=2_000.0, jobs_per_s=0.1, mix={"spark.sort": 1.0}
        )
        trace = generate_trace(cfg, np.random.default_rng(0))
        assert {r.profile_name for r in trace} == {"spark.sort"}

    def test_empty_trace_stats_rejected(self):
        with pytest.raises(WorkloadError):
            trace_stats([])

    def test_unknown_mix_profile_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticTraceConfig(mix={"nope": 1.0})

    def test_invalid_duration_mode_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticTraceConfig(duration_mode="uniform")


class TestArrivalProfiles:
    """Trace-driven arrival-rate multipliers (`--trace-profile`)."""

    def _mult(self, profile, n=12):
        from repro.workloads.traces import arrival_rate_multipliers

        return arrival_rate_multipliers(profile, n)

    def test_builtin_names_registered(self):
        from repro.workloads.traces import arrival_profile_names

        assert {"stationary", "diurnal", "burst", "flash-crowd"} <= set(
            arrival_profile_names()
        )

    def test_stationary_is_exactly_one(self):
        """The contract golden pins rest on: stationary multiplies the
        configured rate by exactly 1.0, bit-identical to no profile."""
        assert (self._mult("stationary") == 1.0).all()

    def test_burst_is_a_middle_plateau(self):
        m = self._mult("burst", 12)
        np.testing.assert_array_equal(m[:4], 1.0)
        np.testing.assert_array_equal(m[4:8], 2.0)
        np.testing.assert_array_equal(m[8:], 1.0)

    def test_diurnal_swings_around_one(self):
        m = self._mult("diurnal", 24)
        assert m.min() < 0.7 and m.max() > 1.3
        assert np.mean(m) == pytest.approx(1.0, abs=1e-9)

    def test_flash_crowd_onsets_then_decays(self):
        m = self._mult("flash-crowd", 20)
        onset = 8  # 40 % of the run
        np.testing.assert_array_equal(m[:onset], 1.0)
        assert m[onset] == pytest.approx(3.0)
        assert (np.diff(m[onset:]) < 0).all()
        assert m[-1] > 1.0  # long cool-down tail never undershoots

    def test_all_profiles_positive_and_deterministic(self):
        from repro.workloads.traces import arrival_profile_names

        for name in arrival_profile_names():
            a, b = self._mult(name, 9), self._mult(name, 9)
            np.testing.assert_array_equal(a, b)
            assert (a > 0).all() and np.isfinite(a).all()

    def test_unknown_profile_and_bad_intervals_rejected(self):
        with pytest.raises(WorkloadError, match="unknown arrival profile"):
            self._mult("full-moon")
        with pytest.raises(WorkloadError, match="n_intervals"):
            self._mult("stationary", 0)

    def test_non_positive_profile_output_rejected(self):
        from repro.workloads.traces import (
            _ARRIVAL_PROFILES,
            arrival_rate_multipliers,
        )

        _ARRIVAL_PROFILES["cli-test-zero"] = lambda i, n: 0.0
        try:
            with pytest.raises(WorkloadError, match="non-positive"):
                arrival_rate_multipliers("cli-test-zero", 2)
        finally:
            del _ARRIVAL_PROFILES["cli-test-zero"]
