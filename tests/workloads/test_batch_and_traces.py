"""Tests for batch jobs and arrival-rate trace profiles."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import gb, mb
from repro.workloads.batch import BatchJob, BatchJobSpec


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


class TestCyclicArrivalMultiplier:
    """`arrival_rate_multiplier`: the live stream's cyclic replay."""

    PROFILES = ["stationary", "diurnal", "burst", "flash-crowd"]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_first_cycle_matches_the_bounded_run(self, profile):
        from repro.workloads.traces import (
            arrival_rate_multiplier,
            arrival_rate_multipliers,
        )

        bounded = arrival_rate_multipliers(profile, 12)
        live = [arrival_rate_multiplier(profile, i, 12) for i in range(12)]
        assert live == bounded.tolist()

    @pytest.mark.parametrize("profile", PROFILES)
    def test_later_cycles_repeat_the_first(self, profile):
        from repro.workloads.traces import arrival_rate_multiplier

        first = [arrival_rate_multiplier(profile, i, 7) for i in range(7)]
        third = [arrival_rate_multiplier(profile, i, 7) for i in range(14, 21)]
        assert third == first

    def test_bad_cycle_rejected(self):
        from repro.workloads.traces import arrival_rate_multiplier

        with pytest.raises(WorkloadError, match="cycle"):
            arrival_rate_multiplier("burst", 0, 0)

    def test_negative_interval_rejected(self):
        from repro.workloads.traces import arrival_rate_multiplier

        with pytest.raises(WorkloadError, match="interval"):
            arrival_rate_multiplier("burst", -1, 12)

    def test_unknown_profile_rejected(self):
        from repro.workloads.traces import arrival_rate_multiplier

        with pytest.raises(WorkloadError, match="unknown arrival profile"):
            arrival_rate_multiplier("full-moon", 0, 12)

    def test_non_positive_profile_output_rejected(self):
        from repro.workloads.traces import (
            _ARRIVAL_PROFILES,
            arrival_rate_multiplier,
        )

        _ARRIVAL_PROFILES["cyclic-test-zero"] = lambda i, n: 0.0
        try:
            with pytest.raises(WorkloadError, match="non-positive"):
                arrival_rate_multiplier("cyclic-test-zero", 3, 2)
        finally:
            del _ARRIVAL_PROFILES["cyclic-test-zero"]
