"""Tests for the Eq. 2 M/G/1 latency model, cross-validated against the
Lindley sample-path simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnstableQueueError
from repro.model.queueing import (
    hedged_latency,
    mg1_latency,
    mg1_latency_array,
    mg1_latency_unchecked,
    mg1_waiting_time,
    mm1_latency,
    quickest_of_k_latency,
    reissue_latency,
    utilisation,
)
from repro.simcore.distributions import Deterministic, Exponential, LogNormal
from repro.simcore.lindley import sojourn_times


class TestClosedForms:
    def test_mm1_equals_mg1_with_unit_scv(self):
        # Paper: "when ... C^2_x = 1, the M/G/1 queueing system equals
        # the M/M/1 queueing system and the expected latency l = 1/(mu-lambda)".
        x, lam = 0.008, 50.0
        assert mg1_latency(x, 1.0, lam) == pytest.approx(mm1_latency(x, lam))
        assert mm1_latency(x, lam) == pytest.approx(1.0 / (1.0 / x - lam))

    def test_md1_half_the_mm1_wait(self):
        # Deterministic service: wait is half the exponential case.
        x, lam = 0.005, 100.0
        assert mg1_waiting_time(x, 0.0, lam) == pytest.approx(
            mg1_waiting_time(x, 1.0, lam) / 2
        )

    def test_zero_arrivals_latency_is_service_time(self):
        assert mg1_latency(0.01, 1.0, 0.0) == pytest.approx(0.01)

    def test_utilisation(self):
        assert utilisation(0.01, 50.0) == pytest.approx(0.5)

    @given(
        x=st.floats(min_value=1e-4, max_value=0.1),
        scv=st.floats(min_value=0.0, max_value=5.0),
        rho=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_increasing_in_load(self, x, scv, rho):
        lam = rho / x
        l1 = mg1_latency(x, scv, lam)
        l2 = mg1_latency(x, scv, lam * 0.5)
        assert l1 >= l2 - 1e-12

    def test_unstable_queue_rejected(self):
        with pytest.raises(UnstableQueueError):
            mg1_latency(0.01, 1.0, 100.0)  # rho = 1
        with pytest.raises(UnstableQueueError):
            mm1_latency(0.01, 120.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(UnstableQueueError):
            mg1_latency(0.0, 1.0, 10.0)
        with pytest.raises(UnstableQueueError):
            mg1_latency(0.01, -0.5, 10.0)
        with pytest.raises(UnstableQueueError):
            mg1_latency(0.01, 1.0, -10.0)


class TestAgainstSamplePath:
    """Eq. 2 must match the Lindley simulator — the core consistency
    check between the analytic predictor and the simulated world."""

    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(0.006),
            Deterministic(0.006),
            LogNormal(0.006, 0.8),
            LogNormal(0.006, 2.0),
        ],
        ids=["M/M/1", "M/D/1", "lognormal-0.8", "lognormal-2.0"],
    )
    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_mean_sojourn_matches(self, dist, rho):
        rng = np.random.default_rng(123)
        lam = rho / dist.mean
        n = 400_000
        arrivals = np.cumsum(rng.exponential(1.0 / lam, n))
        services = dist.sample(rng, n)
        measured = sojourn_times(arrivals, services).mean()
        predicted = mg1_latency(dist.mean, dist.scv, lam)
        assert measured == pytest.approx(predicted, rel=0.04)


class TestArrayForm:
    def test_matches_scalar_below_cap(self):
        x = np.array([0.005, 0.01, 0.02])
        scv = np.array([0.5, 1.0, 2.0])
        lam = np.array([10.0, 30.0, 20.0])
        out = mg1_latency_array(x, scv, lam)
        for i in range(3):
            assert out[i] == pytest.approx(mg1_latency(x[i], scv[i], lam[i]))

    def test_saturated_entries_finite_and_worst(self):
        x = 0.01
        out = mg1_latency_array(x, 1.0, np.array([50.0, 99.0, 150.0, 500.0]))
        assert np.all(np.isfinite(out))
        # Monotone non-decreasing in lambda, flat at the cap.
        assert out[0] < out[1] <= out[2] == out[3]

    def test_broadcasting(self):
        out = mg1_latency_array(0.01, 1.0, np.array([[10.0], [20.0]]))
        assert out.shape == (2, 1)

    def test_cap_validation(self):
        with pytest.raises(UnstableQueueError):
            mg1_latency_array(0.01, 1.0, 10.0, rho_max=1.5)

    def test_bad_values_rejected(self):
        with pytest.raises(UnstableQueueError):
            mg1_latency_array(-0.01, 1.0, 10.0)
        with pytest.raises(UnstableQueueError):
            mg1_latency_array(0.01, -1.0, 10.0)
        with pytest.raises(UnstableQueueError):
            mg1_latency_array(0.01, 1.0, -10.0)

    def test_rho_cap_monotone_ranking_preserved(self):
        # A saturated placement must rank strictly worse than any
        # non-saturated one with the same service shape.
        stable = mg1_latency_array(0.01, 1.0, 80.0)
        saturated = mg1_latency_array(0.01, 1.0, 120.0)
        assert saturated > stable

    def test_scalar_inputs_give_a_scalar(self):
        out = mg1_latency_array(0.01, 1.0, 80.0)
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_in_place_evaluation_is_the_textbook_order(self, per_row):
        """The unchecked Eq. 2 (the matrix kernel's, scaled in place) and
        mg1_latency_array equal the plain expression bit for bit, with
        a scalar or a per-row SCV and with servers above the cap."""
        rng = np.random.default_rng(3)
        x = rng.uniform(1e-3, 2e-2, (64, 9))
        lam = rng.uniform(0.0, 120.0, (64, 1))
        assert np.any(lam * x > 0.98)
        scv = rng.uniform(0.0, 3.0, (64, 1)) if per_row else 0.7
        rho = np.minimum(lam * x, 0.98)
        want = x + (rho / x) * (1.0 + scv) * x * x / (2.0 * (1.0 - rho))
        np.testing.assert_array_equal(mg1_latency_array(x, scv, lam), want)
        np.testing.assert_array_equal(
            mg1_latency_unchecked(x, scv, lam, 0.98), want
        )


class TestBenefitTransforms:
    """The §VI-C closed forms: exact for exponential sojourns, checked
    against Monte Carlo on the exact cases and on their limits."""

    def test_quickest_of_k_is_w_over_k(self):
        assert quickest_of_k_latency(0.030, 3) == pytest.approx(0.010)
        assert quickest_of_k_latency(0.030, 1) == pytest.approx(0.030)
        with pytest.raises(UnstableQueueError):
            quickest_of_k_latency(0.030, 0)

    def test_quickest_of_k_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        w, k = 0.020, 4
        sims = rng.exponential(w, size=(200_000, k)).min(axis=1).mean()
        assert quickest_of_k_latency(w, k) == pytest.approx(sims, rel=0.02)

    def test_reissue_factor_is_threshold_free(self):
        # E[L] = W(1+q)/2 whatever the threshold: the T terms cancel.
        w = 0.040
        assert reissue_latency(w, 0.90) == pytest.approx(w * 0.95)
        assert reissue_latency(w, 0.99) == pytest.approx(w * 0.995)
        with pytest.raises(UnstableQueueError):
            reissue_latency(w, 1.0)
        with pytest.raises(UnstableQueueError):
            reissue_latency(w, 0.0)

    def test_reissue_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        w, q = 0.025, 0.9
        n = 200_000
        primary = rng.exponential(w, n)
        threshold = -w * np.log(1.0 - q)  # exact q-quantile of Exp(1/W)
        backup = threshold + rng.exponential(w, n)
        # Memorylessness: past T the original's residual is a fresh
        # Exp(W); the finish is the min of the two copies.
        finished = np.where(
            primary <= threshold, primary, np.minimum(primary, backup)
        )
        assert reissue_latency(w, q) == pytest.approx(
            finished.mean(), rel=0.02
        )

    def test_hedged_limits(self):
        w = 0.030
        # T -> 0: hedge immediately == RED-2, factor 1/2.
        assert hedged_latency(w, 0.0) == pytest.approx(w / 2)
        # T -> inf: never hedge, factor 1.
        assert hedged_latency(w, 10.0) == pytest.approx(w)
        # Monotone increasing in the delay between the limits.
        delays = np.array([0.001, 0.010, 0.050, 0.200])
        vals = np.array([float(hedged_latency(w, t)) for t in delays])
        assert np.all(np.diff(vals) > 0)
        with pytest.raises(UnstableQueueError):
            hedged_latency(w, -0.001)

    def test_hedged_matches_monte_carlo(self):
        rng = np.random.default_rng(13)
        w, t = 0.020, 0.015
        n = 200_000
        primary = rng.exponential(w, n)
        backup = t + rng.exponential(w, n)
        finished = np.where(primary <= t, primary, np.minimum(primary, backup))
        assert hedged_latency(w, t) == pytest.approx(finished.mean(), rel=0.02)

    def test_transforms_vectorise(self):
        w = np.array([0.010, 0.020, 0.040])
        assert quickest_of_k_latency(w, 2).shape == (3,)
        assert reissue_latency(w, 0.9).shape == (3,)
        assert hedged_latency(w, 0.01).shape == (3,)
