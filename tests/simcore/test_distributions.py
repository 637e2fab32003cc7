"""Unit + property tests for service-time distributions.

Each distribution's analytic moments are checked against large-sample
Monte-Carlo estimates, and the scaling algebra (used by the interference
model) is property-tested.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simcore.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    Pareto,
)

N_SAMPLES = 200_000


def _check_moments(dist, rng, rel_tol=0.05):
    xs = dist.sample(rng, N_SAMPLES)
    assert xs.shape == (N_SAMPLES,)
    assert np.all(xs >= 0)
    assert dist.mean == pytest.approx(float(xs.mean()), rel=rel_tol)
    if dist.var > 0:
        assert dist.var == pytest.approx(float(xs.var()), rel=3 * rel_tol)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


ALL_DISTS = [
    Deterministic(0.01),
    Exponential(0.02),
    LogNormal(0.02, 0.5),
    Pareto(0.01, 3.0),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_analytic_moments_match_samples(dist, rng):
    _check_moments(dist, rng)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_scalar_sample(dist, rng):
    x = dist.sample(rng)
    assert np.isscalar(x) or np.ndim(x) == 0
    assert float(x) >= 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_scv_definition(dist):
    if dist.mean > 0:
        assert dist.scv == pytest.approx(dist.var / dist.mean**2)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_scaled_analytic_moments_match_samples(dist, rng):
    _check_moments(dist.scaled(2.5), rng)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_scaling_keeps_scv(dist):
    assert dist.scaled(2.5).scv == pytest.approx(dist.scv)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_same_seed_same_samples(dist):
    a = dist.sample(np.random.default_rng(7), 100)
    b = dist.sample(np.random.default_rng(7), 100)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_equal_parameters_are_equal_hashable_values(dist):
    # Distributions hold no RNG state, so two with the same parameters
    # are interchangeable (and usable as dict keys).
    twin = dataclasses.replace(dist)
    assert twin == dist and hash(twin) == hash(dist)
    assert {dist: 1}[twin] == 1


class TestSpecificShapes:
    def test_deterministic_has_zero_scv(self):
        assert Deterministic(0.5).scv == 0.0

    def test_exponential_has_unit_scv(self):
        assert Exponential(0.123).scv == pytest.approx(1.0)

    def test_exponential_rate(self):
        assert Exponential(0.02).rate == pytest.approx(50.0)

    def test_lognormal_moments_exact_by_construction(self):
        d = LogNormal(0.05, 0.7)
        assert d.mean == pytest.approx(0.05)
        assert d.scv == pytest.approx(0.7)

    def test_pareto_minimum(self, rng):
        d = Pareto(0.02, 3.5)
        xs = d.sample(rng, 1000)
        assert np.all(xs >= 0.02)

    def test_lognormal_median_below_mean(self, rng):
        # The median of a log-normal is exp(mu) = mean / sqrt(1 + scv).
        d = LogNormal(0.05, 0.7)
        xs = d.sample(rng, N_SAMPLES)
        assert float(np.median(xs)) == pytest.approx(
            0.05 / np.sqrt(1.7), rel=0.01
        )

    def test_pareto_heavier_shape_means_lower_scv(self):
        assert Pareto(1.0, 5.0).scv < Pareto(1.0, 3.0).scv


class TestValidation:
    def test_deterministic_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Deterministic(-1.0)

    def test_exponential_nonpositive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(0.0)

    def test_pareto_infinite_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            Pareto(1.0, 2.0)

    def test_pareto_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="xm"):
            Pareto(0.0, 3.0)

    @pytest.mark.parametrize(
        "mean, scv", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)]
    )
    def test_lognormal_nonpositive_parameters_rejected(self, mean, scv):
        with pytest.raises(ConfigurationError):
            LogNormal(mean, scv)

    def test_scv_of_zero_mean_undefined(self):
        with pytest.raises(ConfigurationError, match="scv undefined"):
            Deterministic(0.0).scv


class TestScaling:
    @given(
        factor=st.floats(min_value=0.01, max_value=100.0),
        mean=st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaled_moments(self, factor, mean):
        d = Exponential(mean).scaled(factor)
        assert d.mean == pytest.approx(factor * mean, rel=1e-9)
        assert d.var == pytest.approx((factor * mean) ** 2, rel=1e-9)
        assert d.scv == pytest.approx(1.0, rel=1e-9)

    def test_scale_by_one_returns_self(self):
        d = Exponential(1.0)
        assert d.scaled(1.0) is d

    def test_nested_scaling_collapses(self):
        d = Exponential(1.0).scaled(2.0).scaled(3.0)
        assert d.factor == pytest.approx(6.0)
        assert isinstance(d.base, Exponential)

    def test_scaling_to_a_target_mean_keeps_scv(self):
        base = LogNormal(0.02, 0.5)
        d = base.scaled(0.08 / base.mean)
        assert d.mean == pytest.approx(0.08)
        assert d.scv == pytest.approx(0.5)

    def test_scaled_samples_match_factor(self, rng):
        base = Deterministic(2.0)
        assert float(base.scaled(3.0).sample(rng)) == pytest.approx(6.0)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(1.0).scaled(0.0)

    def test_nonpositive_factor_on_scaled_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(1.0).scaled(2.0).scaled(-1.0)
