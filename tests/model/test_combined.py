"""Tests for the Eq. 1 combined service-time model."""

import numpy as np
import pytest

from repro.cluster.resources import RESOURCE_KINDS, ResourceKind, ResourceVector
from repro.errors import ModelError, NotFittedError
from repro.model.combined import CombinedServiceTimeModel


def _synthetic_samples(rng, n=500, noise=0.0):
    """Contention driven by a latent 'job intensity': all four resources
    move together, as when profiling against one co-located job."""
    intensity = rng.uniform(0, 1, n)
    u = np.empty((n, 4))
    u[:, 0] = 0.9 * intensity  # core
    u[:, 1] = 30.0 * intensity  # cache MPKI
    u[:, 2] = 200.0 * intensity  # disk MB/s
    u[:, 3] = 80.0 * intensity  # net MB/s
    x = 0.006 * (1 + 0.8 * intensity + 0.3 * intensity**2)
    if noise:
        x = x * (1 + noise * rng.standard_normal(n))
    return u, x


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFit:
    def test_learns_correlated_contention(self, rng):
        u, x = _synthetic_samples(rng)
        model = CombinedServiceTimeModel().fit(u, x)
        pred = model.predict(u)
        rel_err = np.abs(pred - x) / x
        assert rel_err.max() < 0.01

    def test_noisy_fit_small_mape(self, rng):
        u, x = _synthetic_samples(rng, n=2000, noise=0.02)
        model = CombinedServiceTimeModel().fit(u, x)
        grid_u, grid_x = _synthetic_samples(np.random.default_rng(7), n=200)
        pred = model.predict(grid_u)
        assert np.mean(np.abs(pred - grid_x) / grid_x) < 0.02

    def test_weights_follow_relevance(self, rng):
        # Only core contention matters; other columns are noise.
        n = 1000
        u = rng.uniform(0, 1, (n, 4))
        x = 0.005 * (1 + u[:, 0])
        model = CombinedServiceTimeModel().fit(u, x)
        w = model.normalised_weights()
        assert w[ResourceKind.CORE] > 0.5
        for kind in RESOURCE_KINDS[1:]:
            assert w[kind] < w[ResourceKind.CORE]

    def test_equation1_weighted_average_identity(self, rng):
        u, x = _synthetic_samples(rng, n=300)
        model = CombinedServiceTimeModel().fit(u, x)
        manual = np.zeros(u.shape[0])
        for kind in RESOURCE_KINDS:
            manual += model.weights[kind] * model.regressors[kind].predict(
                u[:, kind.index]
            )
        manual /= sum(model.weights.values())
        assert (
            model.predict(u).tobytes() == np.maximum(manual, 1e-9).tobytes()
        )

    def test_constant_contention_falls_back_to_equal_weights(self):
        u = np.tile([0.5, 10.0, 50.0, 20.0], (20, 1))
        x = np.full(20, 0.006)
        model = CombinedServiceTimeModel().fit(u, x)
        w = model.normalised_weights()
        for kind in RESOURCE_KINDS:
            assert w[kind] == pytest.approx(0.25)
        assert model.predict_one(
            ResourceVector(0.5, 10.0, 50.0, 20.0)
        ) == pytest.approx(0.006, rel=1e-6)

    def test_predictions_floored_positive(self, rng):
        # Wildly extrapolating inputs must not return negative times.
        u, x = _synthetic_samples(rng)
        model = CombinedServiceTimeModel().fit(u, x)
        extreme = np.array([[50.0, 5000.0, 1e5, 1e5]])
        assert model.predict(extreme)[0] > 0


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            CombinedServiceTimeModel().predict(np.zeros((1, 4)))

    def test_bad_shapes_rejected(self, rng):
        model = CombinedServiceTimeModel()
        with pytest.raises(ModelError):
            model.fit(np.zeros((10, 3)), np.ones(10))
        with pytest.raises(ModelError):
            model.fit(np.zeros((10, 4)), np.ones(9))

    def test_nonpositive_service_times_rejected(self):
        with pytest.raises(ModelError):
            CombinedServiceTimeModel().fit(np.random.rand(10, 4), np.zeros(10))

    def test_predict_bad_shape_rejected(self, rng):
        u, x = _synthetic_samples(rng, n=50)
        model = CombinedServiceTimeModel().fit(u, x)
        with pytest.raises(ModelError):
            model.predict(np.zeros((5, 3)))

    def test_normalised_weights_before_fit(self):
        with pytest.raises(NotFittedError):
            CombinedServiceTimeModel().normalised_weights()
