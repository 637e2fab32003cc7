"""Tests for the ground-truth interference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeCapacity
from repro.cluster.resources import ResourceVector
from repro.errors import ConfigurationError
from repro.interference.ground_truth import (
    InterferenceCoefficients,
    InterferenceModel,
    default_interference_model,
)
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import LogNormal
from repro.units import ms

contention_vectors = st.builds(
    ResourceVector,
    core=st.floats(min_value=0.0, max_value=1.5),
    cache_mpki=st.floats(min_value=0.0, max_value=100.0),
    disk_bw=st.floats(min_value=0.0, max_value=400.0),
    net_bw=st.floats(min_value=0.0, max_value=200.0),
)


@pytest.fixture
def model():
    return default_interference_model(noise_sigma=0.0)


class TestInflation:
    def test_idle_node_no_inflation(self, model):
        assert model.inflation(
            ComponentClass.SEARCHING, ResourceVector.zero()
        ) == pytest.approx(1.0)

    @given(u=contention_vectors)
    @settings(max_examples=100, deadline=None)
    def test_inflation_at_least_one(self, u):
        model = default_interference_model(noise_sigma=0.0)
        assert model.inflation(ComponentClass.SEARCHING, u) >= 1.0

    @given(u=contention_vectors)
    @settings(max_examples=50, deadline=None)
    def test_inflation_bounded_by_max(self, u):
        model = default_interference_model(noise_sigma=0.0)
        for cls in ComponentClass:
            assert model.inflation(cls, u) <= model.max_inflation(cls) + 1e-9

    def test_monotone_in_each_resource(self, model):
        base = ResourceVector(core=0.2, cache_mpki=5.0, disk_bw=20.0, net_bw=10.0)
        for bump in (
            ResourceVector(core=0.3),
            ResourceVector(cache_mpki=10.0),
            ResourceVector(disk_bw=50.0),
            ResourceVector(net_bw=30.0),
        ):
            lo = model.inflation(ComponentClass.SEARCHING, base)
            hi = model.inflation(ComponentClass.SEARCHING, base + bump)
            assert hi > lo

    def test_saturates_beyond_capacity(self, model):
        cap = NodeCapacity().vector
        over = ResourceVector(core=5.0, cache_mpki=500.0, disk_bw=9e3, net_bw=9e3)
        assert model.inflation(ComponentClass.SEARCHING, over) == pytest.approx(
            model.inflation(ComponentClass.SEARCHING, cap)
        )

    def test_class_sensitivities_differ(self, model):
        # Segmenting is CPU-sensitive; aggregating is network-sensitive.
        cpu_heavy = ResourceVector(core=0.8)
        net_heavy = ResourceVector(net_bw=100.0)
        assert model.inflation(
            ComponentClass.SEGMENTING, cpu_heavy
        ) > model.inflation(ComponentClass.AGGREGATING, cpu_heavy)
        assert model.inflation(
            ComponentClass.AGGREGATING, net_heavy
        ) > model.inflation(ComponentClass.SEGMENTING, net_heavy)

    def test_vectorised_matches_scalar(self, model):
        rng = np.random.default_rng(0)
        us = rng.uniform(0, 1, size=(50, 4)) * np.array([1.0, 60.0, 300.0, 125.0])
        batch = model.inflation_array(ComponentClass.SEARCHING, us)
        single = [
            model.inflation(ComponentClass.SEARCHING, ResourceVector(*u)) for u in us
        ]
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_bad_array_shape_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.inflation_array(ComponentClass.SEARCHING, np.zeros((3, 3)))

    def test_unknown_class_falls_back_to_generic(self, model):
        u = ResourceVector(core=0.5)
        generic = model.inflation(ComponentClass.GENERIC, u)
        assert generic > 1.0


class TestNoise:
    def test_noise_unbiased(self):
        model = default_interference_model(noise_sigma=0.05)
        rng = np.random.default_rng(1)
        u = ResourceVector(core=0.5, disk_bw=100.0)
        draws = np.array(
            [
                model.noisy_inflation(ComponentClass.SEARCHING, u, rng)
                for _ in range(20_000)
            ]
        )
        clean = model.inflation(ComponentClass.SEARCHING, u)
        assert draws.mean() == pytest.approx(clean, rel=0.01)
        assert draws.std() / clean == pytest.approx(0.05, rel=0.15)

    def test_zero_noise_deterministic(self):
        model = default_interference_model(noise_sigma=0.0)
        rng = np.random.default_rng(2)
        u = ResourceVector(core=0.3)
        a = model.noisy_inflation(ComponentClass.SEARCHING, u, rng)
        b = model.noisy_inflation(ComponentClass.SEARCHING, u, rng)
        assert a == b

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            InterferenceModel(noise_sigma=-0.1)


class TestServiceTimeViews:
    def _component(self):
        return Component(
            name="c",
            cls=ComponentClass.SEARCHING,
            base_service=LogNormal(ms(6), 0.8),
        )

    def test_mean_service_time_scales(self, model):
        c = self._component()
        u = ResourceVector(core=0.6, disk_bw=150.0)
        expected = c.base_mean * model.inflation(c.cls, u)
        assert model.mean_service_time(c, u) == pytest.approx(expected)

    def test_distribution_preserves_scv(self, model):
        c = self._component()
        u = ResourceVector(core=0.9, cache_mpki=40.0)
        dist = model.service_distribution(c, u)
        assert dist.scv == pytest.approx(c.base_scv)
        assert dist.mean == pytest.approx(model.mean_service_time(c, u))


class TestCoefficients:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigurationError):
            InterferenceCoefficients(b_core=-0.1, b_cache=0, b_disk=0, b_net=0)

    def test_override_single_class(self):
        custom = InterferenceCoefficients(
            b_core=9.0, b_cache=0.0, b_disk=0.0, b_net=0.0, curvature=0.0
        )
        model = InterferenceModel(
            coefficients={ComponentClass.SEARCHING: custom}, noise_sigma=0.0
        )
        u = ResourceVector(core=0.5)
        assert model.inflation(ComponentClass.SEARCHING, u) == pytest.approx(5.5)
        # Other classes keep their defaults.
        assert model.inflation(ComponentClass.SEGMENTING, u) < 5.5


class TestInflationArrayForm:
    """``inflation_array`` runs its clip resource by resource; every
    element must still equal the plain broadcast expression's."""

    @staticmethod
    def _expression(model, cls, u):
        cap = model.capacity.vector.as_array()
        coeff = model.coefficients_for(cls)
        norm = np.clip(u, 0.0, cap) / cap
        penalty = norm + coeff.curvature * norm * norm
        return 1.0 + penalty @ coeff.as_array()

    @pytest.mark.parametrize("cls", list(ComponentClass))
    @pytest.mark.parametrize("curvature", [2.0, 0.7])
    def test_bit_identical_to_the_broadcast_expression(self, cls, curvature):
        model = InterferenceModel(
            {cls: InterferenceCoefficients(0.9, 1.3, 0.7, 0.3, curvature)},
            noise_sigma=0.0,
        )
        rng = np.random.default_rng(11)
        cap = model.capacity.vector.as_array()
        # Below zero, inside capacity and up to twice beyond it.
        u = rng.uniform(-0.2, 2.0, (500, 4)) * cap
        assert np.any(u > cap) and np.any(u < 0)
        for batch in (u, u[:1], u[:2], np.asfortranarray(u), u[::3]):
            np.testing.assert_array_equal(
                model.inflation_array(cls, batch),
                self._expression(model, cls, batch),
            )
