"""Tests for the load-dependent component demand model."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import TopologyError
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import Exponential
from repro.units import ms


def _comp(**kwargs):
    return Component(
        name="c",
        cls=ComponentClass.SEARCHING,
        base_service=Exponential(ms(4)),
        demand=ResourceVector(core=0.04, cache_mpki=1.0, disk_bw=4.0, net_bw=1.5),
        **kwargs,
    )


class TestLoadScaling:
    def test_reference_load_keeps_base_demand(self):
        c = _comp()
        assert c.demand == c.base_demand

    def test_double_load_scales_demand_up(self):
        c = _comp()
        c.set_load(2 * c.reference_rps)
        # scale = idle + (1-idle)*2 = 0.4 + 1.2 = 1.6
        assert c.demand.isclose(c.base_demand * 1.6)
        assert c.demand.core == pytest.approx(0.04 * 1.6)

    def test_idle_floor(self):
        c = _comp()
        c.set_load(0.0)
        assert c.demand.isclose(c.base_demand * c.idle_fraction)

    def test_cap_at_max_scale(self):
        c = _comp()
        c.set_load(1000 * c.reference_rps)
        assert c.demand.isclose(c.base_demand * c.max_demand_scale)

    def test_redundancy_load_feedback(self):
        """k executed copies -> ~k x demand (the RED cost mechanism)."""
        basic, red3 = _comp(), _comp()
        basic.set_load(10.0)
        red3.set_load(30.0)
        assert red3.demand.core > 2 * basic.demand.core

    def test_negative_load_rejected(self):
        with pytest.raises(TopologyError):
            _comp().set_load(-1.0)

    def test_invalid_load_model_rejected(self):
        with pytest.raises(TopologyError):
            _comp(reference_rps=0.0)
        with pytest.raises(TopologyError):
            _comp(idle_fraction=1.5)
        with pytest.raises(TopologyError):
            _comp(max_demand_scale=0.5)

    def test_zero_base_demand_safe(self):
        c = Component(
            name="z", cls=ComponentClass.GENERIC, base_service=Exponential(ms(1))
        )
        c.set_load(50.0)
        assert c.demand == ResourceVector.zero()
