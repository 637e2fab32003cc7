"""Routing-kernel layer: registry dispatch, golden bit-identity, and
the hedged-policy extension seam."""

import numpy as np
import pytest

from repro.baselines.policies import (
    BasicPolicy,
    HedgedPolicy,
    PCSPolicy,
    Policy,
    REDPolicy,
    ReissuePolicy,
)
from repro.baselines.routing import (
    HedgedKernel,
    RandomSplitKernel,
    RedundancyKernel,
    ReissueKernel,
    register_routing_kernel,
    routing_kernel_for,
)
from repro.errors import ConfigurationError, SimulationError
from repro.service.component import Component, ComponentClass
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage
from repro.sim.queue_sim import simulate_service_interval
from repro.simcore.distributions import Exponential, LogNormal
from repro.units import ms


def _topology(n_groups=3, replicas=3, seg_replicas=2):
    def comp(g, r):
        return Component(
            name=f"s-g{g}-r{r}",
            cls=ComponentClass.SEARCHING,
            base_service=LogNormal(ms(6), 0.8),
        )

    seg = Stage(
        "segmenting",
        [
            ReplicaGroup(
                "seg",
                [
                    Component(
                        name=f"seg-{r}",
                        cls=ComponentClass.SEGMENTING,
                        base_service=Exponential(ms(1.5)),
                    )
                    for r in range(seg_replicas)
                ],
            )
        ],
    )
    search = Stage(
        "searching",
        [
            ReplicaGroup(f"g{g}", [comp(g, r) for r in range(replicas)])
            for g in range(n_groups)
        ],
    )
    return ServiceTopology([seg, search])


def _dists(topology):
    return {c.name: c.base_service for c in topology.components}


class TestKernelRegistry:
    @pytest.mark.parametrize(
        "policy,kernel_type",
        [
            (BasicPolicy(), RandomSplitKernel),
            (PCSPolicy(), RandomSplitKernel),
            (Policy(), RandomSplitKernel),
            (REDPolicy(replicas=3), RedundancyKernel),
            (ReissuePolicy(quantile=0.9), ReissueKernel),
            (HedgedPolicy(), HedgedKernel),
        ],
    )
    def test_resolution(self, policy, kernel_type):
        assert type(routing_kernel_for(policy)) is kernel_type

    def test_kernel_carries_policy_parameters(self):
        k = routing_kernel_for(REDPolicy(replicas=4, cancel_delay_s=0.007))
        assert k.replicas == 4 and k.cancel_delay_s == 0.007
        r = routing_kernel_for(ReissuePolicy(quantile=0.99))
        assert r.quantile == 0.99
        h = routing_kernel_for(HedgedPolicy(hedge_delay_s=0.02))
        assert h.hedge_delay_s == 0.02

    def test_subclass_inherits_parent_kernel_via_mro(self):
        class QuietPCS(PCSPolicy):
            pass

        assert type(routing_kernel_for(QuietPCS())) is RandomSplitKernel

    def test_unregistered_object_rejected(self):
        class Alien:
            pass

        with pytest.raises(SimulationError, match="no routing kernel"):
            routing_kernel_for(Alien())

    def test_third_party_registration(self):
        class MyPolicy(Policy):
            pass

        register_routing_kernel(MyPolicy, lambda p: RedundancyKernel(2, 0.0))
        try:
            assert type(routing_kernel_for(MyPolicy())) is RedundancyKernel
        finally:
            # remove the test registration so it cannot leak
            from repro.baselines import routing as routing_mod

            routing_mod._KERNEL_FACTORIES.pop(MyPolicy, None)

    def test_non_class_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_routing_kernel("not-a-class", lambda p: RandomSplitKernel())

    def test_builtin_policies_registered(self):
        from repro.baselines.routing import _KERNEL_FACTORIES

        for cls in (Policy, BasicPolicy, REDPolicy, ReissuePolicy,
                    HedgedPolicy, PCSPolicy):
            assert cls in _KERNEL_FACTORIES


class TestKernelValidation:
    def test_redundancy_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RedundancyKernel(replicas=0, cancel_delay_s=0.0)
        with pytest.raises(ConfigurationError):
            RedundancyKernel(replicas=2, cancel_delay_s=-1.0)

    def test_reissue_rejects_bad_quantile(self):
        with pytest.raises(ConfigurationError):
            ReissueKernel(quantile=1.5)

    def test_hedged_rejects_bad_delay(self):
        with pytest.raises(ConfigurationError):
            HedgedKernel(hedge_delay_s=0.0)


class TestGoldenBitIdentity:
    """The kernel refactor must reproduce the pre-refactor simulator's
    sample paths *exactly*.  These values were captured from the
    isinstance-dispatch implementation (PR 2 tree) on the fixed
    topology/seed below; any drift in draw order or arithmetic breaks
    them."""

    #: policy name -> (n_requests, sum(overall), overall[7],
    #:                 sum(pooled component latencies), pooled size)
    GOLDEN = {
        "Basic": (2425, 31.956922447649887, 0.012152644076742727,
                  53.10746861023304, 9700),
        "PCS": (2425, 31.956922447649887, 0.012152644076742727,
                53.10746861023304, 9700),
        "RED-3": (2425, 17.904373023319827, 0.011405061683928075,
                  32.54796673171518, 9700),
        "RED-2": (2425, 20.732708577712362, 0.021790212284553245,
                  36.60813227166119, 9700),
        "RI-90": (2425, 28.90752230120558, 0.022653779403871657,
                  50.212291499543134, 9700),
        "RI-99": (2425, 31.254161734538396, 0.022125959790094445,
                  52.3642633317197, 9700),
    }

    POLICIES = [
        BasicPolicy(),
        PCSPolicy(),
        REDPolicy(replicas=3, cancel_delay_s=0.002),
        REDPolicy(replicas=2, cancel_delay_s=0.0),
        ReissuePolicy(quantile=0.90),
        ReissuePolicy(quantile=0.99),
    ]

    @pytest.mark.parametrize("policy", POLICIES, ids=[p.name for p in POLICIES])
    def test_kernel_matches_pre_refactor_sample_paths(self, policy):
        topo = _topology()
        out = simulate_service_interval(
            topo, policy, 60.0, 40.0, _dists(topo),
            np.random.default_rng(2024),
        )
        pooled = out.pooled_component_latencies()
        got = (
            out.n_requests,
            float(out.request_latencies.sum()),
            float(out.request_latencies[7]),
            float(pooled.sum()),
            int(pooled.size),
        )
        assert got == self.GOLDEN[policy.name]


class TestHedgedPolicy:
    """The worked example: a policy added through the registry alone."""

    def test_name_and_load_multiplier(self):
        p = HedgedPolicy(hedge_delay_s=0.008, expected_hedge_fraction=0.1)
        assert p.name == "Hedge-8ms"
        assert p.load_multiplier == pytest.approx(1.1)
        with pytest.raises(ConfigurationError):
            HedgedPolicy(hedge_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            HedgedPolicy(expected_hedge_fraction=2.0)

    def test_reduces_tail_at_light_load(self):
        topo = _topology(n_groups=2, replicas=4)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 10.0, 600.0, _dists(topo),
            np.random.default_rng(3),
        )
        hedged = simulate_service_interval(
            topo, HedgedPolicy(hedge_delay_s=0.008), 10.0, 600.0,
            _dists(topo), np.random.default_rng(3),
        )
        assert np.percentile(hedged.request_latencies, 99) < np.percentile(
            basic.request_latencies, 99
        )

    def test_longer_delay_hedges_less(self):
        topo = _topology(n_groups=1, replicas=4)

        def executed(delay):
            out = simulate_service_interval(
                topo, HedgedPolicy(hedge_delay_s=delay), 50.0, 200.0,
                _dists(topo), np.random.default_rng(4),
            )
            return sum(
                s.size for s in out.component_service_samples.values()
            ) / out.n_requests

        assert executed(0.050) < executed(0.004)

    def test_single_replica_group_degenerates_to_basic(self):
        topo = _topology(n_groups=2, replicas=1, seg_replicas=1)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 20.0, 100.0, _dists(topo),
            np.random.default_rng(5),
        )
        hedged = simulate_service_interval(
            topo, HedgedPolicy(), 20.0, 100.0, _dists(topo),
            np.random.default_rng(5),
        )
        np.testing.assert_allclose(
            basic.request_latencies, hedged.request_latencies
        )
