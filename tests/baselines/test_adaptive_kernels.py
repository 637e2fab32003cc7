"""Adaptive routing kernels and the threshold-feed seam: registry
dispatch, unbound-equals-fixed identity, online tuning through a bound
feed, and the realized-duplicate accounting every kernel now reports."""

import numpy as np
import pytest

from repro.baselines.policies import (
    AdaptiveHedgePolicy,
    AdaptiveReissuePolicy,
    BasicPolicy,
    HedgedPolicy,
    REDPolicy,
    ReissuePolicy,
)
from repro.baselines.routing import (
    AdaptiveHedgeKernel,
    AdaptiveReissueKernel,
    HedgedKernel,
    RandomSplitKernel,
    ReissueKernel,
    routing_kernel_for,
)
from repro.errors import MonitoringError
from repro.monitoring.streaming import ReissueThresholdFeed
from repro.service.component import Component, ComponentClass
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage
from repro.sim.queue_sim import simulate_service_interval
from repro.simcore.distributions import Exponential, LogNormal
from repro.units import ms


def _topology(n_groups=3, replicas=3):
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
                    for r in range(2)
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


def _run(policy, rng_seed=11, rate=60.0, duration=40.0, feed=None, topo=None):
    topo = _topology() if topo is None else topo
    return simulate_service_interval(
        topo, policy, rate, duration, _dists(topo),
        np.random.default_rng(rng_seed), threshold_feed=feed,
    )


class TestRegistry:
    def test_adaptive_policies_resolve_to_adaptive_kernels(self):
        k = routing_kernel_for(AdaptiveReissuePolicy(quantile=0.9))
        assert isinstance(k, AdaptiveReissueKernel)
        assert k.quantile == 0.9
        h = routing_kernel_for(AdaptiveHedgePolicy(quantile=0.99))
        assert isinstance(h, AdaptiveHedgeKernel)
        assert h.quantile == 0.99

    def test_bind_returns_a_new_bound_kernel(self):
        feed = ReissueThresholdFeed()
        unbound = AdaptiveReissueKernel(0.9)
        bound = unbound.bind_threshold_feed(feed)
        assert bound is not unbound
        assert bound.feed is feed and unbound.feed is None

    def test_base_kernels_ignore_binding(self):
        # bind_threshold_feed on a non-adaptive kernel is the identity,
        # so the simulator can bind unconditionally.
        k = ReissueKernel(0.9)
        assert k.bind_threshold_feed(ReissueThresholdFeed()) is k
        r = RandomSplitKernel()
        assert r.bind_threshold_feed(ReissueThresholdFeed()) is r


class TestUnboundIdentity:
    """Without a feed, adaptive kernels are behaviour-identical to
    their fixed counterparts — the cold-start contract."""

    def test_unbound_ari_equals_fixed_ri(self):
        fixed = _run(ReissuePolicy(quantile=0.9))
        adaptive = _run(AdaptiveReissuePolicy(quantile=0.9))
        np.testing.assert_array_equal(
            adaptive.request_latencies, fixed.request_latencies
        )
        assert adaptive.duplicates == fixed.duplicates

    def test_unbound_ahedge_equals_fixed_hedge(self):
        fixed = _run(HedgedPolicy(hedge_delay_s=0.010))
        adaptive = _run(AdaptiveHedgePolicy(hedge_delay_s=0.010))
        np.testing.assert_array_equal(
            adaptive.request_latencies, fixed.request_latencies
        )
        assert adaptive.duplicates == fixed.duplicates


class TestThresholdFeed:
    def test_warmup_gate(self):
        feed = ReissueThresholdFeed(min_observations=3)
        assert feed.current_threshold_s() is None
        feed.observe_window(0.010, 100)
        feed.observe_window(0.020, 100)
        assert feed.current_threshold_s() is None
        feed.observe_window(0.030, 100)
        assert feed.current_threshold_s() == pytest.approx(0.020)
        assert feed.observations == 3

    def test_empty_windows_carry_no_information(self):
        feed = ReissueThresholdFeed()
        feed.observe_window(0.010, 0)
        assert feed.observations == 0
        assert feed.current_threshold_s() is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.001])
    def test_bad_observations_rejected(self, bad):
        with pytest.raises(MonitoringError, match="threshold observation"):
            ReissueThresholdFeed().observe_window(bad, 10)

    def test_bad_min_observations_rejected(self):
        with pytest.raises(MonitoringError, match="min_observations"):
            ReissueThresholdFeed(min_observations=0)

    def test_median_is_robust_to_one_outlier_window(self):
        feed = ReissueThresholdFeed()
        for t in (0.010, 0.011, 0.012, 0.011, 5.0):
            feed.observe_window(t, 50)
        assert feed.current_threshold_s() < 0.1


class TestBoundRouting:
    def test_kernels_populate_the_feed(self):
        feed = ReissueThresholdFeed()
        out = _run(AdaptiveReissuePolicy(quantile=0.9), feed=feed)
        # One observation per multi-replica group the interval routed
        # (the 2-replica segmenting group plus 3 searching groups).
        assert feed.observations == 4
        assert feed.current_threshold_s() is not None

    def test_hedge_kernel_feeds_its_quantile_not_its_delay(self):
        feed = ReissueThresholdFeed()
        _run(AdaptiveHedgePolicy(hedge_delay_s=5.0, quantile=0.5), feed=feed)
        # The observed medians of ~ms-scale sojourns, not the absurd
        # configured cold-start delay.
        assert 0 < feed.current_threshold_s() < 0.1

    def test_tuned_threshold_changes_routing(self):
        # Warm a feed with a tiny threshold: nearly every sub-request
        # then overstays and reissues, unlike the fixed RI-99 kernel.
        feed = ReissueThresholdFeed()
        feed.observe_window(1e-6, 1000)
        tuned = _run(AdaptiveReissuePolicy(quantile=0.99), feed=feed)
        fixed = _run(ReissuePolicy(quantile=0.99))
        assert tuned.duplicates > 10 * max(fixed.duplicates, 1)

    def test_second_window_routes_with_first_windows_estimate(self):
        feed = ReissueThresholdFeed()
        first = _run(AdaptiveReissuePolicy(quantile=0.9), feed=feed)
        after_first = feed.observations
        second = _run(AdaptiveReissuePolicy(quantile=0.9), feed=feed,
                      rng_seed=12)
        assert after_first == 4 and feed.observations == 8
        # Both windows executed and reported realized duplicates.
        assert first.duplicates > 0 and second.duplicates > 0


class TestRealizedDuplicates:
    def test_basic_routing_never_duplicates(self):
        assert _run(BasicPolicy()).duplicates == 0

    def test_reissue_duplicates_track_the_quantile(self):
        out = _run(ReissuePolicy(quantile=0.9), rate=80.0, duration=60.0)
        # Each multi-replica group reissues ~ (1 - q) of its
        # sub-requests; 4 such groups serve every request.
        per_request = out.duplicate_load
        assert 0.5 * 4 * 0.1 < per_request < 2.0 * 4 * 0.1

    def test_redundancy_reports_escaped_copies_only(self):
        out = _run(REDPolicy(replicas=3, cancel_delay_s=0.002))
        # Strictly fewer than full fan-out (2 extra copies x 4 groups):
        # cancellation reclaims some copies.
        assert 0 < out.duplicate_load < 8.0

    def test_instant_cancellation_still_overlaps_idle_starts(self):
        # With delay 0 only copies that started before the quickest
        # finished keep running; at light load most get cancelled.
        lazy = _run(REDPolicy(replicas=3, cancel_delay_s=0.002), rate=20.0)
        instant = _run(REDPolicy(replicas=3, cancel_delay_s=0.0), rate=20.0)
        assert instant.duplicate_load <= lazy.duplicate_load

    def test_duplicate_load_is_per_request(self):
        out = _run(ReissuePolicy(quantile=0.9))
        assert out.duplicate_load == out.duplicates / out.n_requests
