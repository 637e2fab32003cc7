"""Tests for the vectorised interval simulator and its policy mechanics."""

import numpy as np
import pytest

from repro.baselines.policies import (
    BasicPolicy,
    PCSPolicy,
    REDPolicy,
    ReissuePolicy,
)
from repro.errors import SimulationError
from repro.model.queueing import mg1_latency
from repro.service.component import Component, ComponentClass
from repro.service.nutch import build_nutch_service
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage
from repro.sim.queue_sim import poisson_arrivals, simulate_service_interval
from repro.simcore.distributions import Exponential, LogNormal
from repro.units import ms


def _topology(n_groups=4, replicas=3, mean=ms(6), scv=1.0):
    def comp(g, r):
        return Component(
            name=f"s-g{g}-r{r}",
            cls=ComponentClass.SEARCHING,
            base_service=LogNormal(mean, scv) if scv != 1.0 else Exponential(mean),
        )

    stage = Stage(
        "searching",
        [
            ReplicaGroup(f"g{g}", [comp(g, r) for r in range(replicas)])
            for g in range(n_groups)
        ],
    )
    return ServiceTopology([stage])


def _dists(topology):
    return {c.name: c.base_service for c in topology.components}


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestPoissonArrivals:
    def test_count_concentrates(self, rng):
        counts = [poisson_arrivals(100.0, 10.0, rng).size for _ in range(200)]
        assert np.mean(counts) == pytest.approx(1000, rel=0.02)

    def test_sorted_within_window(self, rng):
        t = poisson_arrivals(50.0, 5.0, rng)
        assert np.all(np.diff(t) >= 0)
        assert t.min() >= 0 and t.max() < 5.0

    def test_invalid_rejected(self, rng):
        with pytest.raises(SimulationError):
            poisson_arrivals(-1.0, 5.0, rng)
        with pytest.raises(SimulationError):
            poisson_arrivals(1.0, 0.0, rng)


class TestBasicPolicy:
    def test_matches_mg1_prediction(self, rng):
        """Basic routing on R replicas: each replica is an M/G/1 queue at
        lambda/R — the sample path must agree with Eq. 2."""
        topo = _topology(n_groups=1, replicas=4, scv=1.0)
        lam = 200.0
        out = simulate_service_interval(
            topo, BasicPolicy(), lam, 400.0, _dists(topo), rng
        )
        predicted = mg1_latency(ms(6), 1.0, lam / 4)
        measured = out.pooled_component_latencies().mean()
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_overall_is_max_over_groups(self, rng):
        topo = _topology(n_groups=5, replicas=2)
        out = simulate_service_interval(
            topo, BasicPolicy(), 50.0, 100.0, _dists(topo), rng
        )
        # With 5 groups the overall (single stage) is a max of 5 draws:
        # strictly larger on average than any single component sojourn.
        assert out.request_latencies.mean() > out.pooled_component_latencies().mean()

    def test_multi_stage_sums(self, rng):
        s1 = Stage(
            "a",
            [
                ReplicaGroup(
                    "a0",
                    [
                        Component(
                            name="a0r0",
                            cls=ComponentClass.GENERIC,
                            base_service=Exponential(ms(2)),
                        )
                    ],
                )
            ],
        )
        s2 = Stage(
            "b",
            [
                ReplicaGroup(
                    "b0",
                    [
                        Component(
                            name="b0r0",
                            cls=ComponentClass.GENERIC,
                            base_service=Exponential(ms(3)),
                        )
                    ],
                )
            ],
        )
        topo = ServiceTopology([s1, s2])
        out = simulate_service_interval(
            topo, BasicPolicy(), 20.0, 200.0, _dists(topo), rng
        )
        expected = mg1_latency(ms(2), 1.0, 20.0) + mg1_latency(ms(3), 1.0, 20.0)
        assert out.request_latencies.mean() == pytest.approx(expected, rel=0.08)

    def test_random_primary_balances_load(self, rng):
        topo = _topology(n_groups=1, replicas=4)
        out = simulate_service_interval(
            topo, BasicPolicy(), 100.0, 100.0, _dists(topo), rng
        )
        counts = np.array(
            [out.component_sojourns[c.name].size for c in topo.components]
        )
        # Uniform random split: each replica within a few sigma of n/4.
        expected = out.n_requests / 4
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))

    def test_pcs_routes_like_basic(self, rng):
        topo = _topology(n_groups=2, replicas=2)
        out_b = simulate_service_interval(
            topo, BasicPolicy(), 50.0, 50.0, _dists(topo),
            np.random.default_rng(5),
        )
        out_p = simulate_service_interval(
            topo, PCSPolicy(), 50.0, 50.0, _dists(topo),
            np.random.default_rng(5),
        )
        np.testing.assert_allclose(
            out_b.request_latencies, out_p.request_latencies
        )

    def test_zero_requests_edge(self):
        topo = _topology(n_groups=1, replicas=2)
        out = simulate_service_interval(
            topo, BasicPolicy(), 0.001, 0.1, _dists(topo),
            np.random.default_rng(0),
        )
        assert out.n_requests == out.request_latencies.size

    def test_missing_dist_rejected(self, rng):
        topo = _topology()
        dists = _dists(topo)
        dists.pop(topo.components[0].name)
        with pytest.raises(SimulationError):
            simulate_service_interval(topo, BasicPolicy(), 10.0, 10.0, dists, rng)


class TestREDPolicy:
    def test_red_helps_at_light_load(self, rng):
        """min-of-k beats one sample when queues are empty."""
        topo = _topology(n_groups=2, replicas=5, scv=1.0)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 5.0, 600.0, _dists(topo),
            np.random.default_rng(1),
        )
        red = simulate_service_interval(
            topo, REDPolicy(replicas=3), 5.0, 600.0, _dists(topo),
            np.random.default_rng(1),
        )
        assert red.request_latencies.mean() < basic.request_latencies.mean()

    def test_red_hurts_at_heavy_load(self, rng):
        """Replication multiplies load; at high rho RED must lose."""
        topo = _topology(n_groups=2, replicas=5, scv=1.0)
        lam = 400.0  # basic per-replica rho ~ 0.48; RED-5 rho ~ 2.4
        basic = simulate_service_interval(
            topo, BasicPolicy(), lam, 120.0, _dists(topo),
            np.random.default_rng(2),
        )
        red = simulate_service_interval(
            topo, REDPolicy(replicas=5), lam, 120.0, _dists(topo),
            np.random.default_rng(2),
        )
        assert red.request_latencies.mean() > 2 * basic.request_latencies.mean()

    def test_red5_worse_than_red3_at_heavy_load(self):
        topo = _topology(n_groups=2, replicas=5, scv=1.0)
        lam = 400.0
        red3 = simulate_service_interval(
            topo, REDPolicy(replicas=3), lam, 120.0, _dists(topo),
            np.random.default_rng(3),
        )
        red5 = simulate_service_interval(
            topo, REDPolicy(replicas=5), lam, 120.0, _dists(topo),
            np.random.default_rng(3),
        )
        assert red5.request_latencies.mean() > red3.request_latencies.mean()

    def test_cancellation_saves_queued_copies_only(self):
        """Cancellation fires when a sibling *begins execution* (§VI-C),
        so it can only save copies still queued: at light load all k
        copies start immediately (the paper's simultaneous-start leak),
        while under queueing many duplicates are cancelled."""
        topo = _topology(n_groups=1, replicas=3, scv=1.0)

        def executed_per_request(lam):
            out = simulate_service_interval(
                topo,
                REDPolicy(replicas=3, cancel_delay_s=0.0),
                lam,
                200.0,
                _dists(topo),
                np.random.default_rng(4),
            )
            executed = sum(
                np.count_nonzero(s)
                for s in out.component_service_samples.values()
            )
            return executed / out.n_requests

        light, heavy = executed_per_request(20.0), executed_per_request(80.0)
        assert light > 2.0  # idle queues: nearly all 3 copies run
        assert heavy < light  # queueing lets cancellation bite
        assert heavy >= 1.0  # the winner always executes

    def test_imperfect_cancellation_leaks_more(self):
        topo = _topology(n_groups=1, replicas=3, scv=1.0)

        def executed_with(delay):
            out = simulate_service_interval(
                topo,
                REDPolicy(replicas=3, cancel_delay_s=delay),
                30.0,
                300.0,
                _dists(topo),
                np.random.default_rng(5),
            )
            return sum(
                np.count_nonzero(s)
                for s in out.component_service_samples.values()
            ) / out.n_requests

        assert executed_with(0.05) > executed_with(0.0)

    def test_red_latency_not_above_single_copy(self):
        """Each request's RED latency is min over copies, so it can't
        exceed the copy that would have served it alone... statistically:
        p99 under light load must not be worse than Basic."""
        topo = _topology(n_groups=1, replicas=5)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 2.0, 1000.0, _dists(topo),
            np.random.default_rng(6),
        )
        red = simulate_service_interval(
            topo, REDPolicy(replicas=3), 2.0, 1000.0, _dists(topo),
            np.random.default_rng(6),
        )
        assert np.percentile(red.request_latencies, 99) < np.percentile(
            basic.request_latencies, 99
        )


class TestReissuePolicy:
    def test_reissue_reduces_tail_at_light_load(self):
        topo = _topology(n_groups=2, replicas=4, scv=2.0)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 10.0, 600.0, _dists(topo),
            np.random.default_rng(7),
        )
        ri = simulate_service_interval(
            topo, ReissuePolicy(quantile=0.90), 10.0, 600.0, _dists(topo),
            np.random.default_rng(7),
        )
        assert np.percentile(ri.request_latencies, 99) < np.percentile(
            basic.request_latencies, 99
        )

    def test_ri99_reissues_less_than_ri90(self):
        topo = _topology(n_groups=1, replicas=4)

        def executed(quantile):
            out = simulate_service_interval(
                topo, ReissuePolicy(quantile=quantile), 50.0, 200.0,
                _dists(topo), np.random.default_rng(8),
            )
            return sum(
                s.size for s in out.component_service_samples.values()
            ) / out.n_requests

        # RI-90 reissues ~10% of requests, RI-99 ~1%.
        assert executed(0.99) < executed(0.90)
        assert executed(0.90) == pytest.approx(1.10, abs=0.04)

    def test_reissue_milder_than_red_at_heavy_load(self):
        """The paper: 'this conservative reissue technique causes less
        performance deterioration when load becomes heavier'."""
        topo = _topology(n_groups=2, replicas=5)
        lam = 400.0
        red = simulate_service_interval(
            topo, REDPolicy(replicas=3), lam, 120.0, _dists(topo),
            np.random.default_rng(9),
        )
        ri = simulate_service_interval(
            topo, ReissuePolicy(quantile=0.90), lam, 120.0, _dists(topo),
            np.random.default_rng(9),
        )
        assert ri.request_latencies.mean() < red.request_latencies.mean()

    def test_single_replica_group_degenerates_to_basic(self):
        topo = _topology(n_groups=2, replicas=1)
        basic = simulate_service_interval(
            topo, BasicPolicy(), 20.0, 100.0, _dists(topo),
            np.random.default_rng(10),
        )
        ri = simulate_service_interval(
            topo, ReissuePolicy(quantile=0.90), 20.0, 100.0, _dists(topo),
            np.random.default_rng(10),
        )
        np.testing.assert_allclose(basic.request_latencies, ri.request_latencies)


class TestOutcomeBookkeeping:
    @pytest.mark.parametrize(
        "policy",
        [
            BasicPolicy(),
            REDPolicy(replicas=3),
            REDPolicy(replicas=5),
            ReissuePolicy(quantile=0.90),
            PCSPolicy(),
        ],
        ids=lambda p: p.name,
    )
    def test_every_policy_serves_the_nutch_service(self, policy):
        """One interval of the full Nutch-like service at a moderate
        rate: the inner loop of every Fig. 6 cell."""
        service = build_nutch_service()
        dists = {c.name: c.base_service for c in service.components}
        out = simulate_service_interval(
            service.topology, policy, 100.0, 30.0, dists,
            np.random.default_rng(0),
        )
        assert out.n_requests > 0

    def test_every_component_has_samples_under_basic(self, rng):
        topo = _topology(n_groups=2, replicas=2)
        out = simulate_service_interval(
            topo, BasicPolicy(), 50.0, 60.0, _dists(topo), rng
        )
        for c in topo.components:
            assert out.component_sojourns[c.name].size > 0
            assert out.component_service_samples[c.name].size > 0

    def test_pooled_size_matches_routing(self, rng):
        topo = _topology(n_groups=3, replicas=2)
        out = simulate_service_interval(
            topo, BasicPolicy(), 40.0, 60.0, _dists(topo), rng
        )
        # One sojourn per (request, group) under Basic.
        assert out.pooled_component_latencies().size == 3 * out.n_requests

    def test_deterministic_given_rng(self):
        topo = _topology()
        a = simulate_service_interval(
            topo, BasicPolicy(), 30.0, 30.0, _dists(topo),
            np.random.default_rng(11),
        )
        b = simulate_service_interval(
            topo, BasicPolicy(), 30.0, 30.0, _dists(topo),
            np.random.default_rng(11),
        )
        np.testing.assert_array_equal(a.request_latencies, b.request_latencies)
