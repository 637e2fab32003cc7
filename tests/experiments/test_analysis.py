"""Tests for the sweep-analysis helpers."""

import bisect

import pytest

from repro.errors import ExperimentError
from repro.experiments.analysis import (
    crossover_rate,
    dominance_table,
    pcs_convergence,
    summary_crossover_rate,
)
from repro.sim.aggregate import SweepSummary
from repro.sim.metrics import LatencySummary
from repro.sim.runner import PolicyResult


def _result(name, rate, p99, mean, per_interval=None):
    summary = LatencySummary(n=100, mean=mean, p50=mean, p95=p99, p99=p99, max=p99)
    overall = LatencySummary(n=100, mean=mean, p50=mean, p95=p99, p99=p99, max=p99)
    return PolicyResult(
        policy_name=name,
        arrival_rate=rate,
        component_latency=summary,
        overall_latency=overall,
        per_interval_component_p99=[p99],
        per_interval_overall_mean=per_interval or [mean],
        n_requests=100,
        n_migrations=0,
        scheduling_time_s=0.0,
        wall_time_s=0.0,
    )


def _sweep():
    # RED helps at 10, ties around 50, hurts at 200.
    return {
        10.0: {
            "Basic": _result("Basic", 10, 0.030, 0.025),
            "RED-3": _result("RED-3", 10, 0.012, 0.010),
            "PCS": _result("PCS", 10, 0.028, 0.022),
        },
        50.0: {
            "Basic": _result("Basic", 50, 0.040, 0.035),
            "RED-3": _result("RED-3", 50, 0.030, 0.028),
            "PCS": _result("PCS", 50, 0.033, 0.028),
        },
        200.0: {
            "Basic": _result("Basic", 200, 1.2, 0.70),
            "RED-3": _result("RED-3", 200, 9.8, 5.6),
            "PCS": _result("PCS", 200, 0.44, 0.25),
        },
    }


class TestCrossoverRate:
    def test_finds_crossover_between_samples(self):
        x = crossover_rate(_sweep(), "RED-3")
        assert 50.0 < x < 200.0

    def test_no_crossover_returns_none(self):
        x = crossover_rate(_sweep(), "PCS")
        assert x is None  # PCS always beats Basic here

    def test_never_helps_returns_lowest_rate(self):
        sweep = _sweep()
        for rate in sweep:
            sweep[rate]["BAD"] = _result("BAD", rate, 10.0, 9.0)
        assert crossover_rate(sweep, "BAD") == 10.0

    def test_missing_policy_rejected(self):
        with pytest.raises(ExperimentError):
            crossover_rate(_sweep(), "RI-90")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ExperimentError):
            crossover_rate({}, "RED-3")


class TestDominanceTable:
    def test_winners_by_rate(self):
        out = dominance_table(_sweep())
        lines = out.splitlines()
        assert any("RED-3" in l for l in lines if l.startswith(" 10") or "10 " in l)
        assert any("PCS" in l for l in lines if "200" in l)

    def test_margin_at_least_one(self):
        out = dominance_table(_sweep())
        data_lines = [l for l in out.splitlines() if l.count("|") == 4 and "margin" not in l]
        margins = [
            float(line.rsplit("|", 1)[1].strip().rstrip("x"))
            for line in data_lines
        ]
        assert margins and all(m >= 1.0 for m in margins)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            dominance_table({})


def _summary() -> SweepSummary:
    """The synthetic sweep as a (single-seed) aggregate summary."""
    return SweepSummary.from_grouped(
        {
            (name, rate): {0: result}
            for rate, per_policy in _sweep().items()
            for name, result in per_policy.items()
        }
    )


class TestSummaryHelpers:
    """The multi-seed variants agree with the per-result originals."""

    def test_summary_crossover_matches_original(self):
        assert summary_crossover_rate(_summary(), "RED-3") == pytest.approx(
            crossover_rate(_sweep(), "RED-3")
        )
        assert summary_crossover_rate(_summary(), "PCS") is None


class TestPCSConvergence:
    def test_improvement_computed(self):
        r = _result("PCS", 100, 0.05, 0.04, per_interval=[0.050, 0.040, 0.030])
        conv = pcs_convergence(r)
        assert conv["first_interval_mean_s"] == pytest.approx(0.050)
        assert conv["last_interval_mean_s"] == pytest.approx(0.030)
        assert conv["relative_improvement"] == pytest.approx(0.4)

    def test_single_interval_rejected(self):
        with pytest.raises(ExperimentError):
            pcs_convergence(_result("PCS", 100, 0.05, 0.04))

    def test_real_run_converges(self):
        """End-to-end: PCS's own interval series should not get worse."""
        from repro.experiments.fig6 import paper_pcs_policy
        from repro.service.nutch import NutchConfig
        from repro.sim.runner import ExperimentRunner, RunnerConfig

        runner = ExperimentRunner(
            RunnerConfig(
                n_nodes=10,
                arrival_rate=120.0,
                interval_s=20.0,
                n_intervals=6,
                warmup_intervals=1,
                seed=21,
                nutch=NutchConfig(n_search_groups=6, replicas_per_group=3,
                                  n_segmenters=2, n_aggregators=2),
                n_profiling_conditions=25,
            )
        )
        result = runner.run(paper_pcs_policy())
        conv = pcs_convergence(result)
        assert conv["relative_improvement"] > -0.5  # not diverging


class TestPredictedCrossover:
    """The analytic side of §VI-C: the M/G/1 + benefit-transform
    predictor derives the help→hurt crossover Fig. 6 measures."""

    @pytest.fixture(scope="class")
    def topology(self):
        from repro.service.nutch import NutchConfig, build_nutch_service

        return build_nutch_service(
            NutchConfig(
                n_search_groups=4, replicas_per_group=5,
                n_segmenters=2, n_aggregators=2,
            )
        ).topology

    def test_latency_positive_and_increasing_in_load(self, topology):
        from repro.baselines.policies import BasicPolicy
        from repro.experiments.analysis import predicted_policy_latency

        vals = [
            predicted_policy_latency(topology, BasicPolicy(), rate)
            for rate in (10.0, 50.0, 200.0)
        ]
        assert all(v > 0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_red_helps_light_hurts_heavy(self, topology):
        from repro.baselines.policies import BasicPolicy, REDPolicy
        from repro.experiments.analysis import predicted_policy_latency

        red, basic = REDPolicy(replicas=3), BasicPolicy()
        assert predicted_policy_latency(
            topology, red, 10.0
        ) < predicted_policy_latency(topology, basic, 10.0)
        assert predicted_policy_latency(
            topology, red, 500.0
        ) > predicted_policy_latency(topology, basic, 500.0)

    def test_crossover_found_inside_the_grid(self, topology):
        from repro.baselines.policies import REDPolicy
        from repro.experiments.analysis import predicted_crossover_rate

        rates = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
        x = predicted_crossover_rate(topology, REDPolicy(replicas=3), rates)
        assert x is not None and rates[0] < x < rates[-1]

    def test_heavier_redundancy_crosses_earlier(self, topology):
        from repro.baselines.policies import REDPolicy
        from repro.experiments.analysis import predicted_crossover_rate

        rates = tuple(float(r) for r in range(10, 520, 10))
        x3 = predicted_crossover_rate(topology, REDPolicy(replicas=3), rates)
        x5 = predicted_crossover_rate(topology, REDPolicy(replicas=5), rates)
        assert x5 < x3

    def test_reissue_is_conservative(self, topology):
        # RI-99 duplicates ~1% of sub-requests: it must still help (or
        # cross far later than RED) on the same grid.
        from repro.baselines.policies import REDPolicy, ReissuePolicy
        from repro.experiments.analysis import predicted_crossover_rate

        rates = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
        x_red = predicted_crossover_rate(topology, REDPolicy(replicas=3), rates)
        x_ri = predicted_crossover_rate(
            topology, ReissuePolicy(quantile=0.99), rates
        )
        assert x_ri is None or x_ri > x_red

    def test_participation_weighted_dag_topology_supported(self):
        from repro.baselines.policies import REDPolicy
        from repro.experiments.analysis import predicted_policy_latency
        from repro.scenarios import get_scenario

        spec = get_scenario("branchy-api")
        topo = spec.build_service(spec.runner_config()).topology
        assert predicted_policy_latency(topo, REDPolicy(replicas=5), 30.0) > 0

    def test_bad_inputs_rejected(self, topology):
        from repro.baselines.policies import BasicPolicy
        from repro.experiments.analysis import predicted_policy_latency

        with pytest.raises(ExperimentError, match="arrival_rate"):
            predicted_policy_latency(topology, BasicPolicy(), 0.0)
        with pytest.raises(ExperimentError, match="service_scale"):
            predicted_policy_latency(
                topology, BasicPolicy(), 10.0, service_scale=0.0
            )

    def test_service_scale_cancels_in_the_ratio_to_first_order(self, topology):
        # Crossovers are ratios; a modest uniform service inflation
        # must not move the predicted crossover much.
        from repro.baselines.policies import REDPolicy
        from repro.experiments.analysis import predicted_crossover_rate

        rates = tuple(float(r) for r in range(10, 520, 10))
        x1 = predicted_crossover_rate(topology, REDPolicy(replicas=3), rates)
        x2 = predicted_crossover_rate(
            topology, REDPolicy(replicas=3), rates, service_scale=1.2
        )
        assert x2 == pytest.approx(x1, rel=0.35)


#: The quick Fig. 6 grid's rates, the segments a crossover can land in.
QUICK_RATES = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


def _segment(rates, x):
    """The grid segment ``x`` falls in: the largest ``i`` with
    ``rates[i] <= x``; no crossover (``None``) bins past the grid."""
    if x is None:
        return len(rates) - 1
    return max(bisect.bisect_right(rates, x) - 1, 0)


@pytest.mark.tier2
class TestQuickGridRouting:
    """Fixed vs adaptive reissue and the §VI-C crossover, measured on
    the quick Fig. 6 grid."""

    @pytest.fixture(scope="class")
    def config(self):
        from repro.baselines.policies import (
            AdaptiveReissuePolicy,
            BasicPolicy,
            REDPolicy,
            ReissuePolicy,
        )
        from repro.experiments.fig6 import Fig6Config
        from repro.service.nutch import NutchConfig

        return Fig6Config(
            arrival_rates=QUICK_RATES,
            n_nodes=12,
            interval_s=8.0,
            n_intervals=3,
            warmup_intervals=1,
            seed=7,
            nutch=NutchConfig(
                n_search_groups=4, replicas_per_group=5,
                n_segmenters=1, n_aggregators=1,
            ),
            policies=(
                BasicPolicy(),
                REDPolicy(replicas=3),
                ReissuePolicy(quantile=0.90),
                AdaptiveReissuePolicy(quantile=0.90),
            ),
        )

    @pytest.fixture(scope="class")
    def summary(self, config):
        from repro.experiments.fig6 import run_fig6

        return run_fig6(config).seed_summary()

    def test_adaptive_reissue_within_3x_of_fixed_p99(self, summary):
        # The tuned timer is a stabler estimate of the same quantile,
        # not a different policy: same regime at every rate.
        for rate in QUICK_RATES:
            p99 = {
                name: summary.get(name, rate)["component_latency.p99"].mean
                for name in ("RI-90", "ARI-90")
            }
            assert p99["ARI-90"] < 3 * p99["RI-90"], rate

    def test_predicted_crossover_within_one_segment(self, config, summary):
        # The idle-node service model under-prices cluster interference,
        # so the predicted crossing sits high, but it must land in (or
        # next to) the grid segment Fig. 6 measures.
        from repro.baselines.policies import REDPolicy
        from repro.experiments.analysis import predicted_crossover_rate
        from repro.scenarios import get_scenario

        measured = summary_crossover_rate(summary, "RED-3")
        topology = get_scenario("nutch-search").build_service(
            config.runner_config(QUICK_RATES[0])
        ).topology
        predicted = predicted_crossover_rate(
            topology, REDPolicy(replicas=3), QUICK_RATES
        )
        assert abs(
            _segment(QUICK_RATES, predicted) - _segment(QUICK_RATES, measured)
        ) <= 1, (measured, predicted)
