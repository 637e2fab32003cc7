"""Tests for the Fig. 6 and Fig. 7 experiment drivers."""

import numpy as np
import pytest

from repro.baselines.policies import BasicPolicy, REDPolicy, ReissuePolicy
from repro.errors import ExperimentError
from repro.experiments.fig6 import (
    Fig6Config,
    paper_pcs_policy,
    run_fig6,
)
from repro.experiments.fig7 import (
    PAPER_INTERVAL_S,
    Fig7Config,
    _oracle,
    make_instance,
    run_fig7,
)
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import StaticThreshold
from repro.service.nutch import NutchConfig
from repro.units import ms


@pytest.fixture(scope="module")
def small_fig6():
    cfg = Fig6Config(
        arrival_rates=(30.0, 150.0),
        n_nodes=10,
        n_intervals=5,
        warmup_intervals=1,
        seed=13,
        nutch=NutchConfig(
            n_search_groups=6, replicas_per_group=3,
            n_segmenters=2, n_aggregators=2,
        ),
        policies=(
            BasicPolicy(),
            REDPolicy(replicas=3),
            ReissuePolicy(quantile=0.90),
            paper_pcs_policy(),
        ),
    )
    return run_fig6(cfg)


class TestFig6:
    def test_all_cells_present(self, small_fig6):
        assert set(small_fig6.results) == {30.0, 150.0}
        for per_policy in small_fig6.results.values():
            assert set(per_policy) == {"Basic", "RED-3", "RI-90", "PCS"}

    def test_pcs_beats_basic_at_heavy_load(self, small_fig6):
        heavy = small_fig6.results[150.0]
        assert heavy["PCS"].overall_mean_s < heavy["Basic"].overall_mean_s
        assert heavy["PCS"].component_p99_s < heavy["Basic"].component_p99_s

    def test_red_crossover(self, small_fig6):
        """RED helps at light load, hurts at heavy load (paper §VI-C)."""
        light, heavy = small_fig6.results[30.0], small_fig6.results[150.0]
        assert light["RED-3"].overall_mean_s < light["Basic"].overall_mean_s
        assert heavy["RED-3"].overall_mean_s > heavy["Basic"].overall_mean_s

    def test_reissue_milder_than_red_at_heavy_load(self, small_fig6):
        heavy = small_fig6.results[150.0]
        assert heavy["RI-90"].overall_mean_s < heavy["RED-3"].overall_mean_s

    def test_latencies_grow_with_load(self, small_fig6):
        for name in ("Basic", "PCS"):
            assert (
                small_fig6.results[150.0][name].overall_mean_s
                > small_fig6.results[30.0][name].overall_mean_s
            )

    def test_reduction_aggregations(self, small_fig6):
        head = small_fig6.headline_reduction()
        pairs = small_fig6.reduction_vs_mitigation_techniques()
        assert set(head) == set(pairs) == {"tail", "mean"}
        # The headline aggregation (ratio of sweep-averaged latencies)
        # must favour PCS even on this 2-point mini sweep.
        assert head["tail"] > 0 and head["mean"] > 0
        # At the heavy point PCS must beat every mitigation technique.
        heavy = small_fig6.results[150.0]
        for name in ("RED-3", "RI-90"):
            assert heavy["PCS"].component_p99_s < heavy[name].component_p99_s

    def test_render_mentions_paper_numbers(self, small_fig6):
        out = small_fig6.render()
        assert "67.0" in out and "64.2" in out or "64.16" in out

    def test_invalid_config_rejected(self):
        with pytest.raises(ExperimentError):
            Fig6Config(arrival_rates=())
        with pytest.raises(ExperimentError):
            Fig6Config(arrival_rates=(0.0,))

    def test_default_policies_are_paper_legend(self):
        cfg = Fig6Config()
        assert [p.name for p in cfg.policies] == [
            "Basic", "RED-3", "RED-5", "RI-90", "RI-99", "PCS",
        ]


class TestFig6Aggregate:
    """The headline numbers route through repro.sim.aggregate."""

    def test_summary_attached(self, small_fig6):
        summary = small_fig6.seed_summary()
        assert summary.seeds == (13,)
        assert summary.policies() == ["Basic", "RED-3", "RI-90", "PCS"]
        assert summary.rates() == [30.0, 150.0]

    def test_single_seed_means_are_exact_run_values(self, small_fig6):
        summary = small_fig6.seed_summary()
        for rate, per_policy in small_fig6.results.items():
            for name, r in per_policy.items():
                assert (
                    summary.seed_mean(name, rate, "component_latency.p99")
                    == r.component_p99_s
                )
                assert (
                    summary.seed_mean(name, rate, "overall_latency.mean")
                    == r.overall_mean_s
                )

    def test_headline_matches_direct_formula(self, small_fig6):
        """Routing through the aggregate layer must not move a single
        bit of the single-seed headline numbers."""
        baselines = ["RED-3", "RI-90"]
        rates = sorted(small_fig6.results)
        pcs_tail = np.mean(
            [small_fig6.results[r]["PCS"].component_p99_s for r in rates]
        )
        other_tail = np.mean(
            [
                small_fig6.results[r][b].component_p99_s
                for r in rates
                for b in baselines
            ]
        )
        expected = float(100.0 * (1.0 - pcs_tail / other_tail))
        assert small_fig6.headline_reduction()["tail"] == expected

    def test_render_includes_aggregate_table(self, small_fig6):
        assert "Seed-level aggregate" in small_fig6.render()

    def test_multi_seed_run(self, tmp_path):
        cfg = Fig6Config(
            arrival_rates=(40.0,),
            n_nodes=8,
            n_intervals=4,
            warmup_intervals=1,
            seed=3,
            seeds=(3, 4),
            nutch=NutchConfig(
                n_search_groups=4, replicas_per_group=2,
                n_segmenters=1, n_aggregators=1,
            ),
            policies=(BasicPolicy(), REDPolicy(replicas=2)),
        )
        result = run_fig6(cfg, cache_dir=tmp_path)
        summary = result.seed_summary()
        assert summary.seeds == (3, 4)
        stats = summary.get("Basic", 40.0)["overall_latency.mean"]
        assert stats.n == 2 and stats.std > 0
        assert stats.t_lo < stats.mean < stats.t_hi
        # `results` is the first seed's slice.
        assert result.results[40.0]["Basic"].overall_mean_s in stats.values
        # The cache can regenerate the identical summary offline.
        from repro.sim.aggregate import SweepSummary

        assert SweepSummary.from_cache(tmp_path).to_dict() == summary.to_dict()

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            Fig6Config(seeds=(1, 1))


class TestFig6SweepRouting:
    """run_fig6 goes through the sweep subsystem: cached and resumable."""

    def _tiny_cfg(self):
        return Fig6Config(
            arrival_rates=(40.0,),
            n_nodes=8,
            n_intervals=4,
            warmup_intervals=1,
            seed=3,
            nutch=NutchConfig(
                n_search_groups=4, replicas_per_group=2,
                n_segmenters=1, n_aggregators=1,
            ),
            policies=(BasicPolicy(), REDPolicy(replicas=2)),
        )

    def test_sweep_spec_mirrors_config(self):
        cfg = self._tiny_cfg()
        spec = cfg.sweep_spec()
        assert spec.arrival_rates == cfg.arrival_rates
        assert spec.seeds == (cfg.seed,)
        assert [p.name for p in spec.policies] == ["Basic", "RED-2"]

    def test_cache_dir_resumes_identically(self, tmp_path):
        cfg = self._tiny_cfg()
        first = run_fig6(cfg, cache_dir=tmp_path)
        again = run_fig6(cfg, cache_dir=tmp_path)
        for rate in first.results:
            for name in first.results[rate]:
                assert (
                    again.results[rate][name].metrics_dict()
                    == first.results[rate][name].metrics_dict()
                )
        # Second run served everything from the memo (the extra file is
        # the provenance manifest, not a point).
        from repro.sim.sweep import SweepCache

        assert len(SweepCache(tmp_path)) == 2
        assert (tmp_path / "manifest.json").exists()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        # The top flat point is large enough for the build's m² kernel
        # work (64× the smallest point's) to dominate its fixed cost, so
        # the growth check compares that work, not timing noise.
        return run_fig7(
            Fig7Config(
                sizes=((20, 4), (40, 8), (160, 32)),
                repeats=2,
                hierarchical_sizes=((160, 16),),
                hierarchical_group_size=80,
            )
        )

    def test_all_points_measured(self, result):
        assert len(result.points) == 4
        assert sum(p.hierarchical for p in result.points) == 1

    def test_times_positive(self, result):
        for p in result.points:
            assert p.analysis_time_s > 0
            assert p.search_time_s >= 0

    def test_repeat_reduction_through_aggregate(self, result):
        # Flat points (repeats=2) carry the repeat spread; timings are
        # the per-phase noise floor, so spread is a plain std >= 0.
        for p in result.points:
            assert p.total_std_s >= 0.0
            assert isinstance(p.n_migrations, int)

    def test_growth_with_size(self, result):
        flat = [p for p in result.points if not p.hierarchical]
        assert flat[-1].analysis_time_s > flat[0].analysis_time_s

    def test_top_point_well_under_interval(self, result):
        # Paper: scheduling is < 0.1% of the 600 s interval.
        assert result.top_point().total_time_s < 0.01 * 600.0

    def test_render(self, result):
        out = result.render()
        assert "scalability" in out and "paper" in out

    def test_make_instance_valid(self):
        inputs = make_instance(30, 6, np.random.default_rng(0))
        assert inputs.m == 30 and inputs.k == 6

    def test_invalid_config_rejected(self):
        with pytest.raises(ExperimentError):
            Fig7Config(sizes=())
        with pytest.raises(ExperimentError):
            Fig7Config(repeats=0)


@pytest.mark.tier2
class TestFig6QuickShape:
    def test_paper_shape_at_light_and_heavy_load(self):
        """Three rates on 16 nodes keep every qualitative feature of
        the paper's figure."""
        result = run_fig6(
            Fig6Config(
                arrival_rates=(20.0, 100.0, 300.0),
                n_nodes=16,
                n_intervals=6,
                warmup_intervals=1,
                seed=7,
                nutch=NutchConfig(n_search_groups=10, replicas_per_group=4),
            )
        )
        rates = sorted(result.results)
        heavy = result.results[rates[-1]]
        light = result.results[rates[0]]
        # PCS beats Basic and every mitigation technique at heavy load.
        for name in heavy:
            if name != "PCS":
                assert (
                    heavy["PCS"].overall_mean_s < heavy[name].overall_mean_s
                ), name
        # Redundancy helps at light load but hurts at heavy load.
        assert light["RED-3"].overall_mean_s < light["Basic"].overall_mean_s
        assert heavy["RED-3"].overall_mean_s > heavy["Basic"].overall_mean_s
        # RED-5 is the worst technique at heavy load.
        assert heavy["RED-5"].overall_mean_s == max(
            r.overall_mean_s for r in heavy.values()
        )
        # Reissue degrades more gracefully than redundancy.
        assert heavy["RI-90"].overall_mean_s < heavy["RED-3"].overall_mean_s
        head = result.headline_reduction()
        assert head["tail"] > 0 and head["mean"] > 0


@pytest.mark.tier2
class TestFig7PaperGrid:
    """One decision per Fig. 7 point up to the paper's 640x128, and
    §VI-D's grouped strategy beyond 640 components."""

    CONFIG = SchedulerConfig(threshold=StaticThreshold(ms(1)))

    @pytest.mark.parametrize(
        "m,k",
        [(40, 8), (80, 16), (160, 32), (320, 64), (640, 128)],
    )
    def test_flat_decision_under_2pct_of_interval(self, m, k):
        inputs = make_instance(m, k, np.random.default_rng(0))
        outcome = PCSScheduler(_oracle(), self.CONFIG).schedule(inputs)
        assert outcome.total_time_s < 0.02 * PAPER_INTERVAL_S

    @pytest.mark.parametrize("m", [1280, 2560])
    def test_hierarchical_decision_migrates(self, m):
        inputs = make_instance(m, 128, np.random.default_rng(0))
        outcome = HierarchicalScheduler(
            _oracle(), self.CONFIG, group_size=640
        ).schedule(inputs)
        assert outcome.n_migrations > 0


class TestPaperScalePresets:
    """Fig6Config(paper_scale=True) resolves the *scenario's* preset."""

    def test_nutch_preset_matches_paper_setup(self):
        cfg = Fig6Config(paper_scale=True)
        assert cfg.n_nodes == 30
        assert cfg.nutch.n_search_groups * cfg.nutch.replicas_per_group == 100

    @pytest.mark.parametrize(
        "scenario", ["pipeline-deep", "fanout-feed", "diamond-search", "branchy-api"]
    )
    def test_every_builtin_has_a_distinct_preset(self, scenario):
        from repro.scenarios import get_scenario

        cfg = Fig6Config(paper_scale=True, scenario=scenario)
        preset = get_scenario(scenario).paper_scale
        assert cfg.n_nodes == preset["n_nodes"]
        assert cfg.scale == preset["scale"]
        # The fix's whole point: not the Nutch 30-node constant.
        assert (cfg.n_nodes, cfg.scale) != (30, 1.0)

    def test_explicit_arguments_beat_the_preset(self):
        cfg = Fig6Config(paper_scale=True, scenario="pipeline-deep", n_nodes=7)
        assert cfg.n_nodes == 7
        assert cfg.scale == 3.0  # untouched fields still take the preset

    def test_presetless_scenario_raises_named_error(self):
        from repro.errors import ConfigurationError
        from repro.scenarios import ScenarioSpec, register_scenario

        register_scenario(
            ScenarioSpec(
                name="fig6-no-preset", description="d", build=lambda c: None
            ),
            replace_existing=True,
        )
        with pytest.raises(
            ConfigurationError, match="fig6-no-preset.*paper-scale preset"
        ):
            Fig6Config(paper_scale=True, scenario="fig6-no-preset")

    def test_bogus_preset_key_rejected(self):
        from repro.errors import ConfigurationError
        from repro.scenarios import ScenarioSpec, register_scenario

        register_scenario(
            ScenarioSpec(
                name="fig6-bad-preset", description="d", build=lambda c: None,
                paper_scale={"warp_factor": 9},
            ),
            replace_existing=True,
        )
        with pytest.raises(ConfigurationError, match="warp_factor"):
            Fig6Config(paper_scale=True, scenario="fig6-bad-preset")

    def test_quick_scale_never_touches_presets(self):
        a = Fig6Config(scenario="pipeline-deep")
        assert a.n_nodes == 12  # the scenario's quick default, not 36
        assert not a.paper_scale

    def test_explicitly_passed_default_value_beats_preset(self):
        """Sentinel defaults: scale=1.0 passed explicitly must survive
        paper_scale even though 1.0 is also the resolved default."""
        cfg = Fig6Config(paper_scale=True, scenario="pipeline-deep", scale=1.0)
        assert cfg.scale == 1.0
        assert cfg.n_nodes == 36  # untouched field still takes the preset
        nutch = NutchConfig(n_search_groups=20, replicas_per_group=5)
        cfg = Fig6Config(paper_scale=True, nutch=nutch)
        assert cfg.nutch == nutch

    def test_unset_scale_and_nutch_resolve_to_defaults(self):
        cfg = Fig6Config()
        assert cfg.scale == 1.0
        assert cfg.nutch == NutchConfig()

    def test_non_sentinel_field_preset_key_rejected(self):
        """Preset keys are restricted to the None-sentinel fields where
        'left unset' is detectable — a key like `seed` could silently
        override an explicitly passed default-equal value."""
        from repro.errors import ConfigurationError
        from repro.scenarios import ScenarioSpec, register_scenario

        register_scenario(
            ScenarioSpec(
                name="fig6-seed-preset", description="d", build=lambda c: None,
                paper_scale={"seed": 7},
            ),
            replace_existing=True,
        )
        with pytest.raises(ConfigurationError, match="not presettable"):
            Fig6Config(paper_scale=True, scenario="fig6-seed-preset")
