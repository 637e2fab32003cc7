"""Scenario registry, builders, and the name → spec → cache → summary
round-trip."""

import dataclasses

import pytest

from repro.baselines.policies import (
    AdaptiveReissuePolicy,
    BasicPolicy,
    REDPolicy,
    ReissuePolicy,
)
from repro.errors import ConfigurationError, ExperimentError
from repro.scenarios import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sim.aggregate import SweepSummary
from repro.sim.runner import ExperimentRunner, RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepCache, SweepSpec


BUILTINS = (
    "branchy-api",
    "diamond-search",
    "fanout-feed",
    "mixed-frontend",
    "nutch-search",
    "pipeline-deep",
)

#: The two ways to drive a policy evaluation that must agree byte for
#: byte: the runner facade and an explicitly constructed control loop
#: on a virtual clock (the control-plane refactor's identity contract).
DRIVERS = ("runner", "control-loop")


def _drive(runner, policy, driver):
    """Run ``policy`` through the chosen driver."""
    if driver == "runner":
        return runner.run(policy)
    from repro.controlplane import ControlLoop, VirtualClock

    state = runner.setup(policy)
    return ControlLoop(
        runner, state, clock=VirtualClock(state.engine)
    ).run()


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(scenario_names())
        assert [s.name for s in all_scenarios()] == scenario_names()

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="nutch-search"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("nutch-search")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(dataclasses.replace(spec))
        # Shadowing is explicit — and restoring the original works too.
        register_scenario(dataclasses.replace(spec), replace_existing=True)
        assert get_scenario("nutch-search").name == "nutch-search"

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="", description="d", build=lambda c: None)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", description="d", build="not-callable")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x", description="d", build=lambda c: None,
                runner_defaults={"scenario": "y"},
            )


class TestRunnerConfigIntegration:
    def test_runner_config_applies_scenario_defaults_and_overrides(self):
        spec = get_scenario("fanout-feed")
        cfg = spec.runner_config(arrival_rate=55.0)
        assert cfg.scenario == "fanout-feed"
        assert cfg.n_nodes == spec.runner_defaults["n_nodes"]
        assert cfg.generator == spec.generator
        assert cfg.arrival_rate == 55.0
        # Caller overrides win over scenario defaults.
        assert spec.runner_config(n_nodes=3).n_nodes == 3

    def test_runner_rejects_unknown_scenario(self):
        cfg = RunnerConfig(scenario="nutch-search")
        assert ExperimentRunner(cfg).scenario.name == "nutch-search"
        with pytest.raises(ConfigurationError):
            ExperimentRunner(dataclasses.replace(cfg, scenario="bogus"))

    def test_config_validates_scenario_shape_fields(self):
        with pytest.raises(ExperimentError):
            RunnerConfig(scenario="")
        with pytest.raises(ExperimentError):
            RunnerConfig(scale=0.0)


class TestBuilders:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_build_is_deterministic(self, name):
        spec = get_scenario(name)
        cfg = spec.runner_config()
        a = spec.build_service(cfg)
        b = spec.build_service(cfg)
        assert [c.name for c in a.components] == [c.name for c in b.components]
        assert [c.cls for c in a.components] == [c.cls for c in b.components]
        assert a.name == name

    @pytest.mark.parametrize("name", BUILTINS)
    def test_classes_are_homogeneous(self, name):
        """§VI-D's one-campaign-per-class argument must hold: every
        component of a class shares one base distribution."""
        spec = get_scenario(name)
        service = spec.build_service(spec.runner_config())
        per_class = {}
        for comp in service.components:
            moments = (comp.base_service.mean, comp.base_service.scv)
            per_class.setdefault(comp.cls, set()).add(moments)
        assert all(len(v) == 1 for v in per_class.values()), per_class

    @pytest.mark.parametrize(
        "name",
        ["pipeline-deep", "fanout-feed", "diamond-search", "mixed-frontend"],
    )
    def test_scale_shrinks_shape(self, name):
        spec = get_scenario(name)
        full = spec.build_service(spec.runner_config())
        small = spec.build_service(spec.runner_config(scale=0.3))
        assert small.n_components < full.n_components
        assert small.topology.n_stages == full.topology.n_stages

    def test_nutch_ignores_scale(self):
        spec = get_scenario("nutch-search")
        a = spec.build_service(spec.runner_config())
        b = spec.build_service(spec.runner_config(scale=0.25))
        assert a.n_components == b.n_components

    @pytest.mark.parametrize("name", BUILTINS)
    def test_components_carry_demands(self, name):
        """Without resource footprints the scheduler has nothing to
        balance and interference has nothing to bite on."""
        spec = get_scenario(name)
        service = spec.build_service(spec.runner_config())
        assert all(c.demand.norm() > 0 for c in service.components)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_describe_mentions_name_and_size(self, name):
        line = get_scenario(name).describe()
        assert name in line and "components" in line


class TestEndToEndGolden:
    """Anchors: the nutch scenario reproduces the pre-scenario runner's
    exact metrics, and a non-Nutch scenario runs the full loop."""

    #: Captured from the PR 2 (pre-scenario, pre-kernel) tree with this
    #: exact config: (component p99, overall mean, requests, migrations).
    NUTCH_GOLDEN = (0.032696190254697687, 0.014752647216108854, 652, 0)

    def _config(self, **overrides):
        from repro.service.nutch import NutchConfig
        from repro.workloads.generator import GeneratorConfig

        kwargs = dict(
            n_nodes=6,
            arrival_rate=40.0,
            interval_s=8.0,
            n_intervals=3,
            warmup_intervals=1,
            seed=0,
            nutch=NutchConfig(
                n_search_groups=3, replicas_per_group=2,
                n_segmenters=1, n_aggregators=1,
            ),
            generator=GeneratorConfig(
                jobs_per_node_per_s=0.02, max_batch_jobs_per_node=3
            ),
            n_profiling_conditions=8,
        )
        kwargs.update(overrides)
        return RunnerConfig(**kwargs)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_nutch_scenario_reproduces_pre_refactor_run(self, driver):
        result = _drive(
            ExperimentRunner(self._config()), BasicPolicy(), driver
        )
        got = (
            result.component_p99_s,
            result.overall_mean_s,
            result.n_requests,
            result.n_migrations,
        )
        assert got == self.NUTCH_GOLDEN

    def test_phases_compose_to_run(self):
        """setup / run_interval / collect driven by hand equals run()."""
        runner = ExperimentRunner(self._config())
        state = runner.setup(BasicPolicy())
        for interval in range(runner.config.n_intervals):
            runner.run_interval(state, interval)
        by_hand = runner.collect(state)
        assert (
            by_hand.metrics_dict()
            == ExperimentRunner(self._config()).run(BasicPolicy()).metrics_dict()
        )

    def test_collect_without_measured_intervals_fails_loudly(self):
        runner = ExperimentRunner(self._config())
        state = runner.setup(BasicPolicy())
        with pytest.raises(ExperimentError, match="no measured intervals"):
            runner.collect(state)


class TestChainGoldenMetrics:
    """The DAG refactor's bit-identity anchor: every *chain* scenario's
    full ``metrics_dict()`` is pinned to the values captured from the
    pre-DAG tree (PR 4 head) under exactly these configs."""

    #: Captured pre-refactor, scenario → full metrics_dict().
    GOLDEN = {
        "nutch-search": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.02848187515636651, "mean": 0.0034055513014597093,
                "n": 3260, "p50": 0.0023974346230048287,
                "p95": 0.009484035222648037, "p99": 0.016676826590078464,
            },
            "n_migrations": 0,
            "n_requests": 652,
            "overall_latency": {
                "max": 0.03158492559686175, "mean": 0.01067995006166851,
                "n": 652, "p50": 0.009474671226809693,
                "p95": 0.01999988411894576, "p99": 0.025287876275378658,
            },
            "per_interval_component_p99": [
                0.01594612490513156, 0.017396587315645397,
            ],
            "per_interval_overall_mean": [
                0.010510761135038398, 0.01083906821885635,
            ],
            "policy_name": "Basic",
        },
        "pipeline-deep": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.03823634661814249, "mean": 0.0030834398734233596,
                "n": 3460, "p50": 0.0021273934987361635,
                "p95": 0.0089867072888115, "p99": 0.014595674235166127,
            },
            "n_migrations": 0,
            "n_requests": 692,
            "overall_latency": {
                "max": 0.04261899032825607, "mean": 0.015417199367116797,
                "n": 692, "p50": 0.014656155798478624,
                "p95": 0.02581964883883832, "p99": 0.03262948639763774,
            },
            "per_interval_component_p99": [
                0.014585743150780654, 0.014595674235166127,
            ],
            "per_interval_overall_mean": [
                0.015442174913744812, 0.015392935374523766,
            ],
            "policy_name": "Basic",
        },
        "fanout-feed": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.09530204407395518, "mean": 0.00427213382574739,
                "n": 4585, "p50": 0.0032480006049004093,
                "p95": 0.010450553393636817, "p99": 0.020405171464071094,
            },
            "n_migrations": 0,
            "n_requests": 655,
            "overall_latency": {
                "max": 0.10056904557127704, "mean": 0.015570744512858434,
                "n": 655, "p50": 0.013009434912588512,
                "p95": 0.03005345403681821, "p99": 0.06569784087416465,
            },
            "per_interval_component_p99": [
                0.021940572038812285, 0.018971918188083543,
            ],
            "per_interval_overall_mean": [
                0.01665182863472759, 0.014389496047429513,
            ],
            "policy_name": "Basic",
        },
    }

    #: The routing baselines on the nutch-search config, captured at the
    #: commit before node contention was read with one in-place sum:
    #: they pin the path from each policy's induced load through
    #: ``set_load`` to demand, contention and service distributions.
    ROUTING_GOLDEN = {
        "RED-3": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.025548514279601697, "mean": 0.0026003905759646425,
                "n": 3065, "p50": 0.002085066604302188,
                "p95": 0.0061161644201481735, "p99": 0.010056163641439575,
            },
            "n_migrations": 0,
            "n_requests": 613,
            "overall_latency": {
                "max": 0.02841512312290667, "mean": 0.008084933735268814,
                "n": 613, "p50": 0.007340385959444341,
                "p95": 0.014310657357612312, "p99": 0.01990031209862937,
            },
            "per_interval_component_p99": [
                0.00956568585505746, 0.010191895226135728,
            ],
            "per_interval_overall_mean": [
                0.008067579480842803, 0.008102458687279344,
            ],
            "policy_name": "RED-3",
        },
        "RI-90": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.02263106214576617, "mean": 0.0034130608973257552,
                "n": 3100, "p50": 0.0024179036707532436,
                "p95": 0.01005685151236995, "p99": 0.013349062028313655,
            },
            "n_migrations": 0,
            "n_requests": 620,
            "overall_latency": {
                "max": 0.025847955301061355, "mean": 0.010425726210811453,
                "n": 620, "p50": 0.009570151152782102,
                "p95": 0.017070086461450425, "p99": 0.020835821993620923,
            },
            "per_interval_component_p99": [
                0.01342976169348407, 0.013023985195262893,
            ],
            "per_interval_overall_mean": [
                0.010591867915814374, 0.010268959272861988,
            ],
            "policy_name": "RI-90",
        },
        "ARI-90": {
            "arrival_rate": 40.0,
            "component_latency": {
                "max": 0.019110949189891924, "mean": 0.0034297999452226327,
                "n": 3310, "p50": 0.0024369284723012173,
                "p95": 0.009765947898306029, "p99": 0.01263490487255327,
            },
            "n_migrations": 0,
            "n_requests": 662,
            "overall_latency": {
                "max": 0.022343699292656772, "mean": 0.010525518886636151,
                "n": 662, "p50": 0.010094960867998352,
                "p95": 0.016772575824540926, "p99": 0.01929176093875716,
            },
            "per_interval_component_p99": [
                0.012302677258720043, 0.013042725606633979,
            ],
            "per_interval_overall_mean": [
                0.010531796225858127, 0.010519680778146906,
            ],
            "policy_name": "ARI-90",
        },
    }

    SCALES = {"nutch-search": 1.0, "pipeline-deep": 0.5, "fanout-feed": 0.2}

    def _config(self, scenario):
        from repro.service.nutch import NutchConfig

        spec = get_scenario(scenario)
        kwargs = dict(
            n_nodes=6, arrival_rate=40.0, interval_s=8.0, n_intervals=3,
            warmup_intervals=1, seed=0, n_profiling_conditions=8,
            scale=self.SCALES[scenario],
        )
        if scenario == "nutch-search":
            kwargs["nutch"] = NutchConfig(
                n_search_groups=3, replicas_per_group=2,
                n_segmenters=1, n_aggregators=1,
            )
        return spec.runner_config(**kwargs)

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize(
        "scenario", ["nutch-search", "pipeline-deep", "fanout-feed"]
    )
    def test_chain_metrics_bit_identical(self, scenario, driver):
        cfg = self._config(scenario)
        result = _drive(ExperimentRunner(cfg), BasicPolicy(), driver)
        assert result.metrics_dict() == self.GOLDEN[scenario]

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize(
        "policy",
        [
            REDPolicy(replicas=3),
            ReissuePolicy(quantile=0.90),
            AdaptiveReissuePolicy(quantile=0.90),
        ],
        ids=lambda p: p.name,
    )
    def test_routing_policy_metrics_bit_identical(self, policy, driver):
        cfg = self._config("nutch-search")
        result = _drive(ExperimentRunner(cfg), policy, driver)
        assert result.metrics_dict() == self.ROUTING_GOLDEN[policy.name]


class TestDagScenarios:
    """The DAG built-ins: shape, sizing rule, end-to-end viability."""

    def test_builders_are_dags(self):
        for name in ("diamond-search", "branchy-api"):
            spec = get_scenario(name)
            topo = spec.build_service(spec.runner_config()).topology
            assert not topo.is_chain
            assert topo.has_optional_groups
            # Both carry a genuine skip edge: the exit stage lists the
            # entry stage among its predecessors.
            exit_preds = topo.predecessor_indices[topo.exit_indices[0]]
            assert 0 in exit_preds and len(exit_preds) > 1

    def test_sizing_rule_pinned_to_built_shape(self):
        """The registered n_nodes defaults derive from the *actual*
        component count via suggested_n_nodes — a shape edit that
        forgets the preset breaks here."""
        from repro.scenarios import suggested_n_nodes
        from repro.scenarios.builtin import (
            BRANCHY_COMPONENTS,
            DIAMOND_COMPONENTS,
        )

        for name, declared in (
            ("diamond-search", DIAMOND_COMPONENTS),
            ("branchy-api", BRANCHY_COMPONENTS),
        ):
            spec = get_scenario(name)
            built = spec.build_service(spec.runner_config())
            assert built.n_components == declared
            assert spec.runner_defaults["n_nodes"] == suggested_n_nodes(
                declared
            )

    def test_suggested_n_nodes_rule(self):
        from repro.errors import ConfigurationError
        from repro.scenarios import suggested_n_nodes

        assert suggested_n_nodes(1) == 8  # the floor
        assert suggested_n_nodes(30) == 10
        assert suggested_n_nodes(31) == 11
        with pytest.raises(ConfigurationError):
            suggested_n_nodes(0)

    def test_describe_shows_dag_shape(self):
        line = get_scenario("diamond-search").describe()
        assert "<-" in line and "opt" in line

    @pytest.mark.parametrize("name", ["diamond-search", "branchy-api"])
    def test_runs_end_to_end_with_pcs(self, name):
        from repro.experiments.fig6 import paper_pcs_policy

        spec = get_scenario(name)
        cfg = spec.runner_config(
            n_nodes=8, arrival_rate=40.0, interval_s=8.0, n_intervals=3,
            warmup_intervals=1, seed=0, n_profiling_conditions=8, scale=0.5,
        )
        result = ExperimentRunner(cfg).run(paper_pcs_policy())
        assert result.n_requests > 0
        assert result.component_p99_s > 0

    @pytest.mark.parametrize("name", ["diamond-search", "branchy-api"])
    def test_deterministic_across_runs(self, name):
        """Optional-group Bernoulli draws come from the seeded request
        stream: two runs of one config agree exactly."""
        spec = get_scenario(name)
        cfg = spec.runner_config(
            n_nodes=8, arrival_rate=30.0, interval_s=8.0, n_intervals=3,
            warmup_intervals=1, seed=1, n_profiling_conditions=8, scale=0.5,
        )
        a = ExperimentRunner(cfg).run(BasicPolicy())
        b = ExperimentRunner(cfg).run(BasicPolicy())
        assert a.metrics_dict() == b.metrics_dict()


class TestMixedFrontendScenario:
    """The classed built-in: shape pin, class declarations, catalog."""

    def test_sizing_rule_pinned_to_built_shape(self):
        from repro.scenarios import suggested_n_nodes
        from repro.scenarios.builtin import MIXED_FRONTEND_COMPONENTS

        spec = get_scenario("mixed-frontend")
        built = spec.build_service(spec.runner_config())
        assert built.n_components == MIXED_FRONTEND_COMPONENTS
        assert spec.runner_defaults["n_nodes"] == suggested_n_nodes(
            MIXED_FRONTEND_COMPONENTS
        )

    def test_declared_classes_restrict_the_dag(self):
        spec = get_scenario("mixed-frontend")
        topo = spec.build_service(spec.runner_config()).topology
        mix = topo.resolve_classes(spec.request_classes)
        assert mix is not None
        assert mix.names == ("search", "autocomplete", "image-heavy")
        col = {g: i for i, g in enumerate(mix.group_names)}
        # Autocomplete keystrokes visit only gateway -> suggest -> blend.
        auto = mix.group_participation[1]
        assert all(auto[col[f"search-g{g:02d}"]] == 0.0 for g in range(4))
        assert auto[col["image-g0"]] == 0.0
        assert auto[col["suggest-g0"]] == 1.0
        # Image-heavy queries make the optional image lookup mandatory.
        assert mix.group_participation[2][col["image-g0"]] == 1.0
        # Every class keeps >= 1 mandatory branch into blend, so
        # class-skipped stages can pass through without a skip edge.
        assert (mix.stage_participation.max(axis=1) == 1.0).all()

    def test_class_group_names_stable_under_scale(self):
        """Class participation bakes group names into the frozen spec:
        scale may widen replica counts but must never rename or
        renumber the groups the declarations address."""
        spec = get_scenario("mixed-frontend")
        for scale in (0.5, 1.0, 2.0):
            topo = spec.build_service(spec.runner_config(scale=scale)).topology
            assert topo.resolve_classes(spec.request_classes) is not None

    def test_describe_shows_class_table(self):
        line = get_scenario("mixed-frontend").describe()
        assert "classes:" in line
        assert "autocomplete(w=0.30, x0.5)" in line
        assert "image-heavy(w=0.10, x1.6)" in line


class TestSweepRoundTrip:
    """Scenario name → spec → sweep cache manifest → rebuilt summary."""

    def _spec(self, scenario: str) -> SweepSpec:
        s = get_scenario(scenario)
        return SweepSpec(
            base=s.runner_config(
                n_nodes=6,
                arrival_rate=30.0,
                interval_s=8.0,
                n_intervals=3,
                warmup_intervals=1,
                seed=0,
                scale=0.4,
            ),
            policies=(BasicPolicy(),),
            arrival_rates=(30.0,),
            seeds=(0, 1),
        )

    @pytest.mark.parametrize(
        "scenario", ["pipeline-deep", "fanout-feed", "diamond-search"]
    )
    def test_cache_round_trip(self, scenario, tmp_path):
        spec = self._spec(scenario)
        assert spec.scenario == scenario
        cache = SweepCache(tmp_path)
        result = ParallelSweepRunner(spec, workers=1, cache=cache).run()

        manifest = cache.manifest()
        assert manifest["spec"]["scenario"] == scenario
        assert manifest["spec"]["base"]["scenario"] == scenario

        rebuilt = SweepSummary.from_cache(cache)
        assert rebuilt.to_dict() == result.summary().to_dict()

    def test_scenarios_get_distinct_cache_keys(self, tmp_path):
        """Two scenarios over otherwise identical knobs must never
        collide in a shared cache directory."""
        from repro.sim.sweep import point_cache_key

        a = self._spec("pipeline-deep")
        b = self._spec("fanout-feed")
        pa, pb = a.points()[0], b.points()[0]
        assert point_cache_key(a.runner_config(pa), pa.policy) != point_cache_key(
            b.runner_config(pb), pb.policy
        )
