"""Tests for the parallel sweep-execution subsystem."""

import json
import os
import time
from dataclasses import dataclass

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
from repro.errors import (
    CacheCorruptionError,
    ConfigurationError,
    ExperimentError,
    SweepExecutionError,
    SweepLookupError,
)
from repro.service.nutch import NutchConfig
from repro.sim.backends import ProcessBackend, SerialBackend
from repro.sim.metrics import LatencySummary
from repro.sim.runner import ExperimentRunner, PolicyResult, RunnerConfig
from repro.sim.sweep import (
    ParallelSweepRunner,
    SweepCache,
    SweepSpec,
    parallel_map,
    point_cache_key,
    policy_from_name,
)
from repro.workloads.generator import GeneratorConfig


@dataclass(frozen=True)
class ExplodingPolicy(Policy):
    """A deliberately failing policy: its worker raises during setup.

    Module-level (and a plain frozen dataclass) so it pickles to spawn
    workers like any real policy descriptor.
    """

    name: str = "Exploding"

    def induced_load(self):
        raise RuntimeError("deliberate sweep-point failure")


def _tiny_base(**overrides) -> RunnerConfig:
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


def _tiny_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        base=_tiny_base(),
        policies=(BasicPolicy(), REDPolicy(replicas=2)),
        arrival_rates=(30.0, 70.0),
        seeds=(0, 1),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_grid_size_and_order(self):
        spec = _tiny_spec()
        points = spec.points()
        assert len(points) == spec.n_points == 2 * 2 * 2
        # Rate-major order, then policy, then seed.
        assert [p.arrival_rate for p in points[:4]] == [30.0] * 4
        assert points[0].policy.name == "Basic" and points[0].seed == 0
        assert points[1].seed == 1
        assert points[2].policy.name == "RED-2"

    def test_runner_config_overrides_rate_and_seed(self):
        spec = _tiny_spec()
        point = spec.points()[-1]
        cfg = spec.runner_config(point)
        assert cfg.arrival_rate == point.arrival_rate == 70.0
        assert cfg.seed == point.seed == 1
        assert cfg.n_nodes == spec.base.n_nodes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policies": ()},
            {"arrival_rates": ()},
            {"seeds": ()},
            {"arrival_rates": (0.0,)},
            {"arrival_rates": (50.0, 50.0)},
            {"seeds": (3, 3)},
            {"policies": (BasicPolicy(), BasicPolicy())},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            _tiny_spec(**kwargs)


class TestCacheKey:
    def test_identity_is_config_policy_rate_seed(self):
        spec = _tiny_spec()
        a, b = spec.points()[0], spec.points()[1]
        key_a = point_cache_key(spec.runner_config(a), a.policy)
        key_a2 = point_cache_key(spec.runner_config(a), a.policy)
        key_b = point_cache_key(spec.runner_config(b), b.policy)
        assert key_a == key_a2
        assert key_a != key_b  # differs by seed only

    def test_policy_parameters_change_key(self):
        cfg = _tiny_base()
        assert point_cache_key(cfg, REDPolicy(replicas=3)) != point_cache_key(
            cfg, REDPolicy(replicas=5)
        )
        assert point_cache_key(cfg, BasicPolicy()) != point_cache_key(
            cfg, PCSPolicy()
        )

    def test_config_knobs_change_key(self):
        key1 = point_cache_key(_tiny_base(), BasicPolicy())
        key2 = point_cache_key(_tiny_base(n_intervals=4), BasicPolicy())
        assert key1 != key2


class TestSerialSweep:
    @pytest.fixture(scope="class")
    def outcome(self):
        spec = _tiny_spec()
        ticks = []
        result = ParallelSweepRunner(spec, workers=1, progress=ticks.append).run()
        return spec, result, ticks

    def test_all_points_present_in_grid_order(self, outcome):
        spec, result, _ = outcome
        assert list(result.results) == spec.points()

    def test_matches_direct_runner(self, outcome):
        spec, result, _ = outcome
        point = spec.points()[0]
        direct = ExperimentRunner(spec.runner_config(point)).run(point.policy)
        assert result.results[point].metrics_dict() == direct.metrics_dict()

    def test_progress_ticks_every_point(self, outcome):
        spec, _, ticks = outcome
        assert len(ticks) == spec.n_points
        assert [t.done for t in ticks] == list(range(1, spec.n_points + 1))
        assert all(t.total == spec.n_points for t in ticks)
        assert not any(t.from_cache for t in ticks)
        assert "req/s" in ticks[0].render()

    def test_by_rate_slices_one_seed(self, outcome):
        spec, result, _ = outcome
        per_rate = result.by_rate(seed=1)
        assert set(per_rate) == {30.0, 70.0}
        assert list(per_rate[30.0]) == ["Basic", "RED-2"]
        # Multi-seed grid: seed selection is mandatory.
        with pytest.raises(ExperimentError):
            result.by_rate()
        with pytest.raises(ExperimentError):
            result.by_rate(seed=99)

    def test_get_by_coordinates(self, outcome):
        spec, result, _ = outcome
        r = result.get("RED-2", 70.0, seed=0)
        assert r.policy_name == "RED-2" and r.arrival_rate == 70.0
        with pytest.raises(ExperimentError):
            result.get("PCS", 70.0, seed=0)

    def test_get_defaults_to_first_grid_seed(self, outcome):
        spec, result, _ = outcome
        assert result.get("Basic", 30.0) is result.get(
            "Basic", 30.0, seed=spec.seeds[0]
        )

    def test_get_miss_names_available_coordinates(self, outcome):
        spec, result, _ = outcome
        with pytest.raises(SweepLookupError) as err:
            result.get("PCS", 30.0, seed=0)
        message = str(err.value)
        # The error teaches the caller what the grid actually holds.
        assert "'Basic'" in message and "'RED-2'" in message
        assert "30" in message and "70" in message
        assert "[0, 1]" in message
        with pytest.raises(SweepLookupError):
            result.get("Basic", 31.0)
        with pytest.raises(SweepLookupError):
            result.get("Basic", 30.0, seed=5)

    def test_render_summarises(self, outcome):
        spec, result, _ = outcome
        out = result.render()
        assert f"{spec.n_points} points" in out
        assert "0 from cache" in out

    def test_seeds_differentiate_results(self, outcome):
        spec, result, _ = outcome
        a = result.get("Basic", 30.0, seed=0)
        b = result.get("Basic", 30.0, seed=1)
        assert a.component_p99_s != b.component_p99_s


_SUMMARY = LatencySummary(
    n=4, mean=0.012, p50=0.01, p95=0.02, p99=0.025, max=0.03
)

#: Each optional provenance field of PolicyResult at a non-inert value,
#: in to_dict() order.
_PROVENANCE = {
    "per_class": {"search": _SUMMARY},
    "summary_mode": "streaming",
    "chunk_fallback": True,
    "per_interval_duplicate_load": [0.25, 0.5],
}


def _bare_result(**provenance) -> PolicyResult:
    return PolicyResult(
        policy_name="Basic",
        arrival_rate=40.0,
        component_latency=_SUMMARY,
        overall_latency=_SUMMARY,
        per_interval_component_p99=[0.025],
        per_interval_overall_mean=[0.012],
        n_requests=4,
        n_migrations=0,
        scheduling_time_s=0.0,
        wall_time_s=0.5,
        **provenance,
    )


class TestPolicyResultRoundtrip:
    @pytest.mark.parametrize("is_set", [True, False], ids=["set", "unset"])
    @pytest.mark.parametrize("field", list(_PROVENANCE))
    def test_provenance_field_round_trips(self, field, is_set):
        # Serialised only when set; decoded back to the inert value
        # when absent.
        result = _bare_result(**({field: _PROVENANCE[field]} if is_set else {}))
        d = json.loads(json.dumps(result.to_dict()))
        assert (field in d) is is_set
        assert PolicyResult.from_dict(d) == result

    def test_provenance_keys_follow_the_core_fields_in_order(self):
        d = _bare_result(**_PROVENANCE).to_dict()
        assert list(d)[-len(_PROVENANCE):] == list(_PROVENANCE)

    def test_json_roundtrip_is_exact(self):
        spec = _tiny_spec()
        point = spec.points()[0]
        result = ExperimentRunner(spec.runner_config(point)).run(point.policy)
        blob = json.dumps(result.to_dict())
        back = PolicyResult.from_dict(json.loads(blob))
        assert back == result  # includes the timing fields

    def test_metrics_dict_drops_timings(self):
        spec = _tiny_spec()
        point = spec.points()[0]
        result = ExperimentRunner(spec.runner_config(point)).run(point.policy)
        d = result.metrics_dict()
        assert "wall_time_s" not in d and "scheduling_time_s" not in d
        assert d["n_requests"] == result.n_requests


class TestSweepCache:
    def test_full_rerun_hits_every_point(self, tmp_path):
        spec = _tiny_spec(seeds=(0,))
        first = ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
        assert first.cache_hits == 0
        again = ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
        assert again.cache_hits == spec.n_points
        for point in spec.points():
            assert (
                again.results[point].metrics_dict()
                == first.results[point].metrics_dict()
            )

    def test_interrupted_sweep_resumes(self, tmp_path):
        spec = _tiny_spec(seeds=(0,))
        cache = SweepCache(tmp_path)
        full = ParallelSweepRunner(spec, workers=1, cache=cache).run()
        # Simulate an interruption that lost one point.
        victim = spec.points()[-1]
        cache.path_for(
            point_cache_key(spec.runner_config(victim), victim.policy)
        ).unlink()
        assert len(cache) == spec.n_points - 1
        resumed = ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert resumed.cache_hits == spec.n_points - 1
        assert (
            resumed.results[victim].metrics_dict()
            == full.results[victim].metrics_dict()
        )

    def test_corrupt_entry_raises_named_error(self, tmp_path):
        # Atomic writes mean a half-written point can never be
        # self-inflicted, so corruption is real damage: it must raise a
        # named error identifying the file, not read as a silent miss.
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        cache = SweepCache(tmp_path)
        ParallelSweepRunner(spec, workers=1, cache=cache).run()
        point = spec.points()[0]
        key = point_cache_key(spec.runner_config(point), point.policy)
        cache.path_for(key).write_text("{not json")
        with pytest.raises(CacheCorruptionError) as err:
            cache.load(key)
        assert str(cache.path_for(key)) in str(err.value)
        assert err.value.path == cache.path_for(key)
        # Deleting the damaged entry recovers: the point is recomputed.
        cache.path_for(key).unlink()
        rerun = ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert rerun.cache_hits == spec.n_points - 1

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        cache = SweepCache(tmp_path)
        ParallelSweepRunner(spec, workers=1, cache=cache).run()
        point = spec.points()[0]
        key = point_cache_key(spec.runner_config(point), point.policy)
        payload = json.loads(cache.path_for(key).read_text())
        payload["version"] = -1
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.load(key) is None

    def test_progress_reports_cache_hits(self, tmp_path):
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
        ticks = []
        ParallelSweepRunner(
            spec, workers=1, cache=tmp_path, progress=ticks.append
        ).run()
        assert all(t.from_cache for t in ticks)
        assert "cache" in ticks[0].render()

    def test_clear(self, tmp_path):
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        cache = SweepCache(tmp_path)
        ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert len(cache) == spec.n_points
        assert cache.clear() == spec.n_points
        assert len(cache) == 0


class TestParallelExecution:
    """Parallel fan-out must be metric-identical to the serial path.

    Kept small: the spawn start method pays an interpreter+numpy import
    per worker, so this is the slowest test in the module.
    """

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        spec = _tiny_spec(arrival_rates=(40.0,), seeds=(0, 1))
        serial = ParallelSweepRunner(spec, workers=1).run()
        parallel = ParallelSweepRunner(spec, workers=2, cache=tmp_path).run()
        for point in spec.points():
            assert (
                parallel.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), point.describe()
        # And the parallel run populated the resume cache.
        assert len(SweepCache(tmp_path)) == spec.n_points

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepRunner(_tiny_spec(), workers=0)

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="ssh"):
            ParallelSweepRunner(_tiny_spec(), workers=2, backend="ssh")

    def test_process_backend_instance_matches_serial_bit_for_bit(self):
        spec = _tiny_spec(arrival_rates=(40.0,), seeds=(0,))
        serial = ParallelSweepRunner(spec, workers=1).run()
        spawned = ParallelSweepRunner(spec, backend=ProcessBackend(2)).run()
        for point in spec.points():
            assert (
                spawned.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), point.describe()

    def test_backend_instance_accepted(self):
        spec = _tiny_spec(
            policies=(BasicPolicy(),), arrival_rates=(40.0,), seeds=(0,)
        )
        named = ParallelSweepRunner(spec, backend="serial").run()
        direct = ParallelSweepRunner(spec, backend=SerialBackend()).run()
        point = spec.points()[0]
        assert (
            direct.results[point].metrics_dict()
            == named.results[point].metrics_dict()
        )


class TestWorkerValidationCLI:
    """CLI arg-parser side of the workers/backend validation."""

    @pytest.mark.parametrize("command", ["sweep", "fig5", "fig6", "fig7"])
    def test_workers_zero_is_a_usage_error(self, command, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--workers", "0"])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_valid_backend_args_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--workers", "3", "--backend", "process"]
        )
        assert (args.workers, args.backend) == (3, "process")

    @pytest.mark.parametrize("command", ["sweep", "fig5", "fig6", "fig7"])
    def test_thread_backend_is_a_usage_error(self, command, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--backend", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "fig5", "fig6", "fig7"])
    def test_chunk_size_is_a_usage_error(self, command, capsys):
        # Local processes and spool jobs both carry one point each;
        # no command takes a chunk size.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--chunk-size", "2"])
        assert exit_info.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--workers", "2"), ("--backend", "serial"), ("--chunk-size", "2")],
        ids=["--workers", "--backend", "--chunk-size"],
    )
    def test_aggregate_takes_no_execution_flags(self, flag, value, capsys):
        # aggregate loads cache points inline; it has nothing to fan out.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["aggregate", "--cache-dir", "c", flag, value]
            )
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in (
            capsys.readouterr().err
        )

    def test_fig5_fig7_default_backend_is_driver_resolved(self):
        # fig5/fig7 drivers resolve the default themselves, from their
        # own cost estimates, so the parser must hand them None
        # (sweep/fig6 keep the literal "auto").
        from repro.cli import build_parser

        assert build_parser().parse_args(["fig5"]).backend is None
        assert build_parser().parse_args(["fig7"]).backend is None
        assert build_parser().parse_args(["sweep"]).backend == "auto"
        assert build_parser().parse_args(["fig6"]).backend == "auto"


class TestFailureHardening:
    """A failing point must not poison the sweep (named error, cached
    peers, resumable rerun) — regression for the raw-propagation bug."""

    def _spec_with_exploding_policy(self, **overrides):
        return _tiny_spec(
            policies=(BasicPolicy(), ExplodingPolicy()),
            arrival_rates=(30.0,),
            seeds=(0, 1),
            **overrides,
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failure_raises_named_error_with_coordinates(
        self, backend, tmp_path
    ):
        spec = self._spec_with_exploding_policy()
        runner = ParallelSweepRunner(
            spec, workers=2, cache=tmp_path, backend=backend
        )
        with pytest.raises(SweepExecutionError) as err:
            runner.run()
        assert err.value.policy == "Exploding"
        assert err.value.arrival_rate == 30.0
        assert err.value.seed in (0, 1)
        message = str(err.value)
        assert "Exploding" in message and "deliberate" in message
        assert "resumes" in message

    def test_finished_peers_stay_cached_and_rerun_resumes(self, tmp_path):
        spec = self._spec_with_exploding_policy()
        cache = SweepCache(tmp_path)
        with pytest.raises(SweepExecutionError):
            # Serial backend: both Basic points run (grid order puts
            # Basic before Exploding) and land in the cache first.
            ParallelSweepRunner(spec, cache=cache, backend="serial").run()
        assert len(cache) == 2  # the two Basic points
        # The sweep did not complete: no completion stamp on the manifest.
        assert cache.manifest()["completed"] is None
        # Dropping the broken policy resumes from the cached peers.
        fixed = SweepSpec(
            base=spec.base,
            policies=(BasicPolicy(),),
            arrival_rates=spec.arrival_rates,
            seeds=spec.seeds,
        )
        resumed = ParallelSweepRunner(fixed, cache=cache).run()
        assert resumed.cache_hits == 2
        assert cache.manifest()["completed"] is not None

    def test_bad_worker_index_still_named(self):
        # Defensive path: an index the runner cannot map back still
        # raises the named error (with unknown coordinates).
        from repro.errors import WorkerTaskError

        class _BrokenIndexBackend(SerialBackend):
            def imap_unordered(self, fn, items):
                raise WorkerTaskError("task -1 raised: ?", index=None)
                yield  # pragma: no cover

        spec = self._spec_with_exploding_policy()
        with pytest.raises(SweepExecutionError) as err:
            ParallelSweepRunner(spec, backend=_BrokenIndexBackend()).run()
        assert err.value.policy is None
        assert "unknown point" in str(err.value)


def _square(x: int) -> int:
    return x * x


class TestParallelMap:
    def test_inline_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1], workers=0)

    def test_multi_worker_path_preserves_order(self):
        # Three items auto-route to the serial backend (small batch).
        assert parallel_map(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_explicit_process_backend_preserves_order(self):
        assert parallel_map(
            _square, [3, 1, 2], workers=2, backend="process"
        ) == [9, 1, 4]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1, 2], workers=2, backend="ssh")


class TestPolicyFromName:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Basic", BasicPolicy()),
            ("basic", BasicPolicy()),
            ("RED-3", REDPolicy(replicas=3)),
            ("red-5", REDPolicy(replicas=5)),
            ("RI-90", ReissuePolicy(quantile=0.90)),
            ("RI-99", ReissuePolicy(quantile=0.99)),
            ("Hedge", HedgedPolicy()),
            ("hedge-5", HedgedPolicy(hedge_delay_s=0.005)),
            ("Hedge-7.5ms", HedgedPolicy(hedge_delay_s=0.0075)),
        ],
    )
    def test_legend_names(self, name, expected):
        assert policy_from_name(name) == expected

    def test_pcs_uses_fig6_configuration(self):
        from repro.experiments.fig6 import paper_pcs_policy

        assert policy_from_name("PCS") == paper_pcs_policy()

    @pytest.mark.parametrize("name", ["FANCY", "RED-x", "RI-", "RED"])
    def test_unknown_rejected(self, name):
        with pytest.raises(ConfigurationError):
            policy_from_name(name)


class TestCostAwareBackendSelection:
    """Regression for the ROADMAP-documented auto_backend bug: a small
    grid of expensive points with --workers N must route to process
    workers without the user having to pass --backend process."""

    def _expensive_spec(self) -> SweepSpec:
        # 10 intervals x 120 s x 60 nodes: well past the spawn-tax
        # cutoff under the spec-based cost estimate.
        base = _tiny_base(
            n_nodes=60, interval_s=120.0, n_intervals=10, warmup_intervals=1
        )
        return SweepSpec(
            base=base,
            policies=(BasicPolicy(), REDPolicy(replicas=2)),
            arrival_rates=(30.0, 70.0),
            seeds=(0,),
        )

    def test_small_expensive_grid_auto_selects_process(self):
        from repro.sim.sweep import estimated_point_cost_s

        spec = self._expensive_spec()
        assert spec.n_points == 4  # the ISSUE's regression shape
        runner = ParallelSweepRunner(spec, workers=4)
        backend = runner._resolve_backend(spec.n_points, [])
        assert isinstance(backend, ProcessBackend)
        assert estimated_point_cost_s(spec.base) >= 2.0

    def test_small_cheap_grid_auto_selects_serial(self):
        spec = _tiny_spec(seeds=(0,))  # 4 cheap points
        runner = ParallelSweepRunner(spec, workers=4)
        assert runner._resolve_backend(spec.n_points, []).name == "serial"

    def test_explicit_backend_still_wins(self):
        runner = ParallelSweepRunner(
            self._expensive_spec(), workers=4, backend="serial"
        )
        assert runner._resolve_backend(4, []).name == "serial"

    def test_measured_cache_timings_override_spec_estimate(self):
        """On a resumed sweep the cache hits carry measured wall-clock;
        the estimate must use them over the spec model."""
        @dataclass
        class _Timed:
            wall_time_s: float

        spec = _tiny_spec(seeds=(0,))  # cheap by the spec estimate
        runner = ParallelSweepRunner(spec, workers=4)
        cheap = runner._estimate_point_cost([])
        assert cheap < 2.0
        measured = runner._estimate_point_cost([_Timed(9.0), _Timed(11.0)])
        assert measured == pytest.approx(10.0)
        assert runner._resolve_backend(4, [_Timed(9.0), _Timed(11.0)]).name == (
            "process"
        )

    def test_estimate_scales_with_spec_knobs(self):
        from repro.sim.sweep import estimated_point_cost_s

        small = estimated_point_cost_s(_tiny_base())
        big = estimated_point_cost_s(_tiny_base(n_nodes=60, interval_s=120.0))
        assert big > small > 0


class TestCostCalibration:
    """`SIM_WALL_S_PER_NODE_SECOND` stays the order of magnitude a
    measured quick Fig. 6 point costs (see the constant's comment)."""

    def test_pinned_constant_within_measured_band(self):
        """The shipped constant must stay the order of magnitude the
        measured points cost (recalibrate it when hosts drift)."""
        from repro.sim.sweep import SIM_WALL_S_PER_NODE_SECOND

        assert 1e-6 < SIM_WALL_S_PER_NODE_SECOND < 1e-3


def _twelve_point_spec() -> SweepSpec:
    """A 12-point grid whose per-point cost dominates spawn overhead."""
    base = RunnerConfig(
        n_nodes=16,
        arrival_rate=20.0,
        interval_s=30.0,
        n_intervals=6,
        warmup_intervals=1,
        seed=7,
        nutch=NutchConfig(n_search_groups=10, replicas_per_group=4),
        generator=GeneratorConfig(
            jobs_per_node_per_s=0.01, max_batch_jobs_per_node=3
        ),
    )
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=3), ReissuePolicy(0.90)),
        arrival_rates=(20.0, 60.0, 120.0, 240.0),
        seeds=(7,),
    )


@pytest.mark.tier2
class TestSweepWallClock:
    """What the sweep subsystem buys in wall-clock on a 12-point grid."""

    def test_four_workers_at_least_twice_as_fast(self):
        # Process parallelism cannot beat the clock without the cores;
        # the grid's bit-identity at 4 workers is asserted everywhere
        # by test_sweep_manifest.py::TestCrossBackendIdentity.
        cores = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        if cores < 4:
            pytest.skip(f"needs >= 4 usable cores, host has {cores}")
        spec = _twelve_point_spec()
        t0 = time.perf_counter()
        ParallelSweepRunner(spec, workers=1).run()
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ParallelSweepRunner(spec, workers=4).run()
        parallel_s = time.perf_counter() - t0
        assert serial_s / parallel_s >= 2.0, (serial_s, parallel_s)

    def test_warm_resume_ten_times_faster_than_cold(self, tmp_path):
        spec = _twelve_point_spec()
        t0 = time.perf_counter()
        ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
        cold_s = time.perf_counter() - t0
        warm = ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
        assert warm.cache_hits == spec.n_points
        assert warm.wall_time_s * 10 < cold_s, (warm.wall_time_s, cold_s)
