"""Smoke tests for the ablation drivers and the CLI parser."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.ablations import (
    AblationConfig,
    build_method_comparison,
    hierarchy_tradeoff,
    monitor_noise_sensitivity,
    predictor_fidelity,
    threshold_sweep,
    update_mode_comparison,
)


TINY = AblationConfig(
    arrival_rate=60.0,
    n_nodes=8,
    n_intervals=4,
    warmup_intervals=1,
)


class TestAblations:
    def test_update_mode_comparison_renders(self):
        out = update_mode_comparison(sizes=((30, 6),), seed=1)
        assert "Algorithm 2" in out and "30x6" in out

    def test_build_method_comparison_shows_agreement(self):
        out = build_method_comparison(sizes=((15, 4),), seed=1)
        assert "max |diff|" in out
        # The diff column must be floating-point-noise small.
        diff = float(out.splitlines()[-1].split("|")[-1])
        assert diff < 1e-8

    def test_hierarchy_tradeoff_renders(self):
        out = hierarchy_tradeoff(m=120, k=12, group_sizes=(60, 120), seed=2)
        assert "hierarchical" in out
        assert "(flat)" in out


SMALL = AblationConfig(
    arrival_rate=100.0,
    n_nodes=12,
    n_intervals=5,
    warmup_intervals=1,
)


@pytest.mark.tier2
@pytest.mark.parametrize(
    "ablation,kwargs,expected",
    [
        (threshold_sweep, {"cfg": SMALL, "epsilons_ms": (0.3, 1.0, 5.0)}, "Basic"),
        (build_method_comparison, {}, "speedup"),
        (predictor_fidelity, {"cfg": SMALL}, "oracle"),
        (
            hierarchy_tradeoff,
            {"m": 480, "k": 32, "group_sizes": (120, 480)},
            "group size",
        ),
        (
            monitor_noise_sensitivity,
            {"noise_scales": (0.0, 1.0, 5.0), "cfg": SMALL},
            "noise",
        ),
    ],
    ids=[
        "threshold_sweep",
        "build_method",
        "predictor_fidelity",
        "hierarchy",
        "monitor_noise",
    ],
)
def test_ablation_table_renders(ablation, kwargs, expected):
    assert expected in ablation(**kwargs)


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        for cmd in ("fig5", "fig6", "fig7", "ablations", "quick", "sweep"):
            args = parser.parse_args([cmd])
            assert args.command == cmd
        # aggregate requires --cache-dir
        args = parser.parse_args(["aggregate", "--cache-dir", "/tmp/c"])
        assert args.command == "aggregate" and args.cache_dir == "/tmp/c"
        with pytest.raises(SystemExit):
            parser.parse_args(["aggregate"])

    def test_workers_and_cache_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig6", "--workers", "4", "--cache-dir", "/tmp/sweep-cache"]
        )
        assert args.workers == 4 and args.cache_dir == "/tmp/sweep-cache"
        assert parser.parse_args(["fig5", "--workers", "2"]).workers == 2
        assert parser.parse_args(["fig7", "--workers", "2"]).workers == 2

    def test_sweep_subcommand_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.policies == "Basic,PCS"
        assert args.rates == (50.0, 200.0)
        assert args.seeds == (0,)
        assert args.workers == 1 and args.cache_dir is None
        assert args.aggregate is False

    def test_aggregate_flags(self):
        parser = build_parser()
        assert parser.parse_args(["sweep", "--aggregate"]).aggregate
        args = parser.parse_args(
            [
                "aggregate", "--cache-dir", "/tmp/c",
                "--metrics", "overall_latency.mean",
                "--confidence", "0.9", "--json", "--gc",
            ]
        )
        assert args.metrics == "overall_latency.mean"
        assert args.confidence == 0.9
        assert args.json and args.gc
        assert build_parser().parse_args(
            ["fig6", "--seeds", "1,2,3"]
        ).seeds == (1, 2, 3)

    def test_fig6_scale_choices(self):
        parser = build_parser()
        assert parser.parse_args(["fig6", "--scale", "paper"]).scale == "paper"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig6", "--scale", "galactic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rates", "50,abc"],
            ["sweep", "--seeds", "0,x"],
            ["fig6", "--seeds", "1,x"],
            ["sweep", "--rates", ","],
            ["sweep", "--seeds", ","],
            ["fig6", "--seeds", ","],
            ["sweep", "--nodes", "0"],
            ["sweep", "--intervals", "0"],
            ["sweep", "--search-groups", "0"],
            ["sweep", "--replicas-per-group", "0"],
            ["sweep", "--interval-s", "0"],
            ["sweep", "--rates", "0"],
            ["quick", "--rate", "0"],
            ["sweep", "--nodes", "2.5"],
            ["sweep", "--intervals", "x"],
            ["sweep", "--interval-s", "abc"],
            ["quick", "--rate", "fast"],
            ["serve", "--rate", "0"],
            ["serve", "--window-s", "0"],
            ["serve", "--trace-cycle", "0"],
            ["serve", "--dilation", "0"],
            ["serve", "--max-windows", "0"],
            ["serve", "--profiling-conditions", "0"],
            ["serve", "--nodes", "0"],
            ["quick", "--rate", "nan"],
            [
                "sweep", "--rates", "nan", "--nodes", "4",
                "--intervals", "2", "--interval-s", "2",
            ],
            [
                "sweep", "--interval-s", "nan", "--nodes", "4",
                "--intervals", "2", "--rates", "10",
            ],
            ["serve", "--rate", "nan"],
            ["serve", "--window-s", "nan"],
            ["serve", "--dilation", "nan"],
        ],
        ids=[
            "sweep-rates", "sweep-seeds", "fig6-seeds",
            "sweep-empty-rates", "sweep-empty-seeds", "fig6-empty-seeds",
            "sweep-zero-nodes", "sweep-zero-intervals",
            "sweep-zero-search-groups", "sweep-zero-replicas-per-group",
            "sweep-zero-interval-s", "sweep-zero-rate", "quick-zero-rate",
            "sweep-float-nodes", "sweep-text-intervals",
            "sweep-text-interval-s", "quick-text-rate",
            "serve-zero-rate", "serve-zero-window-s", "serve-zero-trace-cycle",
            "serve-zero-dilation", "serve-zero-max-windows",
            "serve-zero-profiling-conditions", "serve-zero-nodes",
            "quick-nan-rate", "sweep-nan-rate", "sweep-nan-interval-s",
            "serve-nan-rate", "serve-nan-window-s", "serve-nan-dilation",
        ],
    )
    def test_malformed_or_non_positive_number_is_a_usage_error(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["quick", "--rate", "inf"],
            ["sweep", "--rates", "inf"],
            ["sweep", "--rates", "40,inf"],
            ["sweep", "--interval-s", "inf"],
            ["serve", "--rate", "inf"],
            ["serve", "--window-s", "inf"],
            ["serve", "--dilation", "inf"],
        ],
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_infinite_number_is_a_usage_error(self, argv, capsys):
        # Parser only: an infinite rate must never reach a simulation.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("warmup", ["2", "3", "-1"])
    def test_warmup_intervals_out_of_range_is_a_usage_error(
        self, warmup, capsys
    ):
        argv = [
            "sweep", "--rates", "10", "--nodes", "4", "--intervals", "2",
            "--interval-s", "2", "--warmup-intervals", warmup,
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--warmup-intervals" in err and "--intervals" in err

    def test_empty_policy_list_is_an_error(self, capsys):
        assert main(["sweep", "--policies", ","]) == 2
        assert "--policies must name at least one value" in (
            capsys.readouterr().err
        )

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_sweep_and_aggregate_roundtrip(self, capsys, tmp_path):
        """End-to-end: `sweep --aggregate --cache-dir` then `aggregate`
        over the same directory print the same seed-level table."""
        cache_dir = str(tmp_path / "cli-cache")
        sweep_argv = [
            "sweep", "--policies", "Basic", "--rates", "40",
            "--seeds", "0,1", "--nodes", "6", "--search-groups", "3",
            "--replicas-per-group", "2", "--intervals", "3",
            "--interval-s", "8", "--warmup-intervals", "1",
            "--cache-dir", cache_dir, "--aggregate",
        ]
        assert main(sweep_argv) == 0
        sweep_out = capsys.readouterr().out
        assert "Seed-level aggregate" in sweep_out and "±" in sweep_out

        assert main(["aggregate", "--cache-dir", cache_dir]) == 0
        agg_out = capsys.readouterr().out
        table = sweep_out[sweep_out.index("Seed-level aggregate"):].strip()
        assert agg_out.strip() == table

        # --gc and --json compose: stdout stays pure parseable JSON,
        # the gc note goes to stderr.
        import json as json_mod

        assert main(["aggregate", "--cache-dir", cache_dir, "--gc", "--json"]) == 0
        captured = capsys.readouterr()
        assert "gc: removed 0" in captured.err
        assert json_mod.loads(captured.out)["groups"]

    def test_main_aggregate_without_manifest_fails_cleanly(
        self, capsys, tmp_path
    ):
        # A mistyped path: named error, exit 2, and no directory created.
        void = tmp_path / "void"
        assert main(["aggregate", "--cache-dir", str(void)]) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not void.exists()
        # An existing directory without a manifest: also a clean error.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["aggregate", "--cache-dir", str(empty)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_main_aggregate_unknown_metric_fails_cleanly(
        self, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(
            [
                "sweep", "--policies", "Basic", "--rates", "40",
                "--nodes", "6", "--search-groups", "3",
                "--replicas-per-group", "2", "--intervals", "3",
                "--interval-s", "8", "--warmup-intervals", "1",
                "--cache-dir", cache_dir,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["aggregate", "--cache-dir", cache_dir, "--metrics", "nope.metric"]
        ) == 2
        assert "nope.metric" in capsys.readouterr().err

    def test_main_fig5_runs(self, capsys, monkeypatch):
        # Patch to a tiny grid so the CLI test stays fast.
        from repro.experiments import fig5 as fig5_mod

        original = fig5_mod.Fig5Config

        def tiny_config(seed=0, **kwargs):
            return original(
                n_hadoop_sizes=3, n_spark_sizes=2, seed=seed, **kwargs
            )

        monkeypatch.setattr("repro.experiments.fig5.Fig5Config", tiny_config)
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "prediction error" in out


class TestCompareCLI:
    """`aggregate --compare DIR`: spec diff + joint paired-delta table."""

    def _sweep(self, cache_dir, nodes="6"):
        return [
            "sweep", "--policies", "Basic", "--rates", "40",
            "--seeds", "0,1", "--nodes", nodes, "--search-groups", "3",
            "--replicas-per-group", "2", "--intervals", "3",
            "--interval-s", "8", "--warmup-intervals", "1",
            "--cache-dir", cache_dir,
        ]

    def test_compare_flag_parses(self):
        args = build_parser().parse_args(
            ["aggregate", "--cache-dir", "/tmp/a", "--compare", "/tmp/b"]
        )
        assert args.compare == "/tmp/b"

    def test_compare_prints_spec_diff_and_deltas(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(self._sweep(a)) == 0
        assert main(self._sweep(b, nodes="8")) == 0
        capsys.readouterr()
        assert main(["aggregate", "--cache-dir", a, "--compare", b]) == 0
        out = capsys.readouterr().out
        assert "base.n_nodes: 6 -> 8" in out
        assert "Paired per-seed differences" in out
        assert "Basic" in out

    def test_compare_identical_runs(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        assert main(self._sweep(a)) == 0
        capsys.readouterr()
        assert main(["aggregate", "--cache-dir", a, "--compare", a]) == 0
        out = capsys.readouterr().out
        assert "spec diff: none" in out
        assert "+0.00" in out  # zero deltas against itself

    def test_compare_json_payload(self, capsys, tmp_path):
        import json as json_mod

        a = str(tmp_path / "a")
        assert main(self._sweep(a)) == 0
        capsys.readouterr()
        assert main(
            ["aggregate", "--cache-dir", a, "--compare", a, "--json"]
        ) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["spec_diff"] == {}
        assert payload["cells"][0]["policy"] == "Basic"
        assert all(
            s["diff"]["overall_latency.mean"]["mean"] == 0.0
            for s in payload["cells"]
        )

    def test_compare_mismatched_seeds_fails_cleanly(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(self._sweep(a)) == 0
        argv = self._sweep(b)
        argv[argv.index("0,1")] = "0,2"  # different seed set
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["aggregate", "--cache-dir", a, "--compare", b]) == 2
        assert "different seed sets" in capsys.readouterr().err

    def test_compare_missing_dir_fails_cleanly(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        assert main(self._sweep(a)) == 0
        capsys.readouterr()
        assert main(
            ["aggregate", "--cache-dir", a, "--compare", str(tmp_path / "nope")]
        ) == 2
        assert "no such cache directory" in capsys.readouterr().err


class TestScenarioCLI:
    def test_scenarios_catalog_shows_dag_shapes(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "diamond-search" in out and "branchy-api" in out
        assert "<-" in out  # DAG stages list their predecessors
        assert "opt" in out  # optional groups are flagged

    def test_fig6_paper_scale_rejects_presetless_scenario(self, capsys):
        from repro.errors import ConfigurationError
        from repro.scenarios import ScenarioSpec, register_scenario

        register_scenario(
            ScenarioSpec(
                name="cli-no-preset", description="d", build=lambda c: None
            ),
            replace_existing=True,
        )
        try:
            with pytest.raises(ConfigurationError, match="paper-scale preset"):
                main(["fig6", "--scale", "paper", "--scenario", "cli-no-preset"])
        finally:
            # The stub's build returns None; leaving it registered would
            # break any later test that walks the whole catalog.
            from repro.scenarios.spec import _REGISTRY

            _REGISTRY.pop("cli-no-preset", None)

    def test_shape_scale_defaults_to_unset_sentinel(self):
        """--shape-scale left off parses as None so `fig6 --scale
        paper` can tell it from an explicit `--shape-scale 1.0`."""
        parser = build_parser()
        assert parser.parse_args(["fig6"]).shape_scale is None
        assert parser.parse_args(
            ["fig6", "--shape-scale", "1.0"]
        ).shape_scale == 1.0
        assert parser.parse_args(["scenarios"]).shape_scale is None


class TestWorkloadCliFlags:
    """`--classes` / `--trace-profile` on quick, sweep and fig6."""

    @pytest.mark.parametrize("cmd", ["quick", "sweep", "fig6"])
    def test_defaults(self, cmd):
        args = build_parser().parse_args([cmd])
        assert args.trace_profile == "stationary"
        assert args.class_mix is None

    @pytest.mark.parametrize("cmd", ["quick", "sweep", "fig6"])
    def test_classes_parse_to_pairs(self, cmd):
        args = build_parser().parse_args(
            [cmd, "--classes", "search:0.6,autocomplete:0.4"]
        )
        assert args.class_mix == (("search", 0.6), ("autocomplete", 0.4))

    def test_classes_single_entry_and_zero_weight(self):
        args = build_parser().parse_args(
            ["quick", "--classes", "image-heavy:0"]
        )
        assert args.class_mix == (("image-heavy", 0.0),)

    @pytest.mark.parametrize(
        "bad",
        ["search", "search:abc", "search:-1", ":0.5", ""],
    )
    def test_malformed_classes_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quick", "--classes", bad])
        capsys.readouterr()

    def test_trace_profile_choices(self):
        parser = build_parser()
        for profile in ("stationary", "diurnal", "burst", "flash-crowd"):
            args = parser.parse_args(["quick", "--trace-profile", profile])
            assert args.trace_profile == profile
        with pytest.raises(SystemExit):
            parser.parse_args(["quick", "--trace-profile", "full-moon"])

    def test_scenarios_subcommand_lists_class_table(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "mixed-frontend" in out
        assert "classes:" in out
        assert "nutch-search" in out
