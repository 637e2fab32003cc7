"""Command-line entry point: ``python -m repro <experiment>``.

Subcommands regenerate the paper's evaluation artifacts:

- ``fig5`` — prediction accuracy of the performance model;
- ``fig6`` — the six-policy latency comparison (``--scale quick`` for a
  minutes-scale subset, ``--scale paper`` for the full sweep);
- ``fig7`` — scheduler scalability;
- ``ablations`` — the design-choice ablations;
- ``quick`` — a Basic-vs-PCS taste at one arrival rate;
- ``sweep`` — an arbitrary policies × rates × seeds grid through the
  parallel sweep subsystem (:mod:`repro.sim.sweep`);
- ``aggregate`` — seed-level statistics (mean ± CI per metric, via
  :mod:`repro.sim.aggregate`) over a sweep cache directory's
  ``manifest.json``, with ``--gc`` to drop orphaned point files and
  ``--compare DIR`` to diff two sweep caches: manifest spec diff plus
  a joint table of paired per-seed differences over the shared
  (policy, rate) cells (identical seed sets required);
- ``worker`` — a distributed sweep worker: claims job files from a
  shared spool directory and executes them until the spool's stop
  sentinel appears (``repro worker SPOOL --stop`` writes it);
- ``scenarios`` — the registered workload-scenario catalog
  (:mod:`repro.scenarios`), with live topology summaries.

``fig5``/``fig6``/``fig7``/``sweep`` accept ``--workers N`` to fan
independent points out over spawn processes and ``--backend
{auto,serial,process}`` to pick how they execute
(:mod:`repro.sim.backends`; results are identical for every choice —
``auto`` runs small sets of cheap points inline, which skips the
per-spawn interpreter + numpy import, and expensive points or large
sets on spawn processes, one point per task).  ``sweep`` additionally
accepts ``--backend distributed --spool DIR [--wait-workers N]`` to
fan points out, one per job, over ``repro worker DIR`` processes on
any hosts sharing DIR (:mod:`repro.sim.distributed`; bit-identical
results), and ``auto`` with a ``--spool`` routes expensive grids
there by itself.  ``aggregate`` loads the cache's point files inline.
``fig6``/``sweep`` accept ``--cache-dir`` to memoize
completed points on disk so interrupted runs resume, and
``--seeds``/``sweep --aggregate`` to repeat cells across seeds and
reduce them through the shared aggregate layer.  ``quick``/``sweep``/
``fig5``/``fig6``/``fig7`` accept ``--scenario NAME`` to run any
registered scenario instead of the paper's Nutch-like service (plus
``--scale`` to shrink/grow the non-Nutch shapes).  ``quick``/``sweep``/
``fig6`` additionally accept ``--trace-profile`` (non-stationary
arrival shapes from :mod:`repro.workloads.traces`: diurnal, burst,
flash-crowd) and ``--classes name:weight,...`` to re-weight a
scenario's declared request-class mix; mixed-class runs report
per-class latency panels and the ``scenarios`` catalog appends each
classed scenario's class table.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _class_mix(text: str):
    """argparse type for ``--classes``: ``name:weight,name:weight,...``.

    Returns the ``((name, weight), ...)`` tuple RunnerConfig's
    ``class_mix`` field takes; unknown class names are caught downstream
    by the topology resolution (where the declared classes are known).
    """
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, weight_text = part.partition(":")
        if not sep or not name.strip():
            raise argparse.ArgumentTypeError(
                f"expected name:weight, got {part!r}"
            )
        try:
            weight = float(weight_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad weight {weight_text!r} for class {name.strip()!r}"
            )
        if weight < 0:
            raise argparse.ArgumentTypeError(
                f"class {name.strip()!r} weight must be >= 0, got {weight}"
            )
        pairs.append((name.strip(), weight))
    if not pairs:
        raise argparse.ArgumentTypeError("--classes must name at least one class")
    return tuple(pairs)


def _number_list(convert, what: str):
    """argparse type for comma-separated ``--rates``/``--seeds`` lists.

    A malformed entry, an entry ``convert`` rejects (a non-positive
    rate) or an empty list is a usage error (exit code 2), like
    ``--classes`` and ``--workers``, not a traceback from the command.
    """

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(part) for part in text.split(",") if part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            )
        if not values:
            raise argparse.ArgumentTypeError("must name at least one value")
        return values

    return parse


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (workers, nodes, windows).

    Rejecting at the parser keeps ``--workers 0`` a clean usage error
    (exit code 2) instead of a ConfigurationError traceback from the
    sweep runner.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for rates and durations that must be finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


_rates = _number_list(_positive_float, "numbers")
_seeds = _number_list(int, "integers")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro-pcs",
        description=(
            "Reproduction of 'PCS: Predictive Component-level Scheduling "
            "for Reducing Tail Latency in Cloud Online Services' (ICPP 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_args(p, default="auto", distributed=False):
        choices = ["auto", "serial", "process"]
        if distributed:
            choices.append("distributed")
        p.add_argument(
            "--backend",
            choices=choices,
            default=default,
            help="how workers execute (repro.sim.backends): auto picks "
            "serial for 1 worker or a small set of cheap points (no "
            "spawn import cost), spawn processes with one point per "
            "task for points whose estimated cost outweighs the "
            "per-worker spawn tax (cost-aware) or for large sets"
            + (
                "; distributed ships one point per job file through "
                "--spool to `repro worker` processes (auto also routes "
                "expensive grids there when --spool is given)"
                if distributed
                else ""
            ),
        )
        if distributed:
            p.add_argument(
                "--spool", default=None,
                help="shared spool directory for the distributed "
                "backend (start workers with: python -m repro worker "
                "SPOOL)",
            )
            p.add_argument(
                "--wait-workers", type=_positive_int, default=None,
                dest="wait_workers",
                help="block until this many live spool workers are "
                "registered before dispatching (distributed only)",
            )

    def add_scenario_args(p, default="nutch-search"):
        p.add_argument(
            "--scenario", default=default,
            help="registered workload scenario to run "
            "(see the `scenarios` subcommand)",
        )
        # default=None (resolved to 1.0 downstream) so `fig6 --scale
        # paper` can tell "left unset" from an explicit `--shape-scale
        # 1.0` — explicit values always beat the scenario's preset.
        p.add_argument(
            "--shape-scale", type=float, default=None, dest="shape_scale",
            help="shape multiplier for scenario builders with scaled "
            "shapes, default 1.0 (nutch-search is shaped by its own "
            "knobs instead)",
        )

    def add_streaming_args(p):
        p.add_argument(
            "--chunk-requests", type=_positive_int, default=None,
            dest="chunk_requests",
            help="with streamed summaries, simulate each interval in "
            "windows of about this many requests, in O(chunk) memory "
            "(Basic/PCS routing); exact summaries ignore it (contract: "
            "the repro.sim.queue_sim module docstring)",
        )
        p.add_argument(
            "--summary-mode",
            choices=["auto", "exact", "streaming"],
            default="auto",
            dest="summary_mode",
            help="latency summaries: exact keeps every sample "
            "(nearest-rank percentiles), streaming uses O(reservoir)-"
            "memory estimators, auto streams only above the runner's "
            "per-interval request threshold (default 10^6)",
        )

    def add_workload_args(p):
        from repro.workloads.traces import arrival_profile_names

        p.add_argument(
            "--trace-profile",
            choices=arrival_profile_names(),
            default="stationary",
            dest="trace_profile",
            help="arrival-trace profile shaping per-interval rates "
            "(repro.workloads.traces); stationary reproduces the "
            "paper's open-loop stream exactly",
        )
        p.add_argument(
            "--classes", type=_class_mix, default=None, dest="class_mix",
            metavar="NAME:W,...",
            help="re-weight the scenario's declared request classes "
            "(e.g. search:0.5,autocomplete:0.5; weight 0 drops a "
            "class); only valid for scenarios that declare classes",
        )

    p5 = sub.add_parser("fig5", help="prediction-accuracy experiment")
    p5.add_argument("--seed", type=int, default=0)
    p5.add_argument(
        "--workers", type=_positive_int, default=1,
        help="workers for the per-workload campaigns (same numbers "
        "for any value)",
    )
    add_backend_args(p5, default=None)
    add_scenario_args(p5)

    p6 = sub.add_parser("fig6", help="six-policy latency comparison")
    p6.add_argument(
        "--scale",
        choices=["quick", "paper"],
        default="quick",
        help="quick = 3 rates / small cluster; paper = full sweep",
    )
    p6.add_argument("--seed", type=int, default=7)
    p6.add_argument(
        "--seeds", type=_seeds, default=None,
        help="comma-separated seeds to repeat every cell under "
        "(default: just --seed); multi-seed runs report mean ± CI",
    )
    p6.add_argument("--verbose", action="store_true")
    p6.add_argument(
        "--workers", type=_positive_int, default=1,
        help="workers for the (policy, rate) grid (bit-identical "
        "results for any value)",
    )
    add_backend_args(p6)
    p6.add_argument(
        "--cache-dir", default=None,
        help="memoize completed sweep points here; rerunning resumes",
    )
    add_scenario_args(p6)
    add_workload_args(p6)

    p7 = sub.add_parser("fig7", help="scheduler scalability")
    p7.add_argument("--seed", type=int, default=0)
    p7.add_argument(
        "--workers", type=_positive_int, default=1,
        help="workers for grid points (keep 1 for faithful timings: "
        "co-scheduled points steal cycles from each other)",
    )
    add_backend_args(p7, default=None)
    add_scenario_args(p7, default=None)

    pa = sub.add_parser("ablations", help="design-choice ablations")
    pa.add_argument("--seed", type=int, default=11)

    pq = sub.add_parser("quick", help="Basic-vs-PCS at one arrival rate")
    pq.add_argument("--rate", type=_positive_float, default=100.0)
    pq.add_argument("--seed", type=int, default=0)
    add_scenario_args(pq)
    add_workload_args(pq)
    add_streaming_args(pq)

    ps = sub.add_parser(
        "sweep",
        help="custom policies x rates x seeds grid via the parallel "
        "sweep subsystem",
    )
    ps.add_argument(
        "--policies", default="Basic,PCS",
        help="comma-separated legend names (Basic, RED-3, RED-5, "
        "RI-90, RI-99, ARI-<p>, Hedge[-<ms>], AHedge[-<p>], PCS)",
    )
    ps.add_argument(
        "--rates", type=_rates, default="50,200",
        help="comma-separated arrival rates (req/s)",
    )
    ps.add_argument(
        "--seeds", type=_seeds, default="0", help="comma-separated root seeds"
    )
    ps.add_argument(
        "--nodes", type=_positive_int, default=None,
        help="cluster size (default: the scenario's own default, "
        "16 for nutch-search)",
    )
    add_scenario_args(ps)
    add_workload_args(ps)
    ps.add_argument(
        "--search-groups", type=_positive_int, default=10,
        help="searching-stage replica groups (nutch-search only; the "
        "fig6 quick preset — the paper-scale 20x5 topology needs "
        "~30 nodes)",
    )
    ps.add_argument(
        "--replicas-per-group", type=_positive_int, default=4,
        help="replicas per searching group (nutch-search only)",
    )
    ps.add_argument("--intervals", type=_positive_int, default=6)
    ps.add_argument("--interval-s", type=_positive_float, default=30.0)
    ps.add_argument("--warmup-intervals", type=int, default=1)
    add_streaming_args(ps)
    ps.add_argument("--workers", type=_positive_int, default=1)
    add_backend_args(ps, distributed=True)
    ps.add_argument("--cache-dir", default=None)
    ps.add_argument("--verbose", action="store_true")
    ps.add_argument(
        "--aggregate", action="store_true",
        help="also print the seed-level aggregate table "
        "(mean ± CI across --seeds per policy and rate)",
    )

    pg = sub.add_parser(
        "aggregate",
        help="seed-level statistics over a sweep cache directory "
        "(reads its manifest.json)",
    )
    pg.add_argument(
        "--cache-dir", required=True,
        help="cache directory of a completed sweep (must hold a manifest)",
    )
    pg.add_argument(
        "--compare", default=None, metavar="DIR",
        help="second sweep cache to diff against: prints the manifest "
        "spec diff plus a joint table of paired per-seed differences "
        "(cache-dir minus DIR) for every shared (policy, rate) cell; "
        "shared cells run under different seed sets are an error",
    )
    pg.add_argument(
        "--metrics", default=None,
        help="comma-separated flattened metric names to tabulate "
        "(default: the two paper currencies, component p99 and "
        "overall mean)",
    )
    pg.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level for the t and bootstrap intervals",
    )
    pg.add_argument(
        "--json", action="store_true",
        help="emit the full summary as JSON instead of a table",
    )
    pg.add_argument(
        "--gc", action="store_true",
        help="first remove point files not named by the manifest "
        "(orphans from older grids) and leftover temp files",
    )
    pg.add_argument(
        "--spool", default=None,
        help="with --gc: also reap stale artifacts (expired claims, "
        "dead-worker files, orphaned temp files) from this distributed "
        "sweep spool directory",
    )

    pw = sub.add_parser(
        "worker",
        help="distributed sweep worker: claim and execute job files from "
        "a shared spool directory until its stop sentinel appears",
    )
    pw.add_argument("spool", help="shared spool directory")
    pw.add_argument(
        "--stop-when-idle", action="store_true",
        help="exit when the queue drains instead of polling for more",
    )
    pw.add_argument(
        "--stop", action="store_true",
        help="write the stop sentinel (draining every worker) and exit",
    )
    pw.add_argument(
        "--clear-stop", action="store_true",
        help="remove a previously written stop sentinel and exit",
    )

    pc = sub.add_parser(
        "scenarios",
        help="list the registered workload scenarios "
        "(name, topology, description)",
    )
    pc.add_argument(
        "--shape-scale", type=float, default=None, dest="shape_scale",
        help="shape multiplier applied to the printed topology "
        "summaries (default 1.0)",
    )

    pv = sub.add_parser(
        "serve",
        help="live control-plane service: an open-loop arrival stream "
        "with PCS decisions between windows and an HTTP control "
        "surface (/status, /scenarios, /metrics, /sweeps, /shutdown)",
    )
    pv.add_argument(
        "--scenario", default="fanout-feed",
        help="registered scenario to serve (default fanout-feed)",
    )
    pv.add_argument(
        "--policy", default="PCS",
        help="policy name: Basic, RED-k, RI-p, ARI-p, Hedge[-ms], "
        "AHedge[-p], PCS (default PCS)",
    )
    pv.add_argument(
        "--rate", type=_positive_float, default=40.0, metavar="REQ_S",
        help="mean arrival rate of the open-loop stream (default 40)",
    )
    pv.add_argument(
        "--window-s", type=_positive_float, default=8.0, metavar="S",
        help="monitoring/decision window length in sim seconds "
        "(default 8)",
    )
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument(
        "--trace-profile", default="burst",
        choices=["stationary", "diurnal", "burst", "flash-crowd"],
        help="arrival profile replayed cyclically (default burst)",
    )
    pv.add_argument(
        "--trace-cycle", type=_positive_int, default=12, metavar="N",
        help="profile cycle length in windows (default 12)",
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument(
        "--port", type=int, default=8092,
        help="control-surface port; 0 binds an ephemeral one "
        "(default 8092)",
    )
    pv.add_argument(
        "--dilation", type=_positive_float, default=1.0, metavar="X",
        help="sim seconds per wall second — >1 fast-forwards the live "
        "world (default 1.0, real time)",
    )
    pv.add_argument(
        "--max-windows", type=_positive_int, default=None, metavar="N",
        help="stop the stream after N windows (default: until "
        "/shutdown)",
    )
    pv.add_argument(
        "--retrain-every", type=int, default=0, metavar="N",
        help="refit the Eq. 1 predictor every N windows on rolling "
        "monitor data (default 0 = off)",
    )
    pv.add_argument(
        "--profiling-conditions", type=_positive_int, default=12,
        metavar="N",
        help="initial profiling campaign size (default 12; the batch "
        "default of 60 is slow to warm)",
    )
    pv.add_argument(
        "--nodes", type=_positive_int, default=None, metavar="N",
        help="cluster size override (default: scenario default)",
    )
    pv.add_argument(
        "--spool", default=None, metavar="DIR",
        help="shared spool directory offered to POSTed distributed "
        "sweeps",
    )
    pv.add_argument(
        "--shape-scale", type=float, default=None, dest="shape_scale",
        help="scenario shape multiplier (default 1.0)",
    )
    return parser


def _shape_scale(args) -> float:
    """The resolved --shape-scale for consumers without a sentinel."""
    return args.shape_scale if args.shape_scale is not None else 1.0


def _run_sweep(args) -> int:
    from repro.scenarios import get_scenario
    from repro.service.nutch import NutchConfig
    from repro.sim.sweep import (
        ParallelSweepRunner,
        SweepSpec,
        policy_from_name,
    )

    policies = tuple(
        policy_from_name(name) for name in args.policies.split(",") if name
    )
    if not policies:
        print("error: --policies must name at least one value", file=sys.stderr)
        return 2
    if not 0 <= args.warmup_intervals < args.intervals:
        print(
            "error: --warmup-intervals must be >= 0 and below --intervals "
            f"(got {args.warmup_intervals} vs {args.intervals})",
            file=sys.stderr,
        )
        return 2
    scenario = get_scenario(args.scenario)
    overrides = dict(
        n_nodes=(
            args.nodes
            if args.nodes is not None
            else int(scenario.runner_defaults.get("n_nodes", 16))
        ),
        arrival_rate=args.rates[0],
        interval_s=args.interval_s,
        n_intervals=args.intervals,
        warmup_intervals=args.warmup_intervals,
        seed=args.seeds[0],
        scale=_shape_scale(args),
        trace_profile=args.trace_profile,
        class_mix=args.class_mix,
        chunk_requests=args.chunk_requests,
        summary_mode=args.summary_mode,
    )
    if args.scenario == "nutch-search":
        overrides["nutch"] = NutchConfig(
            n_search_groups=args.search_groups,
            replicas_per_group=args.replicas_per_group,
        )
    spec = SweepSpec(
        base=scenario.runner_config(**overrides),
        policies=policies,
        arrival_rates=args.rates,
        seeds=args.seeds,
    )
    runner = ParallelSweepRunner(
        spec,
        workers=args.workers,
        cache=args.cache_dir,
        progress=(lambda p: print(p.render())) if args.verbose else None,
        backend=args.backend,
        spool=args.spool,
        wait_workers=args.wait_workers or 0,
    )
    result = runner.run()
    if not args.verbose:
        print(result.render())
    else:
        print(result.render().splitlines()[-1])
    if args.aggregate:
        print()
        print(result.summary().render_table())
    return 0


def _run_serve(args) -> int:
    import asyncio

    from repro.controlplane.service import LiveControlPlane, ServeConfig

    config = ServeConfig(
        scenario=args.scenario,
        policy=args.policy,
        arrival_rate=args.rate,
        window_s=args.window_s,
        seed=args.seed,
        trace_profile=args.trace_profile,
        trace_cycle=args.trace_cycle,
        host=args.host,
        port=args.port,
        dilation=args.dilation,
        max_windows=args.max_windows,
        retrain_every=args.retrain_every,
        n_profiling_conditions=args.profiling_conditions,
        n_nodes=args.nodes,
        spool=args.spool,
        scale=_shape_scale(args),
    )
    plane = LiveControlPlane(
        config, announce=lambda line: print(line, flush=True)
    )
    try:
        return asyncio.run(plane.run())
    except KeyboardInterrupt:
        return 0


def _run_aggregate(args) -> int:
    import os

    from repro.errors import ExperimentError
    from repro.sim.aggregate import (
        DEFAULT_TABLE_METRICS,
        AggregateConfig,
        SweepSummary,
    )
    from repro.sim.sweep import SweepCache

    # A reporting command must not mkdir its target as a side effect
    # (SweepCache's constructor creates missing roots for writers).
    if not os.path.isdir(args.cache_dir):
        print(f"error: no such cache directory: {args.cache_dir}", file=sys.stderr)
        return 2
    # Fail a typo'd --compare path *before* aggregating the primary
    # cache — on a large cache that aggregation is the expensive part.
    if args.compare is not None and not os.path.isdir(args.compare):
        print(
            f"error: no such cache directory: {args.compare}", file=sys.stderr
        )
        return 2
    cache = SweepCache(args.cache_dir)
    try:
        if args.gc:
            removed = cache.gc(spool=args.spool)
            # stderr: stdout must stay parseable (tables / --json).
            print(
                f"gc: removed {len(removed)} orphaned/temp file(s)",
                file=sys.stderr,
            )
        summary = SweepSummary.from_cache(
            cache, AggregateConfig(confidence=args.confidence)
        )
        metrics = (
            [m for m in args.metrics.split(",") if m]
            if args.metrics
            else list(DEFAULT_TABLE_METRICS)
        )
        if args.compare is not None:
            return _run_compare(args, cache, summary, metrics)
        if args.json:
            import json

            print(json.dumps(summary.to_dict(), sort_keys=True, indent=2))
        else:
            print(summary.render_table(metrics=metrics))
    except ExperimentError as exc:  # includes the SweepCacheError family
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_compare(args, cache, summary, metrics) -> int:
    """``aggregate --compare DIR``: spec diff + joint paired-delta table.

    Exceptions propagate to ``_run_aggregate``'s handler so a missing
    manifest, a corrupt cache, or mismatched seed sets all surface as
    the same clean ``error:`` line (exit code 2).
    """
    from repro.sim.aggregate import AggregateConfig, SweepSummary
    from repro.sim.sweep import SweepCache

    other_cache = SweepCache(args.compare)
    other = SweepSummary.from_cache(
        other_cache, AggregateConfig(confidence=args.confidence)
    )
    spec_diff = cache.diff(other_cache)
    if args.json:
        import json

        payload = {
            "spec_diff": {k: list(v) for k, v in spec_diff.items()},
            "cells": [
                {
                    "policy": policy,
                    "arrival_rate": rate,
                    "diff": {m: s.to_dict() for m, s in stats.items()},
                }
                for (policy, rate), stats in summary.compare(
                    other, metrics=metrics
                ).items()
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    if spec_diff:
        print("spec diff (this run vs other run):")
        for key in sorted(spec_diff):
            mine, theirs = spec_diff[key]
            print(f"  {key}: {mine!r} -> {theirs!r}")
        print()
    else:
        print("spec diff: none (identical grids)\n")
    print(summary.render_compare_table(other, metrics=metrics))
    return 0


def _run_worker(args) -> int:
    """``repro worker SPOOL``: run the worker loop, or write/clear the
    stop sentinel."""
    from repro.errors import ReproError
    from repro.sim.distributed import SweepSpool, run_worker

    try:
        if args.stop:
            SweepSpool(args.spool).ensure().request_stop()
            print(f"stop sentinel written to {args.spool}")
            return 0
        if args.clear_stop:
            SweepSpool(args.spool).ensure().clear_stop()
            print(f"stop sentinel cleared from {args.spool}")
            return 0
        executed = run_worker(args.spool, stop_when_idle=args.stop_when_idle)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print(f"worker exiting after {executed} job(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fig5":
        from repro.experiments.fig5 import Fig5Config, run_fig5

        cfg = Fig5Config(
            seed=args.seed, scenario=args.scenario, scale=_shape_scale(args)
        )
        print(
            run_fig5(cfg, workers=args.workers, backend=args.backend).render()
        )
    elif args.command == "fig6":
        from repro.experiments.fig6 import Fig6Config, run_fig6
        from repro.service.nutch import NutchConfig

        seeds = args.seeds or ()
        if args.scale == "paper":
            # Full scale = the scenario's own registered preset; a
            # scenario without one raises a named ConfigurationError
            # instead of silently running Nutch-shaped constants.
            cfg = Fig6Config(
                seed=args.seed,
                seeds=seeds,
                scenario=args.scenario,
                scale=args.shape_scale,
                paper_scale=True,
                trace_profile=args.trace_profile,
                class_mix=args.class_mix,
            )
        else:
            cfg = Fig6Config(
                arrival_rates=(10.0, 50.0, 200.0),
                n_nodes=16,
                n_intervals=6,
                warmup_intervals=1,
                seed=args.seed,
                seeds=seeds,
                scenario=args.scenario,
                scale=args.shape_scale,
                nutch=NutchConfig(n_search_groups=10, replicas_per_group=4),
                trace_profile=args.trace_profile,
                class_mix=args.class_mix,
            )
        result = run_fig6(
            cfg,
            verbose=args.verbose,
            workers=args.workers,
            cache_dir=args.cache_dir,
            backend=args.backend,
        )
        print(result.render())
        print(f"\n(wall time: {result.wall_time_s:.1f} s)")
    elif args.command == "fig7":
        from repro.experiments.fig7 import Fig7Config, run_fig7

        cfg = Fig7Config(
            seed=args.seed, scenario=args.scenario, scale=_shape_scale(args)
        )
        print(
            run_fig7(cfg, workers=args.workers, backend=args.backend).render()
        )
    elif args.command == "ablations":
        from repro.experiments.ablations import AblationConfig, run_all_ablations

        print(run_all_ablations(AblationConfig(seed=args.seed)))
    elif args.command == "quick":
        from repro.experiments.fig6 import run_quick_comparison

        result = run_quick_comparison(
            arrival_rate=args.rate,
            seed=args.seed,
            scenario=args.scenario,
            scale=_shape_scale(args),
            trace_profile=args.trace_profile,
            class_mix=args.class_mix,
            chunk_requests=args.chunk_requests,
            summary_mode=args.summary_mode,
        )
        print(result.render())
    elif args.command == "sweep":
        return _run_sweep(args)
    elif args.command == "aggregate":
        return _run_aggregate(args)
    elif args.command == "worker":
        return _run_worker(args)
    elif args.command == "scenarios":
        from repro.scenarios import all_scenarios

        for spec in all_scenarios():
            cfg = spec.runner_config(scale=_shape_scale(args))
            print(spec.describe(cfg))
            if spec.tags:
                print(f"    tags: {', '.join(spec.tags)}")
    elif args.command == "serve":
        return _run_serve(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
