"""One benchmark session: a fresh interpreter running one workload unit.

``perfbench/run.py`` launches this script with ``PYTHONPATH=src``::

    python perfbench/session.py WORKLOAD --seed N [--trace FILE]

It imports the workload's entry modules (timed as the ``import.repro``
layer), optionally installs the span tracer (:mod:`tracer`), runs the
workload body, and prints one JSON report as the last line of stdout.
Times the parent compares across processes are ``time.monotonic()``
readings (one system-wide clock on Linux).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time

#: Modules each workload's command imports before its first timed call.
ENTRY_MODULES = {
    "quick": ("repro.cli", "repro.experiments.fig6"),
    "grid": ("repro.cli", "repro.sim.sweep"),
    "serve": ("repro.cli", "repro.controlplane.service", "repro.sim.runner"),
    "fig7": ("repro.cli", "repro.experiments.fig7"),
    "calibrate": ("repro.simcore.lindley",),
}

GRID_POLICIES = ("Basic", "RED-3", "RED-5", "RI-90", "RI-99", "ARI-99")
GRID_RATES = (10.0, 50.0, 200.0)
FIG7_FLAT = (640, 128)
FIG7_HIER = (2560, 128)
FIG7_INSTANCES = 12
#: Two cycles of the burst profile's 12-window period.
SERVE_WINDOWS = 24


def run_quick(args) -> dict:
    """``repro quick --rate 200`` through the CLI entry point."""
    from repro import cli
    from repro.controlplane.loop import ControlLoop
    from repro.experiments import fig6
    from repro.sim.runner import ExperimentRunner

    # Two set-up marks and one result capture, wrapped from outside:
    # when the first window starts, and how long predictor training took
    # (the sweep trains just before the PCS point, after Basic ran).
    marks = {"first_window_at": None, "train_s": 0.0}
    compute_window = ControlLoop.compute_window
    trained_predictor = ExperimentRunner.trained_predictor
    run_quick_comparison = fig6.run_quick_comparison
    captured = []

    def first_window(self, interval):
        if marks["first_window_at"] is None:
            marks["first_window_at"] = time.monotonic()
        return compute_window(self, interval)

    def timed_training(self):
        start = time.monotonic()
        try:
            return trained_predictor(self)
        finally:
            marks["train_s"] += time.monotonic() - start

    def capture(*a, **kw):
        captured.append(run_quick_comparison(*a, **kw))
        return captured[-1]

    ControlLoop.compute_window = first_window
    ExperimentRunner.trained_predictor = timed_training
    fig6.run_quick_comparison = capture
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["quick", "--rate", "200", "--seed", str(args.seed)])
    results = {}
    for policy in captured[0].results[200.0].values():
        results[policy.policy_name] = {
            "p99_ms": policy.component_p99_s * 1e3,
            "mean_ms": policy.overall_mean_s * 1e3,
            "n_requests": policy.n_requests,
            "n_migrations": policy.n_migrations,
        }
    return dict(marks, exit_code=code, results=results)


def run_grid(args) -> dict:
    """``repro sweep`` over six routing policies at three rates, serially."""
    from repro.scenarios import get_scenario
    from repro.service.nutch import NutchConfig
    from repro.sim.sweep import ParallelSweepRunner, SweepSpec, policy_from_name

    base = get_scenario("nutch-search").runner_config(
        n_nodes=16,
        arrival_rate=GRID_RATES[0],
        interval_s=30.0,
        n_intervals=6,
        warmup_intervals=1,
        seed=args.seed,
        nutch=NutchConfig(n_search_groups=10, replicas_per_group=4),
    )
    spec = SweepSpec(
        base=base,
        policies=tuple(policy_from_name(name) for name in GRID_POLICIES),
        arrival_rates=GRID_RATES,
        seeds=(args.seed,),
    )
    ready_at = time.monotonic()
    result = ParallelSweepRunner(spec, workers=1).run()
    ordered = [result.results[point] for point in spec.points()]
    digest = hashlib.sha256(
        json.dumps([r.metrics_dict() for r in ordered], sort_keys=True).encode()
    ).hexdigest()
    points = [
        {
            "policy": r.policy_name,
            "rate": r.arrival_rate,
            "p99_ms": r.component_p99_s * 1e3,
            "wall_s": r.wall_time_s,
            "n_requests": r.n_requests,
        }
        for r in ordered
    ]
    return {"ready_at": ready_at, "digest": digest, "points": points}


def run_serve(args) -> dict:
    """``repro serve`` on fanout-feed with PCS under the burst profile."""
    from repro import cli

    code = cli.main(
        [
            "serve",
            "--scenario", "fanout-feed",
            "--policy", "PCS",
            "--trace-profile", "burst",
            "--rate", "40",
            "--window-s", "8",
            "--retrain-every", "4",
            "--dilation", "1000000",
            "--max-windows", str(SERVE_WINDOWS),
            "--port", "0",
            "--seed", str(args.seed),
        ]
    )
    return {"exit_code": code}


def _fig7_oracle():
    """The ground-truth predictor Fig. 7 times the scheduler with."""
    from repro.interference.ground_truth import default_interference_model
    from repro.model.predictor import OraclePredictor
    from repro.service.component import Component, ComponentClass
    from repro.simcore.distributions import LogNormal
    from repro.units import ms

    rep = Component(
        name="fig7-rep",
        cls=ComponentClass.SEARCHING,
        base_service=LogNormal(ms(3.5), 0.5),
    )
    return OraclePredictor(
        default_interference_model(noise_sigma=0.0),
        {ComponentClass.SEARCHING: rep},
    )


def run_fig7(args) -> dict:
    """One 2560x128 hierarchical decision, then flat 640x128 decisions on
    ``FIG7_INSTANCES`` instances, instance ``k`` drawn from ``(seed, k)``."""
    import numpy as np

    from repro.experiments.fig7 import make_instance
    from repro.scheduler.hierarchical import HierarchicalScheduler
    from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
    from repro.scheduler.threshold import StaticThreshold
    from repro.units import ms

    predictor = _fig7_oracle()
    config = SchedulerConfig(threshold=StaticThreshold(ms(1)))
    flat = [
        make_instance(*FIG7_FLAT, np.random.default_rng([args.seed, k]))
        for k in range(FIG7_INSTANCES)
    ]
    hier = make_instance(*FIG7_HIER, np.random.default_rng([args.seed, 1000]))
    ready_at = time.monotonic()

    def decide(scheduler, instance):
        start = time.perf_counter()
        outcome = scheduler.schedule(instance)
        return {
            "ms": (time.perf_counter() - start) * 1e3,
            "m": instance.m,
            "migrations": outcome.n_migrations,
            "gain_ms": outcome.predicted_reduction_s * 1e3,
        }

    hier_decision = decide(
        HierarchicalScheduler(predictor, config, group_size=FIG7_FLAT[0]), hier
    )
    flat_decisions = [decide(PCSScheduler(predictor, config), i) for i in flat]
    return {"ready_at": ready_at, "hier": hier_decision, "flat": flat_decisions}


def run_calibrate(args) -> dict:
    """One fixed Lindley-scan loop: a host-speed reference, not gated."""
    import numpy as np

    from repro.simcore.lindley import lindley_waits

    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1.0, 200_000))
    services = rng.exponential(0.8, 200_000)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        lindley_waits(arrivals, services)
        times.append(time.perf_counter() - start)
    return {"lindley_calibration_s": statistics.median(times), "numpy": np.__version__}


BODIES = {
    "quick": run_quick,
    "grid": run_grid,
    "serve": run_serve,
    "fig7": run_fig7,
    "calibrate": run_calibrate,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(BODIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    for module in ENTRY_MODULES[args.workload]:
        importlib.import_module(module)
    end = time.perf_counter()
    if tracer is not None:
        tracer.record("import.repro", start, end)
        tracing.install(tracer)

    report = BODIES[args.workload](args)
    report["import_s"] = end - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(report, allow_nan=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
