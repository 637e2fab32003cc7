"""Benchmark: the parallel sweep-execution subsystem.

Four claims, measured:

1. fanning a multi-point Fig. 6-style sweep out over 4 workers beats
   the serial path by >= 2x wall-clock (asserted when the host
   actually has >= 4 usable cores — process parallelism cannot beat
   the clock on a 1-core container, so there the ratio is only
   reported);
2. parallel results are *bit-identical* to serial results, point by
   point and for every execution backend (asserted everywhere,
   always);
3. resuming a completed sweep from the on-disk cache is at least an
   order of magnitude faster than recomputing it;
4. on a small grid (<= 8 points) ``auto`` picks the serial backend,
   and serial beats the spawn process backend: spawn pays an
   interpreter + numpy import and a cold predictor memo per worker,
   which a small grid cannot amortise, while the inline path pays
   none of them (asserted everywhere — the grid is sized so that
   start-up tax dominates its compute).

Measured numbers are persisted as ``BENCH_sweep_*.json`` records (see
:mod:`recording`).
"""

import os
import time

import pytest

from recording import record_benchmark
from repro.baselines.policies import BasicPolicy, REDPolicy, ReissuePolicy
from repro.experiments.fig6 import paper_pcs_policy
from repro.service.nutch import NutchConfig
from repro.sim.backends import ProcessBackend, SerialBackend
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepSpec
from repro.workloads.generator import GeneratorConfig


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sweep_spec(paper: bool) -> SweepSpec:
    """A 12-point grid whose per-point cost dominates spawn overhead."""
    if paper:
        nutch = NutchConfig()
        n_nodes, rates = 30, (10.0, 50.0, 100.0, 200.0)
    else:
        nutch = NutchConfig(n_search_groups=10, replicas_per_group=4)
        n_nodes, rates = 16, (20.0, 60.0, 120.0, 240.0)
    base = RunnerConfig(
        n_nodes=n_nodes,
        arrival_rate=rates[0],
        interval_s=30.0,
        n_intervals=6,
        warmup_intervals=1,
        seed=7,
        nutch=nutch,
        generator=GeneratorConfig(
            jobs_per_node_per_s=0.01, max_batch_jobs_per_node=3
        ),
    )
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=3), ReissuePolicy(0.90)),
        arrival_rates=rates,
        seeds=(7,),
    )


@pytest.mark.benchmark(group="sweep")
def test_sweep_parallel_speedup(benchmark, paper_scale):
    """Serial vs 4-worker wall-clock on the same 12-point grid."""
    spec = _sweep_spec(paper_scale)

    t0 = time.perf_counter()
    serial = ParallelSweepRunner(spec, workers=1).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        ParallelSweepRunner(spec, workers=4).run, rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0

    # Claim 2 first — correctness is unconditional.
    for point in spec.points():
        assert (
            parallel.results[point].metrics_dict()
            == serial.results[point].metrics_dict()
        ), point.describe()

    cores = _usable_cores()
    speedup = serial_s / parallel_s
    print(
        f"\n{spec.n_points}-point sweep: serial {serial_s:.1f}s, "
        f"4 workers {parallel_s:.1f}s -> {speedup:.2f}x "
        f"({cores} usable cores)"
    )
    base = spec.base
    record_benchmark(
        "sweep_parallel_speedup",
        {
            "serial": serial_s,
            "parallel_4_workers": parallel_s,
            "speedup": speedup,
            # Feeds repro.sim.sweep.calibrate_wall_s_per_node_second.
            "serial_s_per_point": serial_s / spec.n_points,
        },
        config={
            "n_points": spec.n_points,
            "paper_scale": paper_scale,
            "usable_cores": cores,
            "scenario": spec.scenario,
            "node_seconds_per_point": (
                base.n_intervals * base.interval_s * base.n_nodes
            ),
        },
    )
    if cores >= 4:
        # Claim 1: the whole point of the subsystem.
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 usable cores, host has {cores} "
            f"(measured {speedup:.2f}x; identity checks passed)"
        )


def _small_grid_spec() -> SweepSpec:
    """A 6-point grid sized so start-up tax dominates its compute.

    Tiny topology and short intervals keep per-point work around a
    hundred milliseconds; the PCS policy adds predictor training,
    which the serial backend performs once (warm memo) and every
    spawn worker repeats from a cold memo.
    """
    base = RunnerConfig(
        n_nodes=6,
        arrival_rate=30.0,
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
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=2), paper_pcs_policy()),
        arrival_rates=(30.0, 70.0),
        seeds=(0,),
    )


@pytest.mark.benchmark(group="sweep")
def test_sweep_backends_small_grid(benchmark):
    """Claim 4: per-backend wall-clock on a small (6-point) grid.

    The inline path reuses the interpreter, the imported modules and
    the predictor memo; spawn workers each pay an interpreter + numpy
    import and train their own predictor.  On a grid this small that
    overhead cannot be amortised, so serial must win — exactly the
    regime the ``auto`` rule keeps inline.
    """
    spec = _small_grid_spec()
    assert spec.n_points <= 8

    # The cost-aware auto rule must keep this small *cheap* grid inline
    # (the spec-based estimate sits below the spawn-tax cutoff); the
    # recorded choice rides in the benchmark artifact so CI provenance
    # shows what `auto` actually picked.
    auto_choice = ParallelSweepRunner(spec, workers=4)._resolve_backend(
        spec.n_points, []
    ).name
    assert auto_choice == "serial", (
        f"auto routed the small cheap grid to {auto_choice!r}"
    )

    backends = {
        "serial": SerialBackend(),
        "process": ProcessBackend(4),
    }
    timings = {}
    outcomes = {}

    def run_all():
        for name, backend in backends.items():
            t0 = time.perf_counter()
            outcomes[name] = ParallelSweepRunner(
                spec, workers=4, backend=backend
            ).run()
            timings[name] = time.perf_counter() - t0

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Claim 2 first — every backend agrees with serial, bit for bit.
    for name in backends:
        for point in spec.points():
            assert (
                outcomes[name].results[point].metrics_dict()
                == outcomes["serial"].results[point].metrics_dict()
            ), f"{name}: {point.describe()}"

    speedup = timings["process"] / timings["serial"]
    print(
        f"\n{spec.n_points}-point grid: "
        + ", ".join(f"{n} {t:.2f}s" for n, t in timings.items())
        + f" -> serial beats spawn {speedup:.2f}x"
    )
    record_benchmark(
        "sweep_backends_small_grid",
        {**timings, "serial_vs_process_speedup": speedup},
        config={
            "n_points": spec.n_points,
            "workers": 4,
            "usable_cores": _usable_cores(),
            "scenario": spec.scenario,
            "auto_backend_choice": auto_choice,
        },
    )
    # Claim 4: auto's small-grid choice beats spawn.
    assert timings["serial"] < timings["process"], (
        f"expected the serial backend to beat spawn on a "
        f"{spec.n_points}-point grid, got serial {timings['serial']:.2f}s "
        f"vs process {timings['process']:.2f}s"
    )


@pytest.mark.benchmark(group="sweep")
def test_sweep_cache_resume(benchmark, tmp_path):
    """Claim 3: a warm cache turns the sweep into pure JSON reads."""
    spec = _sweep_spec(paper=False)

    t0 = time.perf_counter()
    cold = ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
    cold_s = time.perf_counter() - t0
    assert cold.cache_hits == 0

    warm = benchmark.pedantic(
        ParallelSweepRunner(spec, workers=1, cache=tmp_path).run,
        rounds=1,
        iterations=1,
    )
    assert warm.cache_hits == spec.n_points
    for point in spec.points():
        assert (
            warm.results[point].metrics_dict()
            == cold.results[point].metrics_dict()
        )
    print(
        f"\ncold sweep {cold_s:.1f}s, warm resume {warm.wall_time_s:.3f}s "
        f"({cold_s / max(warm.wall_time_s, 1e-9):.0f}x)"
    )
    record_benchmark(
        "sweep_cache_resume",
        {
            "cold": cold_s,
            "warm": warm.wall_time_s,
            "speedup": cold_s / max(warm.wall_time_s, 1e-9),
        },
        config={"n_points": spec.n_points, "scenario": spec.scenario},
    )
    assert warm.wall_time_s * 10 < cold_s
