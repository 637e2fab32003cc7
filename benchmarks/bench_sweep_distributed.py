"""Benchmark: the distributed (spool) sweep backend.

Three claims, measured:

1. a sweep coordinated through a spool directory with two
   ``python -m repro worker`` subprocess workers is *bit-identical* to
   the serial run, point by point (asserted everywhere, always);
2. the per-job dispatch tax — the filesystem round-trip of submit ->
   claim -> result -> consume, with no compute in between — is small
   next to the points ``auto`` ships to the spool (at least
   :data:`repro.sim.backends.EXPENSIVE_POINT_CUTOFF_S` each; measured
   and recorded; asserted only against a generous 0.5 s ceiling, since
   shared CI filesystems jitter);
3. coordinator wall-clock decomposes into worker compute plus spool
   overhead: the run's results carry their worker-side
   ``wall_time_s``, so the record shows both sides of the ledger.

Measured numbers are persisted as ``BENCH_sweep_distributed.json``
(see :mod:`recording`).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from recording import record_benchmark
from repro.baselines.policies import BasicPolicy, REDPolicy
from repro.service.nutch import NutchConfig
from repro.sim.distributed import DistributedBackend, SweepSpool, encode_task
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepSpec
from repro.workloads.generator import GeneratorConfig


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _grid_spec() -> SweepSpec:
    """An 8-point grid: big enough to spread over two workers, small
    enough for CI."""
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
        policies=(BasicPolicy(), REDPolicy(replicas=2)),
        arrival_rates=(30.0, 70.0),
        seeds=(0, 1),
    )


def _spawn_workers(spool: Path, n: int):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(spool)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(n)
    ]


@pytest.mark.benchmark(group="sweep")
def test_sweep_distributed_speedup(benchmark, tmp_path):
    """Coordinator + 2 spool workers vs serial, plus the dispatch tax."""
    spec = _grid_spec()

    # Claim 2: the raw protocol round-trip, no compute.  One trivial
    # payload cycled through submit -> claim -> result -> consume is
    # exactly the filesystem overhead every real job pays on top of
    # its compute.
    spool = SweepSpool(tmp_path / "tax-spool").ensure()
    entry = encode_task(0, (spec.base, BasicPolicy()))
    rounds = 50
    t0 = time.perf_counter()
    for i in range(rounds):
        job_id = f"tax-{i:06d}"
        spool.submit_job(job_id, "tax", entry)
        payload = spool.claim(job_id)
        assert payload is not None
        spool.write_result(job_id, {"status": "ok", "result": {}})
        spool.release_claim(job_id)
        assert spool.read_result(job_id) is not None
        spool.consume_result(job_id)
    dispatch_tax_s = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    serial = ParallelSweepRunner(spec, backend="serial").run()
    serial_s = time.perf_counter() - t0

    work_spool = tmp_path / "spool"
    workers = _spawn_workers(work_spool, 2)
    try:
        t0 = time.perf_counter()
        distributed = benchmark.pedantic(
            ParallelSweepRunner(
                spec,
                backend=DistributedBackend(
                    work_spool, wait_workers=2, poll_interval_s=0.02
                ),
            ).run,
            rounds=1,
            iterations=1,
        )
        distributed_s = time.perf_counter() - t0
    finally:
        SweepSpool(work_spool).ensure().request_stop()
        for proc in workers:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()

    # Claim 1 first — correctness is unconditional.
    for point in spec.points():
        assert (
            distributed.results[point].metrics_dict()
            == serial.results[point].metrics_dict()
        ), point.describe()

    # Claim 3: both sides of the ledger.  Worker-side compute is what
    # the results themselves measured; everything else the coordinator
    # waited for is spool overhead (dispatch, polling, worker startup).
    worker_compute_s = sum(
        r.wall_time_s for r in distributed.results.values()
    )
    speedup = serial_s / distributed_s
    cores = _usable_cores()
    print(
        f"\n{spec.n_points}-point sweep: serial {serial_s:.1f}s, "
        f"2 spool workers {distributed_s:.1f}s -> {speedup:.2f}x; "
        f"worker compute {worker_compute_s:.1f}s, dispatch tax "
        f"{dispatch_tax_s * 1e3:.1f} ms/job ({cores} usable cores)"
    )
    base = spec.base
    record_benchmark(
        "sweep_distributed",
        {
            "serial": serial_s,
            "distributed_2_workers": distributed_s,
            "speedup": speedup,
            "worker_compute_total": worker_compute_s,
            "coordinator_overhead": distributed_s - worker_compute_s / 2,
            "dispatch_tax_per_job": dispatch_tax_s,
            "serial_s_per_point": serial_s / spec.n_points,
        },
        config={
            "n_points": spec.n_points,
            "workers": 2,
            "usable_cores": cores,
            "scenario": spec.scenario,
            "node_seconds_per_point": (
                base.n_intervals * base.interval_s * base.n_nodes
            ),
        },
    )
    # Claim 2: the dispatch tax must stay well under a second per job
    # on any sane filesystem (a local disk measures ~2 ms; CI shared
    # disks jitter, so the ceiling leaves two orders of headroom).
    assert dispatch_tax_s < 0.5, (
        f"spool round-trip took {dispatch_tax_s:.3f}s/job; "
        "expected well under 0.5 s"
    )
