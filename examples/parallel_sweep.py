#!/usr/bin/env python
"""A Fig. 6-style sweep through the parallel sweep subsystem.

Builds a policies × arrival-rates × seeds grid, fans it out over as
many workers as the machine offers, memoizes every completed point in
an on-disk cache, then reruns the sweep to show the resume path (every
point a cache hit, the whole "sweep" over in milliseconds).

Results are bit-identical whatever the worker count — and whatever the
*execution backend*: every point seeds its own RngRegistry from its
grid coordinates, so parallelism is free of heisen-numbers.  Kill the
script mid-sweep and rerun it — completed points are not recomputed.

The script also demonstrates the default backend choice (``auto``,
also the CLI default): the sweep's leftover points after an
interruption form a *small* pending set of cheap points, which
``auto`` runs inline — no per-spawn interpreter + numpy import and a
warm trained-predictor memo, so a handful of points finishes before a
spawn pool would have finished importing numpy.
"""

import os
import tempfile
import time

from repro.baselines.policies import BasicPolicy, REDPolicy
from repro.experiments.fig6 import paper_pcs_policy
from repro.service.nutch import NutchConfig
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepSpec
from repro.workloads.generator import GeneratorConfig


def build_spec() -> SweepSpec:
    base = RunnerConfig(
        n_nodes=12,
        arrival_rate=50.0,  # placeholder; each point overrides it
        interval_s=20.0,
        n_intervals=5,
        warmup_intervals=1,
        seed=0,  # placeholder; each point overrides it
        nutch=NutchConfig(n_search_groups=8, replicas_per_group=3),
        generator=GeneratorConfig(
            jobs_per_node_per_s=0.015, max_batch_jobs_per_node=3
        ),
    )
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=3), paper_pcs_policy()),
        arrival_rates=(30.0, 90.0, 180.0),
        seeds=(0, 1),
    )


def main() -> None:
    spec = build_spec()
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        workers = os.cpu_count() or 1
    print(
        f"{spec.n_points}-point grid "
        f"({len(spec.policies)} policies x {len(spec.arrival_rates)} rates "
        f"x {len(spec.seeds)} seeds), {workers} worker(s)\n"
    )
    with tempfile.TemporaryDirectory(prefix="pcs-sweep-cache-") as cache_dir:
        sweep = ParallelSweepRunner(
            spec,
            workers=workers,
            cache=cache_dir,
            progress=lambda p: print(p.render()),
        )
        first = sweep.run()
        print(f"\ncold sweep: {first.wall_time_s:.1f} s\n")

        resumed = ParallelSweepRunner(spec, workers=workers, cache=cache_dir).run()
        print(
            f"resumed sweep: {resumed.wall_time_s:.3f} s "
            f"({resumed.cache_hits}/{spec.n_points} points from cache)\n"
        )

        # Resume through auto.  Simulate an interruption that lost a
        # few points: auto sizes the backend by what is still pending,
        # and three cheap cells run inline rather than on spawn
        # workers that would each pay an interpreter + numpy import.
        from repro.sim.sweep import SweepCache, point_cache_key

        cache = SweepCache(cache_dir)
        for point in spec.points()[:3]:
            cache.path_for(
                point_cache_key(spec.runner_config(point), point.policy)
            ).unlink()
        t0 = time.perf_counter()
        repaired = ParallelSweepRunner(spec, workers=workers, cache=cache).run()
        print(
            "auto repair of 3 lost points: "
            f"{time.perf_counter() - t0:.2f} s "
            f"({repaired.cache_hits}/{spec.n_points} from cache); "
            "identical numbers\n"
        )
        for point in spec.points()[:3]:
            assert (
                repaired.results[point].metrics_dict()
                == first.results[point].metrics_dict()
            )

    # The grid slices back into the familiar Fig. 6 presentation.
    for seed in spec.seeds:
        per_rate = first.by_rate(seed=seed)
        for rate in spec.arrival_rates:
            pcs = per_rate[rate]["PCS"]
            basic = per_rate[rate]["Basic"]
            print(
                f"seed {seed} @ {rate:5.0f} req/s: PCS p99 "
                f"{pcs.component_p99_s * 1e3:6.1f} ms vs Basic "
                f"{basic.component_p99_s * 1e3:6.1f} ms"
            )


if __name__ == "__main__":
    main()
