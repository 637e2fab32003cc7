"""Tier-2 memory-ceiling regression: 10⁶ arrivals, O(chunk) memory.

Drives one fanout-feed interval with over a million Poisson arrivals
twice under tracemalloc: once monolithically, keeping every sample
array resident (O(requests) memory, several hundred MiB at this
scale), and once through the chunked streaming path.  The streamed
peak must stay below a fixed budget and below a third of the
monolithic peak.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.policies import BasicPolicy
from repro.rng import RngRegistry
from repro.scenarios import get_scenario
from repro.sim.estimators import IntervalAccumulatorSet
from repro.sim.queue_sim import simulate_service_interval

#: Stable fanout-feed rate (shard bound ~1360 req/s) x duration that
#: puts the expected arrival count just past one million.
RATE = 1200.0
DURATION_S = 850.0
CHUNK = 32768

#: Hard ceiling for the streamed pass.  The working set is O(chunk x
#: groups) plus the reservoirs; measured peaks sit well under half of
#: this, while the monolithic pass needs hundreds of MiB.
PEAK_BUDGET_MIB = 120


def _traced_peak(fn):
    """(result, tracemalloc peak bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.tier2
def test_million_request_interval_within_memory_budget():
    spec = get_scenario("fanout-feed")
    topology = spec.build_service(spec.runner_config()).topology
    dists = {c.name: c.base_service for c in topology.components}

    mono, peak_mono = _traced_peak(
        lambda: simulate_service_interval(
            topology, BasicPolicy(), RATE, DURATION_S, dists,
            np.random.default_rng(0),
        )
    )
    n_mono = mono.request_latencies.size
    del mono  # release the O(requests) arrays before the second pass

    rngs = RngRegistry(0)
    stream = IntervalAccumulatorSet.create(
        rng_for=lambda role: rngs.get(f"estimator-{role}")
    )
    outcome, peak = _traced_peak(
        lambda: simulate_service_interval(
            topology, BasicPolicy(), RATE, DURATION_S, dists,
            rngs.get("requests"),
            chunk_requests=CHUNK, stream_into=stream,
        )
    )

    assert n_mono > 1_000_000
    assert stream.overall.n > 1_000_000
    assert outcome.streaming is stream
    assert outcome.request_latencies.size == 0  # nothing retained
    peak_mib = peak / 2**20
    assert peak_mib < PEAK_BUDGET_MIB, (
        f"streamed 10^6-request interval peaked at {peak_mib:.0f} MiB "
        f"(budget {PEAK_BUDGET_MIB} MiB)"
    )
    assert peak < peak_mono / 3, (
        f"streamed peak {peak_mib:.0f} MiB is not under a third of the "
        f"monolithic {peak_mono / 2**20:.0f} MiB"
    )
    # The summaries the memory bound pays for are actually usable.
    summary = stream.overall.summary()
    assert 0 < summary.p50 < summary.p99 <= summary.max
