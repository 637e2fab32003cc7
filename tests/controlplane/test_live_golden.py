"""Golden digests of the live control loop, window by window.

``repro serve`` drives a :class:`~repro.controlplane.loop.ControlLoop`
in live mode: it streams each window's latencies into estimator
accumulators, decides after every window and refits the Eq. 1 models
every few windows from the rolling training set.  The replay pins
(``tests/scheduler/test_pcs_golden.py``) never retrain, and the
streamed pins (``tests/sim/test_streamed_golden.py``) fold one bare
window, so neither covers that path.  These digests do.

Each case builds the loop the way ``repro serve`` does, with the
arguments of perfbench's ``serve-burst`` workload (burst profile,
40 req/s, 8 s windows, a retrain every 4 windows), runs 24 windows
and hashes:

- ``loop.summary()`` without the measured wall-clock fields
  (``last_decision_latency_s`` and the decision's three timings);
- the per-window p99 and mean lists;
- the run stream's component and overall summaries;
- the rolling gauge.
"""

import hashlib
import json

import pytest

from repro.controlplane.service import LiveControlPlane, ServeConfig

WINDOWS = 24

#: Decision fields that are wall-clock measurements, never reproducible.
_TIMING_FIELDS = ("analysis_time_s", "search_time_s", "total_time_s")


def _summary(acc):
    s = acc.summary()
    return [int(s.n), float(s.mean), float(s.p50), float(s.p95),
            float(s.p99), float(s.max)]


def _live_digest(scenario: str, policy: str, seed: int) -> str:
    config = ServeConfig(
        scenario=scenario,
        policy=policy,
        trace_profile="burst",
        arrival_rate=40.0,
        window_s=8.0,
        retrain_every=4,
        dilation=1e6,
        seed=seed,
    )
    loop = LiveControlPlane(config).build_loop()
    for window in range(WINDOWS):
        loop.compute_window(window)
    summary = loop.summary()
    summary.pop("last_decision_latency_s")
    if summary["last_decision"] is not None:
        for field in _TIMING_FIELDS:
            summary["last_decision"].pop(field)
    state = loop.state
    record = {
        "summary": summary,
        "per_interval_p99": state.per_interval_p99,
        "per_interval_mean": state.per_interval_mean,
        "component": _summary(state.run_stream.component_pool),
        "overall": _summary(state.run_stream.overall),
        "rolling": loop.monitor.gauge.rolling(),
    }
    return hashlib.blake2b(
        json.dumps(record, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


GOLDEN = {
    "fanout-feed|PCS|100": "79103f2c2f8c5e3fab3120d143d075c9",
    "fanout-feed|PCS|101": "d5a31f40759e2577f4992de51fb5aee6",
    "nutch-search|PCS|100": "d083ad0ecc0251c4bf1b8fe20a0bc768",
    "fanout-feed|RI-90|100": "c8427abcda219c97d5454e6c083ae227",
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_live_loop_digest_pinned(case):
    scenario, policy, seed = case.split("|")
    assert _live_digest(scenario, policy, int(seed)) == GOLDEN[case]
