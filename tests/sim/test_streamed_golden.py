"""Golden digests of the streamed simulator paths.

``stream_into`` folds an interval's latencies into estimator
accumulators instead of returning sample arrays.  Two paths reach it:

- **the one-window fold**: no ``chunk_requests`` (or a kernel that
  cannot chunk), the whole interval is simulated in one window and
  folded at the end — the path ``repro serve`` runs;
- **chunked streaming**: ``chunk_requests`` on a chunk-capable kernel,
  arrivals drawn window by window with the Lindley queue state carried
  across windows.

Neither is bit-identical to exact mode (the accumulators estimate), so
the exact-mode golden pins do not cover them.  These digests do: each
hashes the summaries of every accumulator role (n, mean, p50/p95/p99,
max; per class too), plus the realized ``duplicates`` and
``n_requests``, over two consecutive intervals that share the request
stream and, for adaptive policies, the threshold feed.  Captured from
the simulator before its passes were merged into one traversal.
"""

import hashlib
import json

import pytest

from repro.baselines.policies import (
    AdaptiveReissuePolicy,
    BasicPolicy,
    REDPolicy,
    ReissuePolicy,
)
from repro.monitoring.streaming import ReissueThresholdFeed
from repro.rng import RngRegistry
from repro.scenarios import get_scenario
from repro.sim.estimators import IntervalAccumulatorSet
from repro.sim.queue_sim import simulate_service_interval

RATE = 60.0
DURATION_S = 30.0
#: Interval length per chunk size: at chunk 1000 the 30 s interval
#: still spans two windows; chunk 7 gets a short interval because its
#: cost is per window.
CHUNK_DURATION_S = {7: 4.0, 1000: DURATION_S}

POLICIES = {
    "Basic": BasicPolicy(),
    "RED-3": REDPolicy(replicas=3),
    "RI-90": ReissuePolicy(quantile=0.90),
    "ARI-90": AdaptiveReissuePolicy(quantile=0.90),
}


def _summary(acc):
    if acc.n == 0:
        return None
    s = acc.summary()
    return [int(s.n), float(s.mean), float(s.p50), float(s.p95),
            float(s.p99), float(s.max)]


def _streamed_digest(scenario: str, policy_name: str, chunk, duration_s) -> str:
    spec = get_scenario(scenario)
    topology = spec.build_service(spec.runner_config()).topology
    classes = topology.resolve_classes(spec.request_classes)
    dists = {c.name: c.base_service for c in topology.components}
    policy = POLICIES[policy_name]
    feed = ReissueThresholdFeed() if policy.adapts_threshold else None
    rngs = RngRegistry(7)
    request_rng = rngs.get("requests")
    records = []
    for interval in range(2):
        stream = IntervalAccumulatorSet.create(
            rng_for=lambda role: rngs.get(f"estimator-{role}"),
            class_names=(
                classes.names
                if classes is not None and classes.multi_class
                else None
            ),
        )
        out = simulate_service_interval(
            topology, policy, RATE, duration_s, dists, request_rng,
            classes, chunk_requests=chunk, stream_into=stream,
            threshold_feed=feed,
        )
        assert out.streaming is stream
        records.append(
            {
                "overall": _summary(stream.overall),
                "component": _summary(stream.component_pool),
                "per_class": (
                    None
                    if stream.per_class is None
                    else {
                        name: _summary(acc)
                        for name, acc in stream.per_class.items()
                    }
                ),
                "duplicates": int(out.duplicates),
                "n_requests": int(out.n_requests),
            }
        )
    return hashlib.blake2b(
        json.dumps(records, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


SCENARIOS = ("nutch-search", "mixed-frontend", "branchy-api")


class TestOneWindowFoldGolden:
    """``stream_into`` without ``chunk_requests``: one window, folded."""

    GOLDEN = {
        "nutch-search|Basic": "f706729c1d7d615f3434102ad992f15b",
        "nutch-search|RED-3": "5e4b73e67d8a3981e0e44ff4a66cc187",
        "nutch-search|RI-90": "6085f7ff4c66f62cd4ba792f56963015",
        "nutch-search|ARI-90": "08c088da508d251042991753c3909137",
        "mixed-frontend|Basic": "8c1f4082cd76e43d449c6b4caf8d264c",
        "mixed-frontend|RED-3": "7c765b798aff93d3843f30e2734d6091",
        "mixed-frontend|RI-90": "6a9e46cd5cfbdbaaf87f6adbfe5503b3",
        "mixed-frontend|ARI-90": "62bba6bfadc633b947f04b6e432b6382",
        "branchy-api|Basic": "93e26544dfb0fedb96556e978c5b330e",
        "branchy-api|RED-3": "f6aa7bbc71c5ee3f3ceeefb33641c4d9",
        "branchy-api|RI-90": "0d9b0b399573f4fffe2a2725b21611a4",
        "branchy-api|ARI-90": "ab6308e4f2d787ff2ea71aa69bd7336c",
    }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_fold_digest_pinned(self, scenario, policy_name):
        got = _streamed_digest(scenario, policy_name, None, DURATION_S)
        assert got == self.GOLDEN[f"{scenario}|{policy_name}"]


class TestChunkedStreamingGolden:
    """``stream_into`` + ``chunk_requests`` on random splitting: many
    windows with the queue state carried between them."""

    GOLDEN = {
        "nutch-search|7": "fd296a20e0c6105ec955bcae514e86e7",
        "nutch-search|1000": "31eb461e2dbc0753cf888c6828f3dbaf",
        "mixed-frontend|7": "5f9c8dcd8a06e03af93bf7a453823c1c",
        "mixed-frontend|1000": "9bd3ea9d8119a3381c8b6b446e07d7cd",
        "branchy-api|7": "4e90a45adb365022d4ffc56b5837656a",
        "branchy-api|1000": "ef13b2ffcd55d3e19755ed7ac7e68a64",
    }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("chunk", list(CHUNK_DURATION_S))
    def test_chunked_digest_pinned(self, scenario, chunk):
        got = _streamed_digest(
            scenario, "Basic", chunk, CHUNK_DURATION_S[chunk]
        )
        assert got == self.GOLDEN[f"{scenario}|{chunk}"]
