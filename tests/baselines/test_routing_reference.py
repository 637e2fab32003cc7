"""The routing kernels against their mask-loop reference, bit for bit.

The production kernels sort each group's requests by replica and slice;
``routing_reference.py`` keeps the per-replica boolean masks they
replaced.  Both see the same draws in the same order, so every output a
caller or the simulator can observe must be equal: the latency bytes,
each component's appended sojourn and executed-service parts (count,
order and bytes), the duplicate count, Lindley carries, a bound feed's
observations and the generator's state after the call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.routing import (
    AdaptiveHedgeKernel,
    AdaptiveReissueKernel,
    HedgedKernel,
    RandomSplitKernel,
    RedundancyKernel,
    ReissueKernel,
)
from repro.service.component import Component, ComponentClass
from repro.service.topology import ReplicaGroup
from repro.simcore.distributions import Deterministic, Exponential, LogNormal

from routing_reference import route_reference


class RecordingFeed:
    """A threshold feed that logs every observation and serves a fixed
    tuned value (``None`` plays a feed that has not warmed up)."""

    def __init__(self, tuned):
        self.tuned = tuned
        self.observed = []

    def observe_window(self, threshold_s, n):
        self.observed.append((np.float64(threshold_s).tobytes(), n))

    def current_threshold_s(self):
        return self.tuned


#: Constant service times and timers on one grid: copies and reissued
#: secondaries then finish in exact ties, which only the kernels'
#: tie-breaking rules decide.
TIED_TIMES = (0.002, 0.004)


@st.composite
def _group_and_dists(draw):
    r_count = draw(st.integers(1, 5))
    all_constant = draw(st.booleans())
    dists = {}
    components = []
    for r in range(r_count):
        name = f"c{r}"
        kind = "constant" if all_constant else draw(
            st.sampled_from(["exp", "lognormal", "constant"])
        )
        if kind == "exp":
            dists[name] = Exponential(draw(st.floats(1e-3, 2e-2)))
        elif kind == "lognormal":
            dists[name] = LogNormal(
                draw(st.floats(1e-3, 2e-2)), draw(st.floats(0.1, 4.0))
            )
        else:
            dists[name] = Deterministic(draw(st.sampled_from(TIED_TIMES)))
        components.append(
            Component(name=name, cls=ComponentClass.SEARCHING, base_service=dists[name])
        )
    return ReplicaGroup("g", components), dists


@st.composite
def _arrivals(draw):
    """Sorted arrivals of 0, 1, a few or ~1500 requests, some tied."""
    n = draw(
        st.one_of(
            st.just(0), st.just(1), st.integers(2, 40), st.integers(1400, 1600)
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.exponential(1.0 / draw(st.floats(5.0, 2000.0)), n)
    gaps[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    return draw(st.floats(0.0, 100.0)) + np.cumsum(gaps)


@st.composite
def _kernel(draw, r_count):
    kind = draw(
        st.sampled_from(
            ["split", "red", "reissue", "hedge", "adaptive-reissue", "adaptive-hedge"]
        )
    )
    if kind == "split":
        return RandomSplitKernel()
    if kind == "red":
        delay = draw(st.sampled_from([0.0, 1e-4, 2e-3]))
        return RedundancyKernel(draw(st.integers(1, r_count + 1)), delay)
    quantile = draw(st.sampled_from([0.5, 0.9, 0.99]))
    if kind == "reissue":
        return ReissueKernel(quantile)
    delay = draw(st.one_of(st.sampled_from(TIED_TIMES), st.floats(1e-4, 2e-2)))
    if kind == "hedge":
        return HedgedKernel(hedge_delay_s=delay)
    if kind == "adaptive-reissue":
        return AdaptiveReissueKernel(quantile)
    return AdaptiveHedgeKernel(quantile=quantile, hedge_delay_s=delay)


def _assert_parts_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for a, b in zip(got[name], want[name]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernels_reproduce_the_mask_loop_reference(data):
    group, dists = data.draw(_group_and_dists())
    arrivals = data.draw(_arrivals())
    kernel = data.draw(_kernel(group.n_replicas))
    scale = None
    if data.draw(st.booleans()):
        scale = np.random.default_rng(arrivals.size).uniform(0.5, 2.0, arrivals.size)
    feeds = [None, None]
    if hasattr(kernel, "feed") and data.draw(st.booleans()):
        tuned = data.draw(
            st.one_of(st.none(), st.sampled_from(TIED_TIMES), st.floats(1e-4, 5e-2))
        )
        feeds = [RecordingFeed(tuned), RecordingFeed(tuned)]
    # Chunked calls thread Lindley carries; only random split can chunk.
    n_chunks = 1
    if kernel.supports_chunking and arrivals.size and data.draw(st.booleans()):
        n_chunks = data.draw(st.integers(2, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))

    def run(route, feed):
        bound = kernel if feed is None else kernel.bind_threshold_feed(feed)
        rng = np.random.default_rng(seed)
        sojourns = {c.name: [] for c in group.components}
        services = {c.name: [] for c in group.components}
        carries = {} if n_chunks > 1 else None
        outcomes = []
        for idx in np.array_split(np.arange(arrivals.size), n_chunks):
            outcomes.append(
                route(
                    bound, arrivals[idx], group, dists, rng, sojourns, services,
                    None if scale is None else scale[idx], carries,
                )
            )
        return outcomes, sojourns, services, carries, rng.bit_generator.state

    def production(bound, *args):
        return bound.route_group_outcome(*args)

    got = run(production, feeds[0])
    want = run(route_reference, feeds[1])
    for a, b in zip(got[0], want[0]):
        assert a.latencies.dtype == b.latencies.dtype
        assert a.latencies.tobytes() == b.latencies.tobytes()
        assert a.duplicates == b.duplicates
    _assert_parts_equal(got[1], want[1])
    _assert_parts_equal(got[2], want[2])
    assert got[3] == want[3]
    assert got[4] == want[4]
    if feeds[0] is not None:
        assert feeds[0].observed == feeds[1].observed
