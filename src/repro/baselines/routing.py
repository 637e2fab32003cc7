"""Routing kernels: the per-group sub-request mechanics of each policy.

A :class:`RoutingKernel` is the *mechanism* half of a policy: given one
replica group's arrival stream and the group's current service-time
distributions, it decides which replica(s) execute each sub-request and
returns the resulting per-request group latency, recording per-component
sojourn and executed-service samples along the way.  The *descriptor*
half (name, load multiplier, scheduler coupling) stays in
:mod:`repro.baselines.policies`, which registers one kernel factory next
to each policy descriptor.

The simulator (:mod:`repro.sim.queue_sim`) dispatches through
:func:`routing_kernel_for` only — it never inspects policy types — so a
new routing discipline plugs in by defining a kernel here (or anywhere)
and registering it for its policy class; the simulator is untouched.

Kernels are stateless across groups and intervals: all randomness comes
from the caller's generator, and the sample paths are exactly the ones
the pre-kernel simulator produced (pinned bit-for-bit by
``tests/baselines/test_routing_kernels.py``).

Replica-sorted layout: each kernel groups a call's requests by replica
with one stable sort of small integer keys, and slices, instead of
building a boolean mask per replica and pass.  A stable sort keeps
each replica's requests in arrival order, which is the order its
masks selected, so every draw, every float operation and every
appended part happens in the same order on the same values, and the
results are bit for bit the mask loop's
(``tests/baselines/test_routing_reference.py`` checks them against the
mask-loop kernels kept in ``tests/baselines/routing_reference.py``).
Random split and reissue sort the requests by primary replica, and
replica r's reissued secondaries are read from replica r - 1's slice.
RED-k sorts its k copies per request, listed request-major, by replica;
its start and finish tables stay flat (copy c of request i in slot
c * n + i), and a running minimum over the k rows picks each winning
copy, keeping the lowest copy on a tie as ``argmin`` does.  The winning
replicas' sojourns come out of one more stable sort.  The reissue
timer reads the primary sojourns in replica order, which its
percentile does not depend on.

Mechanics (see the paper's §VI-C descriptions)
----------------------------------------------
:class:`RandomSplitKernel` (Basic / PCS)
    each sub-request goes to one uniformly chosen replica (random
    splitting keeps per-replica arrivals Poisson, matching the M/G/1
    model the predictor uses).

:class:`RedundancyKernel` (RED-k)
    each sub-request is executed on ``k`` replicas simultaneously; the
    quickest wins.  Cancellation is *imperfect*: when one copy begins
    execution a cancel message is sent, but copies that started within
    the message delay of each other both execute, and messages in
    flight don't stop a copy that is about to start.  Modelled with a
    two-pass scheme — pass 1 computes uncancelled sample paths and
    start times (a copy is cancelled iff some sibling started more than
    ``cancel_delay_s`` before this copy would start); pass 2 re-runs
    the queues with cancelled copies consuming zero service time.

:class:`ReissueKernel` (RI-p)
    a sub-request goes to its primary replica; if it has not finished
    after the p-th percentile of the expected latency for its class, a
    secondary copy is sent to the next replica.  Pass 1 determines who
    reissues; pass 2 re-runs every replica with the merged
    primary+secondary arrival streams.

:class:`HedgedKernel` (Hedge)
    like reissue, but the backup fires after a *fixed* delay instead of
    an adaptive percentile — the classic hedged/tied-request discipline
    (The Tail at Scale).  Implemented as a :class:`ReissueKernel`
    subclass overriding only the threshold rule, which is exactly the
    extension seam the kernel layer exists for.

:class:`AdaptiveReissueKernel` / :class:`AdaptiveHedgeKernel` (ARI-p / AHedge)
    the same two-pass mechanics, but the timer is tuned *online*: each
    window the kernel pushes its own-window percentile observation into
    a :class:`ThresholdFeed` (the monitor's streaming-quantile gauge,
    :class:`repro.monitoring.streaming.ReissueThresholdFeed`) and
    routes with the feed's cross-window estimate instead of the noisy
    own-window value.  With no feed bound they degrade exactly to
    their fixed counterparts.

Besides latencies, every kernel *reports* its realized duplicate
executions per call (:class:`RoutingOutcome.duplicates`) — the extra
copies that actually consumed service time, i.e. redundancy copies that
escaped cancellation and reissued/hedged secondaries.  This is
bookkeeping on arrays the kernels already compute; no RNG draw is
added, so pre-existing sample paths stay pinned bit for bit.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.service.topology import ReplicaGroup
from repro.simcore.distributions import Distribution
from repro.simcore.lindley import LindleyCarry, lindley_waits, lindley_waits_chunked

__all__ = [
    "RoutingKernel",
    "RoutingOutcome",
    "ThresholdFeed",
    "RandomSplitKernel",
    "RedundancyKernel",
    "ReissueKernel",
    "HedgedKernel",
    "AdaptiveReissueKernel",
    "AdaptiveHedgeKernel",
    "register_routing_kernel",
    "routing_kernel_for",
]


class ThresholdFeed(Protocol):
    """What an adaptive kernel needs from the monitor's streaming gauges.

    Deliberately narrow — one write, one read — so the kernel layer
    depends on a shape, not on :mod:`repro.monitoring`.  The concrete
    implementation is
    :class:`repro.monitoring.streaming.ReissueThresholdFeed`, a P²
    streaming quantile over the per-window threshold observations.
    """

    def observe_window(self, threshold_s: float, n: int) -> None:
        """Record one window's own-percentile observation over ``n`` requests."""

    def current_threshold_s(self) -> Optional[float]:
        """The tuned threshold, or ``None`` until the feed has warmed up."""


@dataclass(frozen=True)
class RoutingOutcome:
    """One :meth:`RoutingKernel.route_group_outcome` call's result.

    ``duplicates`` counts the *realized* extra executed copies beyond
    one per sub-request: redundancy copies that escaped cancellation
    and reissue/hedge secondaries actually sent.  The policy-induced
    load the predictor models (:class:`repro.baselines.policies
    .InducedLoad`) predicts exactly this quantity.
    """

    latencies: np.ndarray
    duplicates: int = 0


def _primary_choice(
    n: int, n_replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform-random primary per request.

    Random splitting keeps each replica's arrival process Poisson (the
    M in Eq. 2's M/G/1); deterministic round-robin would thin the
    stream into more-regular Erlang interarrivals and understate
    queueing relative to the paper's model.
    """
    if n_replicas == 1:
        return np.zeros(n, dtype=np.int64)
    return rng.integers(0, n_replicas, n)


def _by_replica(
    replica: np.ndarray, r_count: int
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Positions grouped by replica, and each replica's slice bounds.

    For ``start, end = bounds[r]``, ``order[start:end]`` lists the
    positions whose ``replica`` is ``r`` in increasing order, because
    the sort is stable.  The keys are cast to the narrowest unsigned
    type that holds them: NumPy radix-sorts keys of 16 bits or less,
    several times faster than it argsorts int64.
    """
    keys = replica.astype(np.min_scalar_type(r_count - 1), copy=False)
    order = np.argsort(keys, kind="stable")
    ends = np.bincount(keys, minlength=r_count).cumsum().tolist()
    return order, list(zip([0] + ends[:-1], ends))


def _append_by_replica(
    sojourns: Dict[str, List[np.ndarray]],
    group: ReplicaGroup,
    winner: np.ndarray,
    latencies: np.ndarray,
) -> None:
    """Append each replica's won latencies, in arrival order, to its
    sojourn parts (metric 1); replicas that won nothing append nothing."""
    order, bounds = _by_replica(winner, group.n_replicas)
    by_winner = latencies[order]
    for comp, (start, end) in zip(group.components, bounds):
        if end > start:
            sojourns[comp.name].append(by_winner[start:end])


class RoutingKernel(ABC):
    """How one replica group serves one interval's sub-requests."""

    #: Whether this kernel can serve an interval in request chunks.
    #: Chunking needs the group's sample path to be computable left to
    #: right with per-component queue carry-over; kernels with
    #: interval-global coupling (redundancy's sibling cancellation,
    #: reissue's own-interval percentile threshold) cannot, and the
    #: simulator serves the whole interval in one window for them.
    supports_chunking: bool = False

    @abstractmethod
    def route_group_outcome(
        self,
        arrivals: np.ndarray,
        group: ReplicaGroup,
        dists: Mapping[str, Distribution],
        rng: np.random.Generator,
        sojourns: Dict[str, List[np.ndarray]],
        services: Dict[str, List[np.ndarray]],
        scale: "np.ndarray | None" = None,
        carries: "Optional[Dict[str, LindleyCarry]]" = None,
    ) -> RoutingOutcome:
        """Serve ``arrivals`` on ``group``; return the per-request
        latency and the realized duplicate count.

        Appends each component's sub-request sojourns (metric 1: the
        quickest copy's latency, attributed to the winning replica) to
        ``sojourns[name]`` and its *executed* service samples to
        ``services[name]``.

        ``scale`` (aligned with ``arrivals``) multiplies each request's
        sampled service times — the mixed-class simulator's per-class
        service scaling.  ``None`` (the default, and the only value
        single-class runs pass) leaves every sample untouched, and the
        underlying draws are identical either way, so pre-class sample
        paths are preserved bit for bit.

        ``carries`` (chunk-capable kernels only) threads each
        component's :class:`~repro.simcore.lindley.LindleyCarry` across
        successive calls, so ``arrivals`` may be one window of a longer
        stream; kernels that cannot chunk raise if it is passed.
        """

    def bind_threshold_feed(self, feed: ThresholdFeed) -> "RoutingKernel":
        """Return a kernel wired to ``feed``; non-adaptive kernels are
        feed-blind and return themselves unchanged."""
        return self


@dataclass(frozen=True)
class RandomSplitKernel(RoutingKernel):
    """One uniformly chosen replica per sub-request (Basic / PCS)."""

    supports_chunking = True

    def route_group_outcome(
        self, arrivals, group, dists, rng, sojourns, services, scale=None,
        carries=None,
    ) -> RoutingOutcome:
        n = arrivals.size
        r_count = group.n_replicas
        order, bounds = _by_replica(_primary_choice(n, r_count, rng), r_count)
        t_sorted = arrivals[order]
        x_sorted = None if scale is None else scale[order]
        soj_sorted = np.empty(n)
        for comp, (start, end) in zip(group.components, bounds):
            t = t_sorted[start:end]
            s = np.asarray(dists[comp.name].sample(rng, t.size), dtype=np.float64)
            if x_sorted is not None:
                s = s * x_sorted[start:end]
            if carries is None:
                w = lindley_waits(t, s, validate=False)
            else:
                w, carries[comp.name] = lindley_waits_chunked(
                    t, s, carries.get(comp.name), validate=False
                )
            soj = np.add(w, s, out=soj_sorted[start:end])
            sojourns[comp.name].append(soj)
            services[comp.name].append(s)
        group_lat = np.empty(n)
        group_lat[order] = soj_sorted
        return RoutingOutcome(group_lat)


@dataclass(frozen=True)
class RedundancyKernel(RoutingKernel):
    """``replicas`` simultaneous copies with imperfect cancellation."""

    replicas: int
    cancel_delay_s: float

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"redundancy needs >= 1 copies, got {self.replicas}"
            )
        if self.cancel_delay_s < 0:
            raise ConfigurationError("cancel_delay_s must be >= 0")

    def route_group_outcome(
        self, arrivals, group, dists, rng, sojourns, services, scale=None,
        carries=None,
    ) -> RoutingOutcome:
        if carries is not None:
            raise SimulationError(
                "RedundancyKernel cannot chunk: sibling cancellation "
                "couples the whole interval"
            )
        n = arrivals.size
        r_count = group.n_replicas
        k = min(self.replicas, r_count)
        if k == 1 or n == 0:
            return RandomSplitKernel().route_group_outcome(
                arrivals, group, dists, rng, sojourns, services, scale
            )
        primary = _primary_choice(n, r_count, rng)
        # Copy c of request i runs on replica (primary[i] + c) % r_count
        # and fills slot c * n + i of the flat (k, n) tables.  Listed
        # request-major (position i * k + c), the copies sort stably by
        # replica into each replica's copies in arrival order.
        rotations = (np.arange(r_count)[:, None] + np.arange(k)) % r_count
        copy_replica = np.take(
            rotations.astype(np.min_scalar_type(r_count - 1)), primary, axis=0
        )
        pos, bounds = _by_replica(copy_replica.ravel(), r_count)
        req = pos // k
        slot = (pos - req * k) * n + req
        t_sorted = arrivals[req]
        # Pass 1: uncancelled sample paths give each copy's start time.
        starts_sorted = np.empty(k * n)
        svc_sorted = np.empty(k * n)
        for comp, (start, end) in zip(group.components, bounds):
            if end == start:
                continue
            t = t_sorted[start:end]
            s = np.asarray(dists[comp.name].sample(rng, t.size))
            if scale is not None:
                s = s * scale[req[start:end]]
            w = lindley_waits(t, s, validate=False)
            np.add(t, w, out=starts_sorted[start:end])
            svc_sorted[start:end] = s
        starts = np.empty(k * n)
        starts[slot] = starts_sorted
        starts = starts.reshape(k, n)
        # Imperfect cancellation: a copy dies iff a sibling began execution
        # more than the message delay before this copy would start.
        cancelled = starts > starts.min(axis=0) + self.cancel_delay_s
        live_sorted = ~cancelled.ravel()[slot]
        # Pass 2: cancelled copies consume no service time.
        svc2_sorted = np.where(live_sorted, svc_sorted, 0.0)
        finish_sorted = np.empty(k * n)
        for comp, (start, end) in zip(group.components, bounds):
            if end == start:
                continue
            t = t_sorted[start:end]
            s2 = svc2_sorted[start:end]
            w2 = lindley_waits(t, s2, validate=False)
            finish_sorted[start:end] = t + w2 + s2
            # Executed work only — cancelled copies never ran.
            services[comp.name].append(s2[live_sorted[start:end]])
        finish = np.empty(k * n)
        finish[slot] = finish_sorted
        finish = np.where(cancelled, np.inf, finish.reshape(k, n))
        # The quickest copy wins: a running minimum over the k rows, with
        # strict < so that a tie keeps the lowest copy, as argmin does.
        best, winner = finish[0], copy_replica[:, 0]
        for c in range(1, k):
            better = finish[c] < best
            best = np.where(better, finish[c], best)
            winner = np.where(better, copy_replica[:, c], winner)
        group_lat = best - arrivals
        # Metric 1 records the quickest replica's latency per sub-request,
        # attributed to the winning component.
        _append_by_replica(sojourns, group, winner, group_lat)
        # Realized duplicates: copies that escaped cancellation and
        # consumed service time, beyond the one execution per request.
        duplicates = int(k * n - np.count_nonzero(cancelled) - n)
        return RoutingOutcome(group_lat, duplicates)


@dataclass(frozen=True)
class ReissueKernel(RoutingKernel):
    """Conditional backup copy once the primary overstays a threshold."""

    quantile: float

    def __post_init__(self) -> None:
        if not 0 < self.quantile < 1:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )

    def _threshold(self, soj1: np.ndarray, n: int) -> float:
        """The reissue timer: p-th percentile of the interval's own
        primary sojourns (the real system's per-class latency estimate).

        Policy-internal timer, not a reported metric: the real system's
        timer interpolates its latency estimate, so this intentionally
        stays raw np.percentile rather than the nearest-rank kernel in
        repro.sim.metrics.
        """
        return float(np.percentile(soj1, self.quantile * 100.0)) if n else 0.0

    def route_group_outcome(
        self, arrivals, group, dists, rng, sojourns, services, scale=None,
        carries=None,
    ) -> RoutingOutcome:
        if carries is not None:
            raise SimulationError(
                "ReissueKernel cannot chunk: its reissue timer is a "
                "percentile of the whole interval's primary sojourns"
            )
        n = arrivals.size
        r_count = group.n_replicas
        if r_count == 1 or n == 0:
            return RandomSplitKernel().route_group_outcome(
                arrivals, group, dists, rng, sojourns, services, scale
            )
        primary = _primary_choice(n, r_count, rng)
        order, bounds = _by_replica(primary, r_count)
        t_sorted = arrivals[order]
        x_sorted = None if scale is None else scale[order]
        # Pass 1: primary-only sample paths give each request's would-be
        # latency and set the reissue threshold.
        soj1 = np.empty(n)
        svc1 = np.empty(n)
        for comp, (start, end) in zip(group.components, bounds):
            t = t_sorted[start:end]
            s = np.asarray(dists[comp.name].sample(rng, t.size))
            if x_sorted is not None:
                s = s * x_sorted[start:end]
            soj1[start:end] = lindley_waits(t, s, validate=False) + s
            svc1[start:end] = s
        threshold = self._threshold(soj1, n)
        reissue = soj1 > threshold
        # Pass 2: replica r serves its own primaries and, as secondaries,
        # the reissued primaries of replica r - 1.
        soj2 = np.empty(n)
        sec_soj = np.full(n, np.inf)
        for r, comp in enumerate(group.components):
            start, end = bounds[r]
            prev_start, prev_end = bounds[r - 1]
            sec = prev_start + np.flatnonzero(reissue[prev_start:prev_end])
            t_p = t_sorted[start:end]
            t_s = t_sorted[sec] + threshold
            s_s = np.asarray(dists[comp.name].sample(rng, sec.size))
            if x_sorted is not None:
                s_s = s_s * x_sorted[sec]
            # Merge primary and secondary streams in arrival order.
            t_all = np.concatenate([t_p, t_s])
            s_all = np.concatenate([svc1[start:end], s_s])
            merge = np.argsort(t_all, kind="stable")
            s_merged = s_all[merge]
            w_all = lindley_waits(t_all[merge], s_merged, validate=False)
            # Un-permute back to primary/secondary slots.
            unsorted = np.empty_like(w_all)
            unsorted[merge] = w_all + s_merged
            soj2[start:end] = unsorted[: t_p.size]
            sec_soj[sec] = unsorted[t_p.size :]
            services[comp.name].append(s_all)
        with np.errstate(invalid="ignore"):
            sec_lat = threshold + sec_soj
            reissued_lat = np.minimum(soj2, sec_lat)
        group_lat = np.empty(n)
        group_lat[order] = np.where(reissue, reissued_lat, soj2)
        # Metric 1: quickest copy per sub-request, attributed to its
        # component; a secondary wins only by finishing strictly first.
        secondary_won = np.empty(n, dtype=bool)
        secondary_won[order] = reissue & (soj2 > sec_lat)
        winner = primary + secondary_won
        winner[winner == r_count] = 0
        _append_by_replica(sojourns, group, winner, group_lat)
        # Every reissued request executed its secondary to completion —
        # the realized duplicate count is exactly the reissue count.
        return RoutingOutcome(group_lat, int(np.count_nonzero(reissue)))


@dataclass(frozen=True)
class HedgedKernel(ReissueKernel):
    """Fixed-delay hedging: the backup fires after ``hedge_delay_s``.

    Inherits the two-pass reissue mechanics wholesale; only the timer
    rule differs, so the whole policy is these few lines.
    """

    quantile: float = 0.5  # unused; kept for the frozen base layout
    hedge_delay_s: float = 0.010

    def __post_init__(self) -> None:
        if self.hedge_delay_s <= 0:
            raise ConfigurationError(
                f"hedge_delay_s must be positive, got {self.hedge_delay_s}"
            )

    def _threshold(self, soj1: np.ndarray, n: int) -> float:
        return float(self.hedge_delay_s)


@dataclass(frozen=True)
class AdaptiveReissueKernel(ReissueKernel):
    """Reissue whose timer is tuned online from the monitor's gauges.

    Each call computes the own-window percentile the fixed kernel would
    have used, pushes it into the bound :class:`ThresholdFeed`, and
    routes with the feed's streaming cross-window estimate instead —
    a stabler timer than any single noisy window, re-tuned every
    window.  Unbound (``feed is None``, e.g. a bare kernel test) it is
    behaviour-identical to :class:`ReissueKernel`.
    """

    feed: Optional[ThresholdFeed] = None

    def bind_threshold_feed(self, feed: ThresholdFeed) -> "AdaptiveReissueKernel":
        return dataclasses.replace(self, feed=feed)

    def _threshold(self, soj1: np.ndarray, n: int) -> float:
        own = super()._threshold(soj1, n)
        if self.feed is None:
            return own
        tuned = self.feed.current_threshold_s()
        if n:
            self.feed.observe_window(own, n)
        return own if tuned is None else float(tuned)


@dataclass(frozen=True)
class AdaptiveHedgeKernel(HedgedKernel):
    """Hedging whose delay tracks an observed latency quantile.

    The fixed :class:`HedgedKernel` fires backups after a configured
    delay whatever the load; here ``hedge_delay_s`` is only the
    cold-start value, and once the bound :class:`ThresholdFeed` warms
    up the delay follows the streamed ``quantile``-th percentile of
    observed group latencies — the Tail-at-Scale recommendation of
    hedging at "the 95th-percentile expected latency", kept current
    window over window.
    """

    quantile: float = 0.95  # the tracked latency quantile (used here)
    feed: Optional[ThresholdFeed] = None

    def bind_threshold_feed(self, feed: ThresholdFeed) -> "AdaptiveHedgeKernel":
        return dataclasses.replace(self, feed=feed)

    def _threshold(self, soj1: np.ndarray, n: int) -> float:
        if self.feed is None:
            return float(self.hedge_delay_s)
        tuned = self.feed.current_threshold_s()
        if n:
            # The percentile observation reuses the one sanctioned
            # raw-percentile site (ReissueKernel._threshold).
            self.feed.observe_window(ReissueKernel._threshold(self, soj1, n), n)
        return float(self.hedge_delay_s) if tuned is None else float(tuned)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: Policy class -> kernel factory.  Resolution walks the policy's MRO,
#: so a subclass without its own registration inherits its parent's
#: kernel (PCSPolicy routes like the Policy base: random split).
_KERNEL_FACTORIES: Dict[type, Callable[[object], RoutingKernel]] = {}


def register_routing_kernel(
    policy_type: type, factory: Callable[[object], RoutingKernel]
) -> None:
    """Register ``factory(policy) -> RoutingKernel`` for a policy class.

    Called next to each descriptor in :mod:`repro.baselines.policies`;
    third-party policies register the same way.  Re-registering a class
    replaces its factory (latest wins), so tests can shadow built-ins.
    """
    if not isinstance(policy_type, type):
        raise ConfigurationError(
            f"policy_type must be a class, got {policy_type!r}"
        )
    _KERNEL_FACTORIES[policy_type] = factory


def routing_kernel_for(policy) -> RoutingKernel:
    """The routing kernel for ``policy`` (most-specific class wins)."""
    for klass in type(policy).__mro__:
        factory = _KERNEL_FACTORIES.get(klass)
        if factory is not None:
            return factory(policy)
    raise SimulationError(
        f"no routing kernel registered for policy {policy!r} "
        f"(register one with repro.baselines.routing.register_routing_kernel)"
    )
