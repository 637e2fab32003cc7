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
from typing import Callable, Dict, List, Mapping, Optional, Protocol

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
        primary = _primary_choice(n, r_count, rng)
        group_lat = np.empty(n)
        for r, comp in enumerate(group.components):
            mask = primary == r
            t = arrivals[mask]
            s = np.asarray(dists[comp.name].sample(rng, t.size), dtype=np.float64)
            if scale is not None:
                s = s * scale[mask]
            if carries is None:
                w = lindley_waits(t, s, validate=False)
            else:
                w, carries[comp.name] = lindley_waits_chunked(
                    t, s, carries.get(comp.name), validate=False
                )
            soj = w + s
            group_lat[mask] = soj
            sojourns[comp.name].append(soj)
            services[comp.name].append(s)
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
        # copy c of request i runs on replica (primary[i] + c) % r_count.
        starts = np.full((k, n), np.inf)
        svc = np.zeros((k, n))
        replica_req: Dict[int, np.ndarray] = {}
        replica_copy: Dict[int, np.ndarray] = {}
        for r in range(r_count):
            copy_idx = (r - primary) % r_count
            mask = copy_idx < k
            req_ids = np.flatnonzero(mask)
            if req_ids.size == 0:
                continue
            t = arrivals[req_ids]
            s = np.asarray(dists[group.components[r].name].sample(rng, t.size))
            if scale is not None:
                s = s * scale[req_ids]
            w = lindley_waits(t, s, validate=False)
            c = copy_idx[req_ids]
            starts[c, req_ids] = t + w
            svc[c, req_ids] = s
            replica_req[r] = req_ids
            replica_copy[r] = c
        # Imperfect cancellation: a copy dies iff a sibling began execution
        # more than the message delay before this copy would start.
        first_start = starts.min(axis=0)
        cancelled = starts > first_start + self.cancel_delay_s
        # Pass 2: cancelled copies consume no service time.
        svc2 = np.where(cancelled, 0.0, svc)
        finish = np.full((k, n), np.inf)
        for r, req_ids in replica_req.items():
            t = arrivals[req_ids]
            c = replica_copy[r]
            s2 = svc2[c, req_ids]
            w2 = lindley_waits(t, s2, validate=False)
            finish[c, req_ids] = t + w2 + s2
            live = ~cancelled[c, req_ids]
            # Executed work only — cancelled copies never ran.
            services[group.components[r].name].append(s2[live])
        finish = np.where(cancelled, np.inf, finish)
        winner_copy = np.argmin(finish, axis=0)
        group_lat = finish[winner_copy, np.arange(n)] - arrivals
        # Metric 1 records the quickest replica's latency per sub-request,
        # attributed to the winning component.
        winner_replica = (primary + winner_copy) % r_count
        for r, comp in enumerate(group.components):
            won = winner_replica == r
            if won.any():
                sojourns[comp.name].append(group_lat[won])
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
        # Pass 1: primary-only sample paths give each request's would-be
        # latency and set the reissue threshold.
        soj1 = np.empty(n)
        svc1 = np.empty(n)
        for r, comp in enumerate(group.components):
            mask = primary == r
            t = arrivals[mask]
            s = np.asarray(dists[comp.name].sample(rng, t.size))
            if scale is not None:
                s = s * scale[mask]
            soj1[mask] = lindley_waits(t, s, validate=False) + s
            svc1[mask] = s
        threshold = self._threshold(soj1, n)
        reissue = soj1 > threshold
        secondary_replica = (primary + 1) % r_count
        soj2 = np.empty(n)
        sec_soj = np.full(n, np.inf)
        for r, comp in enumerate(group.components):
            p_mask = primary == r
            s_mask = reissue & (secondary_replica == r)
            t_p = arrivals[p_mask]
            t_s = arrivals[s_mask] + threshold
            s_p = svc1[p_mask]
            s_s = np.asarray(dists[comp.name].sample(rng, int(s_mask.sum())))
            if scale is not None:
                s_s = s_s * scale[s_mask]
            # Merge primary and secondary streams in arrival order.
            t_all = np.concatenate([t_p, t_s])
            s_all = np.concatenate([s_p, s_s])
            order = np.argsort(t_all, kind="stable")
            w_all = lindley_waits(t_all[order], s_all[order], validate=False)
            soj_all = np.empty_like(w_all)
            soj_all[...] = w_all + s_all[order]
            # Un-permute back to primary/secondary slots.
            unsorted = np.empty_like(soj_all)
            unsorted[order] = soj_all
            soj2[p_mask] = unsorted[: t_p.size]
            sec_soj[s_mask] = unsorted[t_p.size :]
            services[comp.name].append(s_all)
        with np.errstate(invalid="ignore"):
            reissued_lat = np.minimum(soj2, threshold + sec_soj)
        group_lat = np.where(reissue, reissued_lat, soj2)
        # Metric 1: quickest copy per sub-request, attributed to its component.
        primary_won = ~reissue | (soj2 <= threshold + sec_soj)
        for r, comp in enumerate(group.components):
            won_primary = (primary == r) & primary_won
            won_secondary = (secondary_replica == r) & reissue & ~primary_won
            won = won_primary | won_secondary
            if won.any():
                sojourns[comp.name].append(group_lat[won])
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
