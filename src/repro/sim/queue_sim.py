"""Vectorised per-interval sample-path simulation of the service.

For one scheduling interval, given each component's *current* service-
time distribution (base distribution inflated by the interference the
component experiences on its node), this module simulates every
request's journey through the topology with **exact FIFO queue sample
paths** (the Lindley kernel).

The per-group routing mechanics — random splitting for Basic/PCS,
redundancy with imperfect cancellation for RED-k, percentile reissue
for RI-p, fixed-delay hedging — live in
:mod:`repro.baselines.routing` as :class:`~repro.baselines.routing.
RoutingKernel` classes, registered next to their policy descriptors in
:mod:`repro.baselines.policies`.  This module resolves the kernel once
per interval via :func:`~repro.baselines.routing.routing_kernel_for`
and never branches on policy types, so new policies plug in without
touching the simulator.

Stage semantics follow Eqs. 3–4, generalised to the topology's request
DAG: a request's stage latency is the max over the stage's
*participating* groups (optional groups are included per request with
their ``participation`` probability, drawn from the caller's request
stream), the stage's completion is the slowest predecessor stage's
completion plus that latency, and the overall latency is the max over
the exit stages' completions — the critical path.  On a chain topology
this is exactly the old sum-over-stages and the sample paths are
bit-identical (golden-pinned in ``tests/scenarios``).  All sub-requests
of one stage share the stage's arrival stream (inter-stage jitter is
dropped — the DES reference simulator in :mod:`repro.sim.des_service`
traverses the same DAG event-by-event and bounds this approximation in
tests).

Per the paper's metric definition (§VI-A), the pooled component-latency
sample records, for redundancy/reissue policies, the latency of the
*quickest* replica of each sub-request.

Windows and the streaming contract
----------------------------------
One traversal of the stage DAG serves every mode; a loop feeds it the
interval as consecutive time windows, each with its own Poisson
arrivals (a Poisson count plus sorted uniforms per window is an exact
Poisson process).

- **Exact mode** (no ``stream_into``) runs one window spanning the
  whole interval and returns every sample array.  It ignores
  ``chunk_requests``, so its sample paths are bit-identical whatever
  that setting says (golden-pinned).
- **Streamed chunking** (``stream_into`` + ``chunk_requests`` on a
  kernel with ``supports_chunking`` — random splitting, Basic/PCS)
  runs windows of about ``chunk_requests`` expected arrivals, threads
  each component's Lindley queue state across them
  (:class:`~repro.simcore.lindley.LindleyCarry`) and folds every window
  into the caller's :class:`~repro.sim.estimators.
  IntervalAccumulatorSet` before drawing the next: O(chunk) memory.
  Drawing per window consumes the seeded stream in a different order
  than one whole-interval window, so it matches exact mode in
  distribution, not sample path by sample path.
- **Chunk-incapable kernels** (redundancy's sibling cancellation and
  reissue's interval-global percentile timer couple the whole
  interval) always run one window; under ``stream_into`` that window
  is folded into the accumulators like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.policies import Policy, routing_kernel_for
from repro.errors import SimulationError
from repro.service.topology import ResolvedClassMix, ServiceTopology
from repro.sim.estimators import IntervalAccumulatorSet
from repro.simcore.distributions import Distribution
from repro.simcore.lindley import LindleyCarry

__all__ = ["IntervalOutcome", "simulate_service_interval", "poisson_arrivals"]

#: Per-component sample arrays, one part per kernel call.
_Parts = Dict[str, List[np.ndarray]]


@dataclass
class IntervalOutcome:
    """Everything one simulated interval produced."""

    request_latencies: np.ndarray
    component_sojourns: Dict[str, np.ndarray]
    component_service_samples: Dict[str, np.ndarray]
    duration_s: float
    arrival_rate: float
    #: Per-request class index / class names under a mixed-class run
    #: (None on the homogeneous single-class path).
    class_of: Optional[np.ndarray] = None
    class_names: Optional[Tuple[str, ...]] = None
    #: Streaming-mode collection: the accumulator set the caller passed
    #: as ``stream_into``, now holding the interval's summaries.  When
    #: set, the per-sample arrays above are intentionally empty.
    streaming: Optional[IntervalAccumulatorSet] = None
    #: Realized duplicate executions this interval, summed over groups —
    #: redundancy copies that escaped cancellation plus reissued/hedged
    #: secondaries (:class:`repro.baselines.routing.RoutingOutcome`).
    #: Always 0 for single-copy kernels.
    duplicates: int = 0

    @property
    def n_requests(self) -> int:
        """Number of requests simulated in the interval."""
        if self.streaming is not None:
            return int(self.streaming.overall.n)
        return int(self.request_latencies.size)

    @property
    def duplicate_load(self) -> float:
        """Realized duplicates per request — the measured counterpart of
        the policy's :class:`~repro.baselines.policies.InducedLoad`
        prediction (0.0 for an empty or duplicate-free interval)."""
        n = self.n_requests
        return self.duplicates / n if n else 0.0

    def pooled_component_latencies(self) -> np.ndarray:
        """All per-component sub-request latencies, pooled (metric 1)."""
        if self.streaming is not None:
            raise SimulationError(
                "a streamed interval keeps no sample arrays; read "
                "outcome.streaming.component_pool instead"
            )
        arrays = [a for a in self.component_sojourns.values() if a.size]
        if not arrays:
            return np.empty(0)
        return np.concatenate(arrays)

    def per_class_latencies(self) -> Dict[str, np.ndarray]:
        """Overall request latencies split by request class.

        Only meaningful on mixed-class runs; raises otherwise so a
        caller cannot silently read an empty split.
        """
        if self.streaming is not None:
            raise SimulationError(
                "a streamed interval keeps no sample arrays; read "
                "outcome.streaming.per_class instead"
            )
        if self.class_of is None or self.class_names is None:
            raise SimulationError(
                "per-class latencies need a mixed-class interval "
                "(simulate_service_interval(..., classes=...))"
            )
        return {
            name: self.request_latencies[self.class_of == c]
            for c, name in enumerate(self.class_names)
        }


def poisson_arrivals(
    rate: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, duration).

    Uses the order-statistics property: conditional on the count, the
    arrival times are sorted uniforms — one vectorised draw.
    """
    if rate < 0 or duration_s <= 0:
        raise SimulationError(
            f"need rate >= 0 and duration > 0, got {rate}, {duration_s}"
        )
    n = int(rng.poisson(rate * duration_s))
    return np.sort(rng.uniform(0.0, duration_s, n))


def _class_draws(
    classes: Optional[ResolvedClassMix], rng: np.random.Generator, n: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """One class draw per request (single-active-class mixes skip the
    draw entirely — their RNG stream must not shift)."""
    if classes is None:
        return None, None
    class_of = (
        classes.class_of(rng.random(n))
        if classes.multi_class
        else np.zeros(n, dtype=np.int64)
    )
    return class_of, classes.service_scales[class_of]


def _traverse(
    topology: ServiceTopology,
    kernel,
    arrivals: np.ndarray,
    class_of: Optional[np.ndarray],
    scale: Optional[np.ndarray],
    classes: Optional[ResolvedClassMix],
    service_dists: Mapping[str, Distribution],
    rng: np.random.Generator,
    carries: Optional[Dict[str, LindleyCarry]],
) -> Tuple[np.ndarray, _Parts, _Parts, int]:
    """One window's requests through the stage DAG.

    Returns the overall latencies (Eq. 4's critical path), each
    component's sojourn and executed-service parts, and the realized
    duplicate count.
    """
    n = arrivals.size
    sojourns: _Parts = {c.name: [] for c in topology.components}
    services: _Parts = {c.name: [] for c in topology.components}
    predecessors = topology.predecessor_indices
    completions: List[np.ndarray] = []
    duplicates = 0
    gi = 0  # stage-major global group index (class-matrix column)
    for si, stage in enumerate(topology.stages):
        stage_lat = np.zeros(n)
        for group in stage.groups:
            take: Optional[np.ndarray] = None
            if classes is not None:
                # Each request joins with its *class's* effective
                # participation (0 drops the group from that class's DAG
                # without any draw noise — the comparison is still made,
                # keeping draw counts fixed).
                p_req = classes.group_participation[class_of, gi]
                gi += 1
                if not np.all(p_req >= 1.0):
                    take = rng.random(n) < p_req
            elif group.optional:
                # Probabilistic branch: each request joins this group's
                # fan-out with probability `participation`; skipped
                # requests contribute nothing to the stage max.
                take = rng.random(n) < group.participation
            if take is None:
                out = kernel.route_group_outcome(
                    arrivals, group, service_dists, rng, sojourns, services,
                    scale, carries,
                )
                np.maximum(stage_lat, out.latencies, out=stage_lat)  # Eq. 3
            else:
                out = kernel.route_group_outcome(
                    arrivals[take], group, service_dists, rng,
                    sojourns, services,
                    None if scale is None else scale[take], carries,
                )
                stage_lat[take] = np.maximum(stage_lat[take], out.latencies)
            duplicates += out.duplicates
        completions.append(
            _stage_completions(predecessors[si], completions, stage_lat)
        )
    overall = _compose_overall(topology, completions)
    return overall, sojourns, services, duplicates


def _compose_overall(
    topology: ServiceTopology, completions: List[np.ndarray]
) -> np.ndarray:
    """Critical path over exit stages (Eq. 4 generalised to the DAG)."""
    exits = topology.exit_indices
    overall = completions[exits[0]]
    for si in exits[1:]:
        overall = np.maximum(overall, completions[si])
    return overall


def _stage_completions(
    preds: List[int], completions: List[np.ndarray], stage_lat: np.ndarray
) -> np.ndarray:
    """One stage's completion times from its predecessors' (Eq. 4)."""
    if not preds:
        return stage_lat
    ready = completions[preds[0]]
    for p in preds[1:]:
        ready = np.maximum(ready, completions[p])
    return ready + stage_lat


def _concatenated(parts: _Parts) -> Dict[str, np.ndarray]:
    return {
        name: (np.concatenate(p) if p else np.empty(0))
        for name, p in parts.items()
    }


def simulate_service_interval(
    topology: ServiceTopology,
    policy: Policy,
    arrival_rate: float,
    duration_s: float,
    service_dists: Mapping[str, Distribution],
    rng: np.random.Generator,
    classes: Optional[ResolvedClassMix] = None,
    *,
    chunk_requests: Optional[int] = None,
    stream_into: Optional[IntervalAccumulatorSet] = None,
    threshold_feed=None,
) -> IntervalOutcome:
    """Simulate one scheduling interval of the whole service.

    Parameters
    ----------
    topology:
        The service's stages/groups/replicas.
    policy:
        Any policy with a registered routing kernel (PCS routes like
        Basic; its migrations act between intervals by changing
        ``service_dists``).
    arrival_rate:
        Service-level request arrival rate (req/s).
    duration_s:
        Interval length (seconds).
    service_dists:
        Current true service-time distribution per component name.
    rng:
        Source of randomness for arrivals and service draws.
    classes:
        Resolved request-class mix
        (:meth:`~repro.service.topology.ServiceTopology.resolve_classes`).
        ``None`` — the homogeneous population — takes the pre-class
        code path, whose RNG draw order and sample paths are preserved
        bit for bit (golden-pinned).  With a mix, each request draws
        its class once (mix weights), participates in each group with
        its class's effective probability, and its service samples are
        multiplied by the class's ``service_scale``.
    chunk_requests:
        Process the interval in request chunks of this size (see the
        module docstring).  ``None`` — the default — is the exact
        legacy single pass.
    stream_into:
        Fold every latency into this accumulator set instead of
        returning sample arrays (O(chunk) memory when combined with
        ``chunk_requests`` on a chunk-capable kernel).
    threshold_feed:
        A :class:`~repro.baselines.routing.ThresholdFeed` bound to the
        interval's kernel when the policy adapts its timer online
        (:attr:`~repro.baselines.policies.Policy.adapts_threshold`).
        ``None`` — the default, and the only value non-adaptive runs
        pass — leaves the kernel untouched (RNG streams and sample
        paths are identical either way).
    """
    missing = [
        c.name for c in topology.components if c.name not in service_dists
    ]
    if missing:
        raise SimulationError(f"missing service distributions for {missing}")
    if chunk_requests is not None and chunk_requests < 1:
        raise SimulationError(
            f"chunk_requests must be >= 1, got {chunk_requests}"
        )
    if arrival_rate < 0 or duration_s <= 0:
        raise SimulationError(
            f"need rate >= 0 and duration > 0, got {arrival_rate}, {duration_s}"
        )
    kernel = routing_kernel_for(policy)
    if threshold_feed is not None:
        kernel = kernel.bind_threshold_feed(threshold_feed)
    window = duration_s
    if (
        stream_into is not None
        and chunk_requests is not None
        and kernel.supports_chunking
        and arrival_rate > 0
    ):
        window = min(chunk_requests / arrival_rate, duration_s)
    n_windows = int(np.ceil(duration_s / window))
    # One window is the whole-interval draw order and needs no queue
    # carry, so it keeps the cheaper plain Lindley scan.
    carries: Optional[Dict[str, LindleyCarry]] = {} if n_windows > 1 else None
    names = None if classes is None else classes.names
    duplicates = 0
    for wi in range(n_windows):
        w_start = wi * window
        w_end = min(duration_s, (wi + 1) * window)
        if w_end <= w_start:
            break
        arrivals = poisson_arrivals(arrival_rate, w_end - w_start, rng)
        if w_start:
            arrivals += w_start
        class_of, scale = _class_draws(classes, rng, arrivals.size)
        overall, sojourns, services, window_dups = _traverse(
            topology, kernel, arrivals, class_of, scale, classes,
            service_dists, rng, carries,
        )
        duplicates += window_dups
        if stream_into is None:  # exact mode: its one window is the interval
            return IntervalOutcome(
                request_latencies=overall,
                component_sojourns=_concatenated(sojourns),
                component_service_samples=_concatenated(services),
                duration_s=float(duration_s),
                arrival_rate=float(arrival_rate),
                class_of=class_of,
                class_names=names,
                duplicates=duplicates,
            )
        stream_into.add_chunk(overall, sojourns, class_of, names)
    return IntervalOutcome(
        request_latencies=np.empty(0),
        component_sojourns={c.name: np.empty(0) for c in topology.components},
        component_service_samples={
            c.name: np.empty(0) for c in topology.components
        },
        duration_s=float(duration_s),
        arrival_rate=float(arrival_rate),
        class_names=names,
        streaming=stream_into,
        duplicates=duplicates,
    )
