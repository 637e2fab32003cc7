"""Streaming latency accumulation for memory-bounded simulation.

At paper scale × millions of arrivals the simulator cannot keep every
latency sample to compute exact nearest-rank percentiles at the end —
that is the O(requests) memory wall this layer removes.  It provides
one front door, :class:`LatencyAccumulator`, with two modes:

``"exact"``
    stores the sample arrays verbatim and summarises them through the
    shared metric kernel (:func:`repro.sim.metrics.summarize` over
    :func:`repro.sim.metrics.pool`).  Bit-identical to the historical
    pool-then-summarise path — this is what every default run uses, so
    golden pins and sweep-cache digests are untouched.

``"streaming"``
    O(reservoir) memory however many observations stream through:

    - the mean as a running Chan et al. update of each batch's NumPy
      mean — exact up to float rounding, never sampled;
    - ``max`` tracked exactly (running maximum);
    - percentiles from a **seeded bottom-k reservoir**
      (:class:`ReservoirSampler`).  A reservoir is *mergeable*
      (bottom-k of a union is associative), which the runner needs to
      combine per-interval accumulators into the run summary.

Error contract (documented here, enforced by
``tests/sim/test_estimators_properties.py``): with reservoir size k,
an estimated q-quantile is the exact nearest-rank quantile of a
uniform-without-replacement subsample of size k, so its *rank* error is
O(sqrt(q(1-q)/k)) — about ±0.08 percentile points at the default
k = 16384 for p99 — and every reported value is an actually observed
latency (the nearest-rank convention survives sampling).

Reservoir sampling uses per-observation priorities drawn from the
accumulator's own seeded generator: keep the k observations with the
smallest priorities.  This makes the kept *set* independent of chunk
boundaries (the priority stream is consumed one value per observation
in arrival order) and makes ``merge`` exact: bottom-k of the union of
two bottom-k sets is the bottom-k of the union of the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import EstimatorError
from repro.sim.metrics import LatencySummary, percentile, pool, summarize

__all__ = [
    "DEFAULT_RESERVOIR_SIZE",
    "ReservoirSampler",
    "LatencyAccumulator",
    "IntervalAccumulatorSet",
]

#: Default bottom-k reservoir capacity: rank error ~ sqrt(.01*.99/16384)
#: ≈ 8e-4 for p99 — well inside the error contract documented above.
DEFAULT_RESERVOIR_SIZE = 16384

#: The quantiles a :class:`~repro.sim.metrics.LatencySummary` reports.
_SUMMARY_QS = (50.0, 95.0, 99.0)

#: Streaming-mode reservoirs store values as float32: the ~1e-7
#: relative quantisation is orders of magnitude below the reservoir's
#: own O(1/sqrt(k)) rank error, and it halves the (already bounded)
#: resident sample memory.  Exact mode never narrows.
_RESERVOIR_DTYPE = np.float32


class ReservoirSampler:
    """Seeded bottom-k priority reservoir over a stream of floats.

    Each observation gets a uniform priority from ``rng`` (one draw per
    observation, in arrival order); the sampler keeps the ``capacity``
    observations with the smallest priorities.  Equivalent to a uniform
    sample without replacement, but — unlike algorithm-R index juggling
    — vectorised per chunk, invariant to how the stream is chunked, and
    exactly mergeable.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise EstimatorError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rng = rng
        self._values = np.empty(0, dtype=_RESERVOIR_DTYPE)
        self._priorities = np.empty(0, dtype=np.float64)
        self._seen = 0

    @property
    def n_seen(self) -> int:
        """Total observations streamed through (kept or not)."""
        return self._seen

    @property
    def values(self) -> np.ndarray:
        """The kept sample (unordered; copy-safe view)."""
        return self._values

    def add(self, xs) -> None:
        """Fold a chunk of observations in (one priority draw each)."""
        arr = np.asarray(xs).ravel()
        if arr.size == 0:
            return
        prio = self._rng.random(arr.size)
        self._seen += int(arr.size)
        self._absorb(arr.astype(_RESERVOIR_DTYPE, copy=False), prio)

    def merge(self, other: "ReservoirSampler") -> "ReservoirSampler":
        """Union two reservoirs: bottom-k of the combined priorities.

        Exactly associative — merging per-interval reservoirs in any
        grouping yields the same kept set as one run-long stream.
        """
        if other.capacity != self.capacity:
            raise EstimatorError(
                f"cannot merge reservoirs of capacity {self.capacity} "
                f"and {other.capacity}"
            )
        self._seen += other._seen
        self._absorb(other._values, other._priorities)
        return self

    def _absorb(self, values: np.ndarray, priorities: np.ndarray) -> None:
        values = np.concatenate([self._values, values])
        priorities = np.concatenate([self._priorities, priorities])
        if values.size > self.capacity:
            keep = np.argpartition(priorities, self.capacity)[: self.capacity]
            values = values[keep]
            priorities = priorities[keep]
        self._values = values
        self._priorities = priorities

    def quantile(self, q: float, *, label: str = "") -> float:
        """Nearest-rank q-percentile (q in [0, 100]) of the kept sample.

        Routes through the shared metric kernel so the convention (an
        actually observed value, ``method='higher'``) is preserved.
        """
        return percentile(
            np.asarray(self._values, dtype=np.float64), q, label=label
        )


class LatencyAccumulator:
    """The single seam every latency sample in a run flows through.

    Parameters
    ----------
    mode:
        ``"exact"`` (store-everything, bit-identical to pool+summarize)
        or ``"streaming"`` (O(reservoir) memory, estimated percentiles).
    rng:
        Priority stream for the reservoir (required for streaming mode;
        take it from a named ``RngRegistry`` stream for
        reproducibility).
    reservoir_size:
        Bottom-k capacity (streaming mode).
    """

    def __init__(
        self,
        mode: str = "exact",
        *,
        rng: Optional[np.random.Generator] = None,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    ) -> None:
        if mode not in ("exact", "streaming"):
            raise EstimatorError(
                f"mode must be 'exact' or 'streaming', got {mode!r}"
            )
        self.mode = mode
        self._batches = 0
        self._parts: List[np.ndarray] = []
        self._n = 0
        self._mean = 0.0
        self._max = -np.inf
        self._reservoir: Optional[ReservoirSampler] = None
        if mode == "streaming":
            if rng is None:
                raise EstimatorError(
                    "streaming mode needs an rng (a named RngRegistry stream)"
                )
            self._reservoir = ReservoirSampler(reservoir_size, rng)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Observations accumulated so far."""
        if self.mode == "exact":
            return int(sum(a.size for a in self._parts))
        return self._n

    @property
    def n_batches(self) -> int:
        """How many (possibly empty) batches were folded in."""
        return len(self._parts) if self.mode == "exact" else self._batches

    @property
    def mean(self) -> float:
        """Running mean (exact in both modes, up to float rounding)."""
        if self.mode == "exact":
            return float(pool(self._parts).mean())
        if self._n == 0:
            raise EstimatorError("no observations yet")
        return self._mean

    def _fold_mean(self, n: int, mean: float) -> None:
        """Chan et al.'s parallel update of the running mean by a batch
        of ``n`` observations with mean ``mean``."""
        if n == 0:
            return
        if self._n == 0:
            self._n, self._mean = n, mean
            return
        total = self._n + n
        self._mean += (mean - self._mean) * n / total
        self._n = total

    def add(self, xs) -> None:
        """Fold a batch of latencies in (``add_parts`` of one part)."""
        self.add_parts((xs,))

    def add_parts(self, parts) -> None:
        """Fold several batches of latencies in, in order.

        Exact mode stores each array verbatim (empty arrays included,
        so the pool's all-empty diagnostics match the historical path).
        Streaming mode counts every part, empty ones too, as a batch,
        checks the parts together, folds each non-empty part's own mean
        into the running mean in order, and feeds the concatenation to
        the reservoir in one pass.  The result equals calling
        :meth:`add` on each part in turn: one priority draw over the
        concatenation consumes the same stream as one draw per part,
        and the bottom-k of a union keeps the same set.  A negative or
        non-finite latency raises before any part reaches the mean, the
        maximum or the reservoir.
        """
        arrs = [np.asarray(xs, dtype=np.float64).ravel() for xs in parts]
        if self.mode == "exact":
            self._parts.extend(arrs)
            return
        self._batches += len(arrs)
        arrs = [arr for arr in arrs if arr.size]
        if not arrs:
            return
        joined = np.concatenate(arrs)
        if np.any(joined < 0) or not np.all(np.isfinite(joined)):
            raise EstimatorError(
                "latencies must be finite and non-negative"
            )
        for arr in arrs:
            self._fold_mean(int(arr.size), float(arr.mean()))
        self._max = max(self._max, float(joined.max()))
        self._reservoir.add(joined)

    def merge(self, other: "LatencyAccumulator") -> "LatencyAccumulator":
        """Fold another accumulator in (associative).

        Exact merges concatenate part lists; streaming merges combine
        means (Chan), maxima, and reservoirs (bottom-k of the union).
        Mixed modes refuse: silently blending an exact and an estimated
        summary would corrupt the provenance contract.
        """
        if other.mode != self.mode:
            raise EstimatorError(
                f"cannot merge a {self.mode} accumulator with a "
                f"{other.mode} one"
            )
        if self.mode == "exact":
            self._parts.extend(other._parts)
            return self
        self._batches += other._batches
        self._fold_mean(other._n, other._mean)
        self._max = max(self._max, other._max)
        self._reservoir.merge(other._reservoir)
        return self

    def summary(self, *, label: str = "") -> LatencySummary:
        """Reduce to a :class:`~repro.sim.metrics.LatencySummary`.

        Exact mode is bit-identical to ``summarize(pool(parts))``; in
        streaming mode ``n``, ``mean`` and ``max`` are exact while the
        percentiles carry the documented estimator error.
        """
        if self.mode == "exact":
            return summarize(pool(self._parts, label=label), label=label)
        if self.n == 0:
            raise EstimatorError(
                f"cannot summarise an empty latency stream"
                f"{f' ({label})' if label else ''}"
            )
        qs = {
            q: self._reservoir.quantile(q, label=label) for q in _SUMMARY_QS
        }
        return LatencySummary(
            n=self.n,
            mean=self._mean,
            p50=qs[50.0],
            p95=qs[95.0],
            p99=qs[99.0],
            max=float(self._max),
        )


@dataclass
class IntervalAccumulatorSet:
    """The accumulators one streamed interval (or run) fills.

    Mirrors the three sample families a :class:`~repro.sim.runner.
    PolicyResult` reports: pooled per-component sojourns (metric 1),
    overall request latencies (metric 2), and the per-class split of
    the latter (mixed-class runs only, keyed by class name).
    """

    overall: LatencyAccumulator
    component_pool: LatencyAccumulator
    per_class: Optional[Dict[str, LatencyAccumulator]] = None

    @classmethod
    def create(
        cls,
        rng_for: "callable",
        class_names: Optional[tuple] = None,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    ) -> "IntervalAccumulatorSet":
        """Build a streaming set with one named rng stream per role.

        ``rng_for(role)`` returns the priority generator for that role
        (e.g. ``lambda role: rngs.get(f"estimator-{role}")``), so every
        reservoir is seeded from its own :class:`~repro.rng.RngRegistry`
        stream and the whole set is reproducible.
        """
        per_class = None
        if class_names is not None:
            per_class = {
                name: LatencyAccumulator(
                    "streaming",
                    rng=rng_for(f"class-{name}"),
                    reservoir_size=reservoir_size,
                )
                for name in class_names
            }
        return cls(
            overall=LatencyAccumulator(
                "streaming",
                rng=rng_for("overall"),
                reservoir_size=reservoir_size,
            ),
            component_pool=LatencyAccumulator(
                "streaming",
                rng=rng_for("component"),
                reservoir_size=reservoir_size,
            ),
            per_class=per_class,
        )

    def add_chunk(
        self,
        overall: np.ndarray,
        component_sojourns: Dict[str, List[np.ndarray]],
        class_of: Optional[np.ndarray],
        class_names: Optional[tuple],
    ) -> None:
        """Fold one simulated chunk in and let its arrays die."""
        self.overall.add(overall)
        self.component_pool.add_parts(
            [part for parts in component_sojourns.values() for part in parts]
        )
        if self.per_class is not None and class_of is not None:
            assert class_names is not None
            for c, name in enumerate(class_names):
                self.per_class[name].add(overall[class_of == c])

    def merge(self, other: "IntervalAccumulatorSet") -> "IntervalAccumulatorSet":
        """Fold another set in role-by-role (associative)."""
        self.overall.merge(other.overall)
        self.component_pool.merge(other.component_pool)
        if other.per_class is not None:
            if self.per_class is None:
                raise EstimatorError(
                    "cannot merge a per-class accumulator set into one "
                    "without per-class roles"
                )
            for name, acc in other.per_class.items():
                self.per_class[name].merge(acc)
        return self
