"""Latency metrics (paper §VI-A "Metrics").

Two currencies:

1. the 99th-percentile latency of individual components over all
   requests (sub-request sojourns pooled across components);
2. the average overall service latency over all requests.

Percentiles use the *nearest-rank on the empirical sample* convention
(``numpy``'s ``'higher'`` interpolation) so a reported p99 is always an
actually observed latency — the convention tail-latency papers use.

This module is the **shared metric kernel**: every reported percentile
in the package must go through :func:`percentile` (or
:func:`percentiles`, or :func:`summarize`, which reads its three from
one partition of the sample) so that all commands, benchmarks and
examples agree on the convention.  The only sanctioned raw
``np.percentile`` calls outside this module live in
:mod:`repro.monitoring.streaming` (which documents its own estimator)
and in policy-internal mechanics that are not reported metrics (the
reissue timer, ``ReissueKernel._threshold`` in
:mod:`repro.baselines.routing`).

The streaming estimator layer (:mod:`repro.sim.estimators`) obeys the
same rule: its reservoir quantiles call :func:`percentile` on the kept
sample, so an estimated p99 is still an actually observed latency —
only *which* observations are retained is sampled, with the rank-error
contract documented (and property-tested) in that module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["percentile", "percentiles", "LatencySummary", "summarize", "pool"]


def _ctx(label: str) -> str:
    """Render an optional context label for error messages."""
    return f" ({label})" if label else ""


def percentiles(values, qs: Sequence[float], *, label: str = "") -> Tuple[float, ...]:
    """Nearest-rank percentiles (each q in [0, 100]) of a non-empty
    sample, taken from one partition of it.

    Each value equals what :func:`percentile` returns for its q alone.
    ``label`` names the sample in error messages (e.g. ``"interval 3
    pooled component latencies"``) so an empty sample fails
    diagnosably instead of with a bare "empty sample".
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise SimulationError(f"percentile of an empty sample{_ctx(label)}")
    for q in qs:
        if not 0 <= q <= 100:
            raise SimulationError(f"q must be in [0, 100], got {q}")
    return tuple(np.percentile(arr, qs, method="higher").tolist())


def percentile(values, q: float, *, label: str = "") -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    return percentiles(values, (q,), label=label)[0]


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one latency sample (seconds)."""

    n: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def render(self, label: str = "", unit_ms: bool = True) -> str:
        """One-line human-readable summary."""
        f = 1e3 if unit_ms else 1.0
        u = "ms" if unit_ms else "s"
        head = f"{label}: " if label else ""
        return (
            f"{head}n={self.n} mean={self.mean * f:.2f}{u} "
            f"p50={self.p50 * f:.2f}{u} p95={self.p95 * f:.2f}{u} "
            f"p99={self.p99 * f:.2f}{u} max={self.max * f:.2f}{u}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (exact float round-trip via ``repr``)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "LatencySummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n=int(d["n"]),
            mean=float(d["mean"]),
            p50=float(d["p50"]),
            p95=float(d["p95"]),
            p99=float(d["p99"]),
            max=float(d["max"]),
        )


def summarize(values, *, label: str = "") -> LatencySummary:
    """Build a :class:`LatencySummary` from raw latencies."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise SimulationError(
            f"cannot summarise an empty latency sample{_ctx(label)}"
        )
    if np.any(arr < 0):
        raise SimulationError(f"latencies must be non-negative{_ctx(label)}")
    p50, p95, p99 = percentiles(arr, (50, 95, 99), label=label)
    return LatencySummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        p50=p50,
        p95=p95,
        p99=p99,
        max=float(arr.max()),
    )


def pool(
    samples: Mapping[str, np.ndarray] | Iterable[np.ndarray],
    *,
    label: str = "",
) -> np.ndarray:
    """Concatenate per-component latency arrays into one pooled sample.

    Empty per-component arrays are dropped (a component may simply not
    have been routed to this interval); if *every* array is empty the
    pool is meaningless and an error is raised that names the empty
    components (for mappings) and the caller's context, so an all-idle
    interval fails diagnosably rather than with a bare "nothing to
    pool".
    """
    if isinstance(samples, Mapping):
        named = [(name, np.asarray(a, dtype=np.float64)) for name, a in samples.items()]
    else:
        named = [
            (f"[{i}]", np.asarray(a, dtype=np.float64))
            for i, a in enumerate(samples)
        ]
    arrays = [a for _, a in named if a.size]
    if not arrays:
        if not named:
            raise SimulationError(f"nothing to pool{_ctx(label)}: no samples given")
        empties = [name for name, _ in named]
        shown = ", ".join(empties[:8]) + (", ..." if len(empties) > 8 else "")
        raise SimulationError(
            f"nothing to pool{_ctx(label)}: all {len(named)} samples are "
            f"empty ({shown})"
        )
    return np.concatenate(arrays)
