"""Constant-memory statistics for the live control plane.

- :class:`P2Quantile` — the Jain & Chlamtac (1985) P² algorithm: a
  five-marker parabolic estimator of an arbitrary quantile in O(1)
  memory and O(1) per observation, deterministic and property-tested
  against exact NumPy percentiles;
- :class:`RollingGauge` — the last ``horizon`` windows' latency
  summaries that ``/status`` and ``/metrics`` report;
- :class:`ReissueThresholdFeed` — a P² median over per-window
  percentiles, the cross-window timer the adaptive routing kernels
  read.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.errors import MonitoringError

__all__ = [
    "P2Quantile",
    "RollingGauge",
    "ReissueThresholdFeed",
]


class P2Quantile:
    """The P² single-quantile estimator (Jain & Chlamtac, CACM 1985).

    Maintains five markers whose heights track the quantile's position
    using piecewise-parabolic adjustment.  Exact for the first five
    observations; O(1) memory afterwards.

    Parameters
    ----------
    q:
        Target quantile in (0, 1), e.g. ``0.99`` for the paper's tail
        metric.
    """

    def __init__(self, q: float = 0.99) -> None:
        if not 0.0 < q < 1.0:
            raise MonitoringError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [
            1.0,
            1.0 + 2.0 * q,
            1.0 + 4.0 * q,
            3.0 + 2.0 * q,
            5.0,
        ]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._n = 0

    @property
    def n(self) -> int:
        """Number of observations."""
        return self._n

    def add(self, x: float) -> None:
        """Fold one observation in."""
        if not math.isfinite(x):
            raise MonitoringError(f"observation must be finite, got {x}")
        self._n += 1
        h = self._heights
        if self._n <= 5:
            h.append(float(x))
            h.sort()
            return
        # Locate the cell and bump the marker positions.
        if x < h[0]:
            h[0] = float(x)
            cell = 0
        elif x >= h[4]:
            h[4] = float(x)
            cell = 3
        else:
            cell = 0
            while x >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            if (d >= 1.0 and self._positions[i + 1] - self._positions[i] > 1.0) or (
                d <= -1.0 and self._positions[i - 1] - self._positions[i] < -1.0
            ):
                sign = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                self._positions[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + sign / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + sign)
            * (h[i + 1] - h[i])
            / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - sign)
            * (h[i] - h[i - 1])
            / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (p[j] - p[i])

    def add_many(self, xs) -> None:
        """Fold a batch in."""
        for x in np.asarray(xs, dtype=np.float64).ravel():
            self.add(float(x))

    @property
    def estimate(self) -> float:
        """Current quantile estimate.

        Before five observations have arrived, falls back to the exact
        small-sample quantile.
        """
        if self._n == 0:
            raise MonitoringError("no observations yet")
        if self._n <= 5:
            return float(
                np.percentile(self._heights, self.q * 100.0, method="higher")
            )
        return self._heights[2]


class RollingGauge:
    """Latency gauges over a rolling horizon of scheduling windows.

    The live control plane's monitor phase feeds one ``(p99, mean, n)``
    record per completed window.  The gauge keeps the last ``horizon``
    records exactly (the rolling window a dashboard reads) and counts
    every window it has seen.  Deterministic, RNG-free, and never
    consulted by the batch replay path (bit-identity there is
    untouched).
    """

    def __init__(self, horizon: int = 60) -> None:
        if horizon < 1:
            raise MonitoringError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)
        self._records: deque = deque(maxlen=self.horizon)
        self._windows = 0

    def observe_window(self, p99: float, mean: float, n: int) -> None:
        """Fold one completed window's summary in."""
        if n < 1:
            raise MonitoringError(f"window request count must be >= 1, got {n}")
        if not (math.isfinite(p99) and math.isfinite(mean)):
            raise MonitoringError(
                f"window summaries must be finite, got p99={p99}, mean={mean}"
            )
        self._records.append((float(p99), float(mean), int(n)))
        self._windows += 1

    @property
    def windows(self) -> int:
        """Completed windows observed (including rolled-off ones)."""
        return self._windows

    @property
    def last(self) -> Optional[Dict[str, float]]:
        """Latest window's record, or ``None`` before the first."""
        if not self._records:
            return None
        p99, mean, n = self._records[-1]
        return {"p99": p99, "mean": mean, "n": float(n)}

    def rolling(self) -> Optional[Dict[str, float]]:
        """Aggregates over the rolling horizon, or ``None`` when empty.

        The rolling mean is request-weighted (each window contributes
        its own traffic), the rolling p99 is the max of the per-window
        p99s — the conservative dashboard convention for "worst tail
        seen recently".
        """
        if not self._records:
            return None
        records: List = list(self._records)
        total = sum(n for _, _, n in records)
        return {
            "p99": max(p99 for p99, _, _ in records),
            "mean": sum(mean * n for _, mean, n in records) / total,
            "windows": float(len(records)),
        }


class ReissueThresholdFeed:
    """Streaming reissue-timer gauge behind the adaptive routing kernels.

    Implements the narrow ``ThresholdFeed`` protocol the kernel layer
    declares (:class:`repro.baselines.routing.ThresholdFeed` — this
    module deliberately does not import it; the coupling is structural).
    Each window every replica group pushes the own-window percentile
    the fixed kernel would have used; the feed streams a
    :class:`P2Quantile` *median* over those observations, so the
    threshold an adaptive kernel routes with is the cross-window
    consensus rather than any single group's noisy window.  O(1)
    memory, RNG-free, deterministic in observation order.
    """

    def __init__(self, min_observations: int = 1) -> None:
        if min_observations < 1:
            raise MonitoringError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.min_observations = int(min_observations)
        self._median = P2Quantile(0.5)
        self._observations = 0

    def observe_window(self, threshold_s: float, n: int) -> None:
        """Fold one window/group's own-percentile observation in."""
        if n < 1:
            return  # empty windows carry no information
        if not math.isfinite(threshold_s) or threshold_s < 0:
            raise MonitoringError(
                f"threshold observation must be finite and >= 0, "
                f"got {threshold_s}"
            )
        self._median.add(float(threshold_s))
        self._observations += 1

    def current_threshold_s(self) -> Optional[float]:
        """The tuned timer, or ``None`` until warmed up."""
        if self._observations < self.min_observations:
            return None
        return float(self._median.estimate)

    @property
    def observations(self) -> int:
        """Per-window/group observations folded in so far."""
        return self._observations
