"""Request arrival-rate estimation.

The paper's monitor "obtains the request arrival rate by profiling
service's running logs" (§III).  Counting a Poisson stream over a
window yields a noisy rate estimate whose relative error shrinks as
``1/sqrt(count)``; this estimator reproduces exactly that, plus
exponential smoothing across windows as a log profiler would apply.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MonitoringError

__all__ = ["ArrivalRateEstimator"]


class ArrivalRateEstimator:
    """Windowed Poisson-count rate estimator with EWMA smoothing.

    Parameters
    ----------
    window_s:
        Length of each counting window (seconds).
    smoothing:
        EWMA coefficient in (0, 1]; 1.0 = no smoothing (each window
        stands alone).
    """

    def __init__(self, window_s: float = 10.0, smoothing: float = 0.5) -> None:
        if window_s <= 0:
            raise MonitoringError(f"window_s must be positive, got {window_s}")
        if not 0 < smoothing <= 1:
            raise MonitoringError(f"smoothing must be in (0, 1], got {smoothing}")
        self.window_s = float(window_s)
        self.smoothing = float(smoothing)
        self._estimate: Optional[float] = None
        self.windows_observed = 0

    @property
    def estimate(self) -> float:
        """Current smoothed arrival-rate estimate (req/s)."""
        if self._estimate is None:
            raise MonitoringError("no arrivals observed yet")
        return self._estimate

    @property
    def has_estimate(self) -> bool:
        """Whether at least one window has been observed."""
        return self._estimate is not None

    def record_count(self, count: int) -> float:
        """Feed the request count of one window; returns the new estimate."""
        if count < 0:
            raise MonitoringError(f"count must be >= 0, got {count}")
        rate = count / self.window_s
        if self._estimate is None:
            self._estimate = rate
        else:
            a = self.smoothing
            self._estimate = a * rate + (1 - a) * self._estimate
        self.windows_observed += 1
        return self._estimate

    def reset(self) -> None:
        """Forget all history."""
        self._estimate = None
        self.windows_observed = 0
