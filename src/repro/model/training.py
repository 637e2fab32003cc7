"""Training sets, the fitting pipeline, and Fig. 5's error metrics.

The paper trains the regression models "based on the historical running
information" from profiling runs (§VI-B): pairs of (monitored contention
vector, observed mean service time).  :class:`TrainingSet` accumulates
those pairs; :func:`train_combined_model` fits the Eq. 1 model and
estimates the class SCV; the error helpers compute the quantities
Fig. 5 reports (per-case percentage error and the <3 %/<5 %/<8 %
bucket fractions).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.errors import ModelError
from repro.model.combined import CombinedServiceTimeModel

__all__ = [
    "TrainingSet",
    "train_combined_model",
    "mean_absolute_percentage_error",
    "error_buckets",
]


class TrainingSet:
    """Accumulated (contention vector, observed service time) pairs.

    ``max_samples`` turns the set into a bounded rolling window: once
    full, each :meth:`add` evicts the oldest pair.  The live control
    plane's predict phase retrains on such a window so a long-running
    service tracks contention drift with O(window) memory; the default
    (``None``, unbounded) is the batch profiling pipeline's behaviour,
    unchanged.
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ModelError(
                f"max_samples must be >= 1 or None, got {max_samples}"
            )
        self.max_samples = max_samples
        self._u: List[np.ndarray] = []
        self._x: List[float] = []

    def add(self, contention: ResourceVector, service_time: float) -> None:
        """Record one profiling observation (evicting the oldest when
        the rolling window is full)."""
        if service_time <= 0:
            raise ModelError(f"service time must be positive, got {service_time}")
        if self.max_samples is not None and len(self._x) >= self.max_samples:
            drop = len(self._x) - self.max_samples + 1
            del self._u[:drop], self._x[:drop]
        self._u.append(contention.as_array().copy())
        self._x.append(float(service_time))

    def extend(
        self, pairs: Iterable[Tuple[ResourceVector, float]]
    ) -> "TrainingSet":
        """Record many observations; returns self."""
        for u, x in pairs:
            self.add(u, x)
        return self

    def __len__(self) -> int:
        return len(self._x)

    @property
    def contention(self) -> np.ndarray:
        """``(n, 4)`` contention matrix."""
        if not self._u:
            raise ModelError("training set is empty")
        return np.stack(self._u)

    @property
    def service_times(self) -> np.ndarray:
        """``(n,)`` observed service times."""
        if not self._x:
            raise ModelError("training set is empty")
        return np.asarray(self._x, dtype=np.float64)

    @property
    def scv(self) -> float:
        """Sample squared coefficient of variation of the targets."""
        x = self.service_times
        mean = x.mean()
        if mean <= 0:
            raise ModelError("mean service time must be positive")
        return float(x.var() / (mean * mean))

    def split(self, train_fraction: float, rng: np.random.Generator):
        """Random train/test split → ``(train, test)`` TrainingSets."""
        if not 0 < train_fraction < 1:
            raise ModelError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        n = len(self)
        if n < 2:
            raise ModelError("need >= 2 samples to split")
        idx = rng.permutation(n)
        cut = max(1, min(n - 1, int(round(train_fraction * n))))
        train, test = TrainingSet(), TrainingSet()
        for part, indices in ((train, idx[:cut]), (test, idx[cut:])):
            for i in indices:
                part._u.append(self._u[i])
                part._x.append(self._x[i])
        return train, test


def train_combined_model(
    training: TrainingSet,
) -> Tuple[CombinedServiceTimeModel, float]:
    """Fit the Eq. 1 model; returns ``(model, scv estimate)``."""
    model = CombinedServiceTimeModel()
    model.fit(training.contention, training.service_times)
    return model, training.scv


def mean_absolute_percentage_error(predicted, observed) -> float:
    """MAPE in percent — the paper's 'average prediction error'."""
    p = np.asarray(predicted, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if p.shape != o.shape or p.size == 0:
        raise ModelError("predicted/observed must be same non-empty shape")
    if np.any(o <= 0):
        raise ModelError("observed values must be positive")
    return float(np.mean(np.abs(p - o) / o) * 100.0)


def error_buckets(
    percent_errors, thresholds=(3.0, 5.0, 8.0)
) -> Dict[float, float]:
    """Fraction of cases with error below each threshold (Fig. 5's
    '63.33 % / 82.22 % / 96.67 % below 3 % / 5 % / 8 %')."""
    e = np.asarray(percent_errors, dtype=np.float64)
    if e.size == 0:
        raise ModelError("no errors to bucket")
    if np.any(e < 0):
        raise ModelError("percentage errors must be >= 0")
    return {float(t): float(np.mean(e < t)) for t in thresholds}
