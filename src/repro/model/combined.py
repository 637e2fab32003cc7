"""The combined service-time model ``RG_ST(U)`` — paper Eq. 1.

Training fits one single-resource regressor per shared-resource class
and computes each model's *relevance* weight ``w_sr`` — the paper's
"relevance between the contention information of shared resource sr and
c's service time", which we realise as the absolute Pearson correlation
on the training set.  Prediction is the weight-normalised combination::

    RG_ST(U) = (Σ_sr w_sr · RG_sr(U_sr)) / (Σ_sr w_sr)          (Eq. 1)

The control loop evaluates Eq. 1 dozens of times a decision, mostly on
batches of tens of rows, so ``fit`` packs what prediction reads into
tables in :data:`~repro.cluster.resources.RESOURCE_KINDS` order: the
four standardisation means and scales as ``(4, 1)`` columns, the
``(4, 3)`` table of quadratic coefficients, and the resources whose
weight is not zero.  ``predict`` standardises a transposed ``(4, n)``
copy of the contention, then for each weighted resource fills one reused
C-contiguous ``(n, 3)`` design ``[1, z, z·z]``, takes ``design @ coef``
and adds ``w · …`` into the sum in resource order.  The result is bit
for bit ``max(Σ_r w_r · RG_r(u[:, r]) / Σ_r w_r, 1e-9)`` over the
fitted :class:`~repro.model.regression.PolynomialRegressor` s: every
element sees the operations of :meth:`PolynomialRegressor.predict` in
the same order, and each resource takes the same matmul on the same
C-contiguous ``(n, 3)`` design that ``np.vander`` builds there, so BLAS
runs the same gemv and a one-row batch still takes NumPy's dot path.
Evaluating the polynomial elementwise would round differently.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cluster.resources import RESOURCE_KINDS, ResourceKind, ResourceVector
from repro.errors import ModelError, NotFittedError
from repro.model.regression import PolynomialRegressor

__all__ = ["CombinedServiceTimeModel"]


def _pearson_abs(u: np.ndarray, x: np.ndarray) -> float:
    """|Pearson correlation|, defined as 0 for constant inputs."""
    if u.std() == 0 or x.std() == 0:
        return 0.0
    return float(abs(np.corrcoef(u, x)[0, 1]))


class CombinedServiceTimeModel:
    """Eq. 1: relevance-weighted combination of four degree-2
    :class:`~repro.model.regression.PolynomialRegressor` s, one per
    resource."""

    def __init__(self) -> None:
        self.regressors: Dict[ResourceKind, PolynomialRegressor] = {}
        self.weights: Dict[ResourceKind, float] = {}
        self.n_samples = 0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has succeeded."""
        return bool(self.regressors)

    def fit(self, contention: np.ndarray, service_times: np.ndarray) -> "CombinedServiceTimeModel":
        """Fit on ``(n, 4)`` contention vectors and ``(n,)`` service times.

        Column order must match :data:`repro.cluster.resources.RESOURCE_KINDS`
        (core, cache, diskBW, networkBW).
        """
        u = np.asarray(contention, dtype=np.float64)
        x = np.asarray(service_times, dtype=np.float64).ravel()
        if u.ndim != 2 or u.shape[1] != len(RESOURCE_KINDS):
            raise ModelError(f"contention must be (n, 4), got {u.shape}")
        if u.shape[0] != x.size:
            raise ModelError(
                f"sample mismatch: {u.shape[0]} vectors vs {x.size} times"
            )
        if np.any(x <= 0):
            raise ModelError("service times must be positive")
        regressors: Dict[ResourceKind, PolynomialRegressor] = {}
        weights: Dict[ResourceKind, float] = {}
        for kind in RESOURCE_KINDS:
            col = u[:, kind.index]
            regressors[kind] = PolynomialRegressor(degree=2).fit(col, x)
            weights[kind] = _pearson_abs(col, x)
        if all(w == 0.0 for w in weights.values()):
            # Degenerate profiling run (no contention varied at all):
            # fall back to equal weights so Eq. 1 stays defined.
            weights = {kind: 1.0 for kind in RESOURCE_KINDS}
        self.regressors = regressors
        self.weights = weights
        self.n_samples = int(x.size)
        regs = [regressors[kind] for kind in RESOURCE_KINDS]
        self._u_mean = np.array([[reg.u_mean] for reg in regs])
        self._u_scale = np.array([[reg.u_scale] for reg in regs])
        self._coef = np.array([reg.coef for reg in regs])
        self._terms = [
            (kind.index, w) for kind, w in weights.items() if w != 0.0
        ]
        self._total_weight = sum(weights.values())
        return self

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, contention: np.ndarray) -> np.ndarray:
        """Eq. 1 prediction for ``(n, 4)`` contention vectors → ``(n,)``.

        Predictions are floored at a small positive value: a service
        time can never be negative, but an extrapolating polynomial
        could produce one.
        """
        if not self.is_fitted:
            raise NotFittedError("combined model has not been fitted")
        u = np.asarray(contention, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != len(RESOURCE_KINDS):
            raise ModelError(f"contention must be (n, 4), got {u.shape}")
        z = u.T - self._u_mean
        z /= self._u_scale
        design = np.empty((u.shape[0], 3))
        design[:, 0] = 1.0
        acc = np.zeros(u.shape[0])
        for r, w in self._terms:
            design[:, 1] = z[r]
            np.multiply(z[r], z[r], out=design[:, 2])
            acc += w * (design @ self._coef[r])
        return np.maximum(acc / self._total_weight, 1e-9)

    def predict_one(self, contention: ResourceVector) -> float:
        """Scalar convenience wrapper over :meth:`predict`."""
        return float(self.predict(contention.as_array()[np.newaxis, :])[0])

    def normalised_weights(self) -> Dict[ResourceKind, float]:
        """Weights scaled to sum to 1 (for reporting/tests)."""
        if not self.is_fitted:
            raise NotFittedError("combined model has not been fitted")
        total = sum(self.weights.values())
        return {k: w / total for k, w in self.weights.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.is_fitted:
            return "CombinedServiceTimeModel(unfitted)"
        ws = ", ".join(
            f"{k.value}={w:.2f}" for k, w in self.normalised_weights().items()
        )
        return f"CombinedServiceTimeModel(n={self.n_samples}, weights: {ws})"
