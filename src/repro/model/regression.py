"""Single-resource regression models ``RG(U_sr)`` (paper §IV-A, step 1).

Each model maps *one* scalar of contention information (core usage, or
cache MPKI, or disk MB/s, or network MB/s) to a component's service
time.  The paper leaves the regression family open ("a regression
model"); we use ridge-regularised polynomial least squares, which

* is exactly linear regression at ``degree=1``;
* captures the mild super-linearity of contention penalties at
  ``degree=2`` (the default);
* fits in closed form with one ``np.linalg.lstsq`` call and predicts
  vectorised over NumPy arrays — no iterative optimiser, per the
  HPC-guide preference for simple, measurable kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ModelError, NotFittedError

__all__ = ["Regressor", "PolynomialRegressor"]


class Regressor(ABC):
    """A one-dimensional regression model ``x = RG(u)``."""

    @abstractmethod
    def fit(self, u: np.ndarray, x: np.ndarray) -> "Regressor":
        """Fit on training pairs; returns self for chaining."""

    @abstractmethod
    def predict(self, u) -> np.ndarray:
        """Predict service times for contention values ``u``."""

    @property
    @abstractmethod
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has succeeded."""


class PolynomialRegressor(Regressor):
    """Ridge-regularised polynomial least squares in one variable.

    Parameters
    ----------
    degree:
        Polynomial degree (1 = straight line, 2 = default quadratic).
    ridge:
        L2 penalty on the non-constant coefficients; the tiny default
        only guards against degenerate designs (e.g. a resource whose
        contention never varied during profiling).

    Notes
    -----
    Features are standardised internally (zero mean, unit variance) so
    the ridge penalty is scale-free: core usage lives in [0, 1] while
    disk bandwidth lives in [0, 300] MB/s.
    """

    def __init__(self, degree: int = 2, ridge: float = 1e-8) -> None:
        if degree < 1:
            raise ModelError(f"degree must be >= 1, got {degree}")
        if ridge < 0:
            raise ModelError(f"ridge must be >= 0, got {ridge}")
        self.degree = int(degree)
        self.ridge = float(ridge)
        self._coef: np.ndarray | None = None
        self._u_mean = 0.0
        self._u_scale = 1.0
        self.n_samples = 0

    @property
    def is_fitted(self) -> bool:
        return self._coef is not None

    @property
    def coef(self) -> np.ndarray:
        """Fitted coefficients, constant term first (standardised basis)."""
        if self._coef is None:
            raise NotFittedError("regressor has not been fitted")
        return self._coef.copy()

    def _design(self, u: np.ndarray) -> np.ndarray:
        z = (u - self._u_mean) / self._u_scale
        return np.vander(z, self.degree + 1, increasing=True)

    def fit(self, u, x) -> "PolynomialRegressor":
        u = np.asarray(u, dtype=np.float64).ravel()
        x = np.asarray(x, dtype=np.float64).ravel()
        if u.size != x.size:
            raise ModelError(f"length mismatch: {u.size} inputs vs {x.size} targets")
        if u.size < self.degree + 1:
            raise ModelError(
                f"need at least {self.degree + 1} samples for degree "
                f"{self.degree}, got {u.size}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x))):
            raise ModelError("training data must be finite")
        self._u_mean = float(u.mean())
        scale = float(u.std())
        self._u_scale = scale if scale > 0 else 1.0
        design = self._design(u)
        # Ridge via augmented normal equations: penalise everything but
        # the intercept.
        penalty = np.sqrt(self.ridge) * np.eye(self.degree + 1)
        penalty[0, 0] = 0.0
        a = np.vstack([design, penalty])
        b = np.concatenate([x, np.zeros(self.degree + 1)])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        self._coef = coef
        self.n_samples = int(u.size)
        return self

    def predict(self, u) -> np.ndarray:
        if self._coef is None:
            raise NotFittedError("regressor has not been fitted")
        arr = np.asarray(u, dtype=np.float64)
        scalar = arr.ndim == 0
        out = self._design(arr.ravel()) @ self._coef
        return out.reshape(arr.shape) if not scalar else out.reshape(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"n={self.n_samples}" if self.is_fitted else "unfitted"
        return f"PolynomialRegressor(degree={self.degree}, {state})"
