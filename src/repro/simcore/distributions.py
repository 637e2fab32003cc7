"""Service-time and interarrival distributions with analytic moments.

The M/G/1 latency model of the paper (Eq. 2) needs the first two moments
of the service-time distribution — the mean ``x̄`` and the squared
coefficient of variation ``C²ₓ = var(x)/x̄²``.  Every distribution here
therefore exposes

``mean`` / ``var`` / ``scv``
    exact analytic moments, and

``sample(rng, size)``
    vectorised sampling from a caller-provided
    :class:`numpy.random.Generator` (distributions hold **no** RNG state
    of their own, which keeps them hashable, comparable and safe to
    share between components).

``scaled(factor)`` returns a new distribution whose samples are the
originals multiplied by ``factor`` — this is how the interference model
inflates a component's base service time without changing its shape
(``scv`` is scale-invariant).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "LogNormal",
    "Pareto",
]


class Distribution(ABC):
    """A non-negative random variable with known first two moments."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected value E[X]."""

    @property
    @abstractmethod
    def var(self) -> float:
        """Variance Var[X]."""

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.var)

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``var / mean**2`` (paper C²ₓ)."""
        m = self.mean
        if m <= 0:
            raise ConfigurationError(f"scv undefined for mean={m}")
        return self.var / (m * m)

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw ``size`` iid samples (or a scalar when ``size`` is None)."""

    def scaled(self, factor: float) -> "Distribution":
        """Return the distribution of ``factor * X`` (``factor > 0``)."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        return _Scaled(self, float(factor))


@dataclass(frozen=True)
class _Scaled(Distribution):
    """``factor * base`` — used by :meth:`Distribution.scaled`."""

    base: Distribution
    factor: float

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean

    @property
    def var(self) -> float:
        return self.factor * self.factor * self.base.var

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.factor * self.base.sample(rng, size)

    def scaled(self, factor: float) -> Distribution:
        # Collapse nested scalings so chains of inflation stay flat.
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return _Scaled(self.base, self.factor * factor)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """A constant service time (C²ₓ = 0; M/G/1 becomes M/D/1)."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigurationError(f"value must be >= 0, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def var(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.float64)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with the given mean (C²ₓ = 1; M/G/1 = M/M/1)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ConfigurationError(f"mean must be > 0, got {self.mean_value}")

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def var(self) -> float:
        return self.mean_value**2

    @property
    def rate(self) -> float:
        """The rate parameter λ = 1/mean."""
        return 1.0 / self.mean_value

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.exponential(self.mean_value, size)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal parameterised by its *actual* mean and C²ₓ.

    The natural parameterisation for multiplicative interference noise;
    the underlying normal parameters are derived so that ``mean`` and
    ``scv`` are exact.
    """

    mean_value: float
    scv_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ConfigurationError(f"mean must be > 0, got {self.mean_value}")
        if self.scv_value <= 0:
            raise ConfigurationError(f"scv must be > 0, got {self.scv_value}")

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def var(self) -> float:
        return self.scv_value * self.mean_value**2

    @property
    def _sigma2(self) -> float:
        return math.log1p(self.scv_value)

    @property
    def _mu(self) -> float:
        return math.log(self.mean_value) - 0.5 * self._sigma2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.lognormal(self._mu, math.sqrt(self._sigma2), size)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto (Lomax-style, ``x >= xm``) with shape ``alpha > 2``.

    Heavy tails; ``alpha <= 2`` has infinite variance and is rejected
    because Eq. 2 requires a finite second moment.
    """

    xm: float
    alpha: float

    def __post_init__(self) -> None:
        if self.xm <= 0:
            raise ConfigurationError(f"xm must be > 0, got {self.xm}")
        if self.alpha <= 2:
            raise ConfigurationError(
                f"alpha must be > 2 for finite variance, got {self.alpha}"
            )

    @property
    def mean(self) -> float:
        return self.alpha * self.xm / (self.alpha - 1.0)

    @property
    def var(self) -> float:
        a = self.alpha
        return (self.xm**2 * a) / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # numpy's pareto is the Lomax (shifted) form: xm * (1 + Lomax).
        return self.xm * (1.0 + rng.pareto(self.alpha, size))
