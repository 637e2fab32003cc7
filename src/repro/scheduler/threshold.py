"""Migration-threshold policies.

§VI-C: "the migration of components ... can be completed within 3
seconds ... we find out that 5 % of the accepted overall service
latency (100 ms) is a reasonable threshold value ... thus the threshold
in scheduling is set as 5 ms.  Applying an adaptive threshold to
improve the service performance is possible, but it is beyond the scope
of this paper."

We implement both: the paper's static ε and the adaptive extension
(ε as a fixed fraction of the currently predicted overall latency,
clamped to a sane band), which ``experiments.ablations.threshold_sweep``
compares.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.units import ms

__all__ = ["ThresholdPolicy", "StaticThreshold", "AdaptiveThreshold"]


class ThresholdPolicy(ABC):
    """Maps the current predicted overall latency to a threshold ε."""

    @abstractmethod
    def epsilon(self, predicted_overall_s: float) -> float:
        """Threshold (seconds) below which migrations are not worth it."""


@dataclass(frozen=True)
class StaticThreshold(ThresholdPolicy):
    """The paper's fixed ε (default 5 ms)."""

    epsilon_s: float = ms(5)

    def __post_init__(self) -> None:
        if self.epsilon_s <= 0:
            raise SchedulingError(f"epsilon must be positive, got {self.epsilon_s}")

    def epsilon(self, predicted_overall_s: float) -> float:
        return self.epsilon_s


@dataclass(frozen=True)
class AdaptiveThreshold(ThresholdPolicy):
    """ε = ``fraction`` of the predicted overall latency, clamped.

    The paper's 5 ms is 5 % of the accepted 100 ms latency; the
    adaptive policy keeps that 5 % proportionality as load (and thus
    overall latency) moves, so light load doesn't over-migrate and
    heavy load doesn't under-migrate.
    """

    fraction: float = 0.05
    min_epsilon_s: float = ms(1)
    max_epsilon_s: float = ms(50)

    def __post_init__(self) -> None:
        if not 0 < self.fraction < 1:
            raise SchedulingError(f"fraction must be in (0, 1), got {self.fraction}")
        if not 0 < self.min_epsilon_s <= self.max_epsilon_s:
            raise SchedulingError(
                f"need 0 < min <= max, got [{self.min_epsilon_s}, "
                f"{self.max_epsilon_s}]"
            )

    def epsilon(self, predicted_overall_s: float) -> float:
        if predicted_overall_s < 0:
            raise SchedulingError(
                f"predicted overall latency must be >= 0, got {predicted_overall_s}"
            )
        return float(
            min(
                self.max_epsilon_s,
                max(self.min_epsilon_s, self.fraction * predicted_overall_s),
            )
        )
