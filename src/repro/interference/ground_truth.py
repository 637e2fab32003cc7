"""The ground-truth service-time inflation model.

A component of class *c* with idle-node service-time distribution
``X0`` runs, under contention vector ``U``, with distribution
``X = X0 · f_c(U)`` where the inflation factor is::

    f_c(U) = 1 + b_core·p(u_core) + b_cache·p(u_cache)
               + b_disk·p(u_disk) + b_net·p(u_net)

with every ``u`` the contention *normalised by node capacity* (so the
model is node-size independent), and ``p`` a mildly super-linear penalty
``p(u) = u + curvature·u²`` capturing that the last 20 % of a shared
resource hurts disproportionately (bandwidth saturation, cache
thrashing).  The multiplicative form mirrors the standard
interference-index models used by Bubble-Flux/Ubik-style systems cited
in the paper's related work.

The coefficients ``b_*`` are *per component class*: searching
components (index lookups) are cache/disk sensitive; segmenting is
CPU sensitive; aggregating network sensitive.

A per-window multiplicative log-normal *model noise* (default 2 %)
represents everything real hardware does that no four-feature model can
express; it sets the irreducible floor of Fig. 5's prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.cluster.node import NodeCapacity
from repro.cluster.resources import ResourceVector
from repro.errors import ConfigurationError
from repro.service.component import ComponentClass

__all__ = [
    "InterferenceCoefficients",
    "InterferenceModel",
    "default_interference_model",
]


@dataclass(frozen=True)
class InterferenceCoefficients:
    """Per-class sensitivities ``b_*`` and the penalty curvature."""

    b_core: float
    b_cache: float
    b_disk: float
    b_net: float
    curvature: float = 0.8

    def __post_init__(self) -> None:
        for name in ("b_core", "b_cache", "b_disk", "b_net", "curvature"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def as_array(self) -> np.ndarray:
        """``(b_core, b_cache, b_disk, b_net)`` aligned with ResourceVector."""
        return np.array([self.b_core, self.b_cache, self.b_disk, self.b_net])


#: Default class sensitivities — searching is cache/disk bound,
#: segmenting CPU bound, aggregating network bound.
#:
#: Magnitudes are calibrated to the paper's own motivating example
#: (§I: 99 components respond in 10 ms while an interfered straggler
#: takes 1 s — two orders of magnitude): a fully saturated node slows a
#: searching component by ~10x in raw service time, which queueing then
#: amplifies into the 100x latency stragglers the paper describes.
DEFAULT_COEFFICIENTS: Dict[ComponentClass, InterferenceCoefficients] = {
    ComponentClass.SEGMENTING: InterferenceCoefficients(
        b_core=1.20, b_cache=0.30, b_disk=0.10, b_net=0.10, curvature=2.0
    ),
    ComponentClass.SEARCHING: InterferenceCoefficients(
        b_core=0.80, b_cache=1.20, b_disk=1.00, b_net=0.30, curvature=2.0
    ),
    ComponentClass.AGGREGATING: InterferenceCoefficients(
        b_core=0.40, b_cache=0.20, b_disk=0.10, b_net=1.20, curvature=2.0
    ),
    ComponentClass.GENERIC: InterferenceCoefficients(
        b_core=0.80, b_cache=0.60, b_disk=0.60, b_net=0.30, curvature=2.0
    ),
}


class InterferenceModel:
    """Maps (component class, contention vector) → inflation factor ≥ 1.

    Parameters
    ----------
    coefficients:
        Per-class :class:`InterferenceCoefficients`; classes missing
        from the mapping fall back to ``GENERIC``.
    capacity:
        The node capacity used to normalise contention vectors.
    noise_sigma:
        Log-normal sigma of the per-evaluation model noise (0 disables;
        the mean of the noise is exactly 1 so it is unbiased).
    """

    def __init__(
        self,
        coefficients: Optional[
            Mapping[ComponentClass, InterferenceCoefficients]
        ] = None,
        capacity: Optional[NodeCapacity] = None,
        noise_sigma: float = 0.02,
    ) -> None:
        if noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self._coefficients = dict(DEFAULT_COEFFICIENTS)
        if coefficients:
            self._coefficients.update(coefficients)
        if ComponentClass.GENERIC not in self._coefficients:
            raise ConfigurationError("coefficients must include GENERIC fallback")
        self.capacity = capacity or NodeCapacity()
        self.noise_sigma = float(noise_sigma)
        self._cap_array = self.capacity.vector.as_array()

    def coefficients_for(self, cls: ComponentClass) -> InterferenceCoefficients:
        """The sensitivities for a class (GENERIC fallback)."""
        return self._coefficients.get(
            cls, self._coefficients[ComponentClass.GENERIC]
        )

    # ------------------------------------------------------------------
    # inflation
    # ------------------------------------------------------------------
    def inflation(self, cls: ComponentClass, contention: ResourceVector) -> float:
        """Noise-free inflation factor for one contention vector."""
        return float(
            self.inflation_array(cls, contention.as_array()[np.newaxis, :])[0]
        )

    def inflation_array(self, cls: ComponentClass, u: np.ndarray) -> np.ndarray:
        """Vectorised inflation for ``u`` of shape ``(n, 4)``.

        Contention is clipped to capacity before normalisation, matching
        what a component can physically observe.

        The clip and the division iterate resource by resource (the
        transposed view in C order): broadcasting the ``(4,)`` capacity
        over the rows would run numpy's inner loop four elements at a
        time.  Every element sees the operations of
        ``1 + (norm + curvature·norm·norm) @ b`` in that order, and
        ``norm`` keeps the layout of ``u``, so the result is that
        expression's bit for bit.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != 4:
            raise ConfigurationError(f"expected (n, 4) contention, got {u.shape}")
        coeff = self.coefficients_for(cls)
        norm = np.empty_like(u)
        cap = self._cap_array[:, None]
        np.clip(u.T, 0.0, cap, out=norm.T, order="C")
        np.divide(norm.T, cap, out=norm.T, order="C")
        penalty = norm * coeff.curvature
        penalty *= norm
        penalty += norm
        out = penalty @ coeff.as_array()
        out += 1.0
        return out

    def noisy_inflation(
        self,
        cls: ComponentClass,
        contention: ResourceVector,
        rng: np.random.Generator,
    ) -> float:
        """Inflation with one draw of the multiplicative model noise."""
        base = self.inflation(cls, contention)
        if self.noise_sigma == 0:
            return base
        s = self.noise_sigma
        return base * float(rng.lognormal(-0.5 * s * s, s))

    # ------------------------------------------------------------------
    # service-time views
    # ------------------------------------------------------------------
    def service_distribution(self, component, contention: ResourceVector):
        """True service-time distribution under ``contention``.

        Scaling preserves the SCV — interference slows a component down
        without changing its shape, which is what makes Eq. 2's M/G/1
        usable with a contention-dependent mean.
        """
        return component.base_service.scaled(
            self.inflation(component.cls, contention)
        )


def default_interference_model(noise_sigma: float = 0.02) -> InterferenceModel:
    """The model used by all experiments unless overridden."""
    return InterferenceModel(noise_sigma=noise_sigma)
