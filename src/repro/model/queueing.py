"""M/G/1 expected latency — paper Eq. 2 (Pollaczek–Khinchine).

With arrival rate λ, mean service time x̄ = 1/µ, and squared coefficient
of variation C²ₓ of the service time::

    l = x̄ + λ(1 + C²ₓ) / (2µ²(1 − ρ)),   ρ = λ/µ              (Eq. 2)

The second term is the expected waiting time; when C²ₓ = 1 the formula
collapses to the M/M/1 sojourn ``1/(µ − λ)``, exactly as the paper
notes.  All functions have vectorised variants used by the
performance-matrix fast path.

Saturation handling: Eq. 2 diverges as ρ → 1.  The strict functions
raise :class:`~repro.errors.UnstableQueueError`; the ``*_array`` forms
take a ``rho_max`` cap (default 0.98) and evaluate saturated servers at
the cap — the predictor must return *some* finite, very-bad latency for
an overloaded node so the scheduler correctly ranks it last, which is
also what a real profiler's clipped estimate would do.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnstableQueueError

__all__ = [
    "utilisation",
    "mg1_waiting_time",
    "mg1_latency",
    "mg1_latency_array",
    "mg1_latency_unchecked",
    "quickest_of_k_latency",
    "reissue_latency",
    "hedged_latency",
]

DEFAULT_RHO_MAX = 0.98


def utilisation(mean_service: float, arrival_rate: float) -> float:
    """Server utilisation ρ = λ·x̄."""
    if mean_service <= 0:
        raise UnstableQueueError(f"mean service must be > 0, got {mean_service}")
    if arrival_rate < 0:
        raise UnstableQueueError(f"arrival rate must be >= 0, got {arrival_rate}")
    return arrival_rate * mean_service


def mg1_waiting_time(mean_service: float, scv: float, arrival_rate: float) -> float:
    """Expected M/G/1 queueing delay (the second term of Eq. 2)."""
    rho = utilisation(mean_service, arrival_rate)
    if scv < 0:
        raise UnstableQueueError(f"scv must be >= 0, got {scv}")
    if rho >= 1.0:
        raise UnstableQueueError(
            f"unstable queue: rho = {rho:.3f} >= 1 "
            f"(lambda={arrival_rate:.3f}, mean={mean_service:.6f})"
        )
    mu = 1.0 / mean_service
    return arrival_rate * (1.0 + scv) / (2.0 * mu * mu * (1.0 - rho))


def mg1_latency(mean_service: float, scv: float, arrival_rate: float) -> float:
    """Eq. 2: expected sojourn time x̄ + W."""
    return mean_service + mg1_waiting_time(mean_service, scv, arrival_rate)


def mg1_latency_array(
    mean_service,
    scv,
    arrival_rate,
    rho_max: float = DEFAULT_RHO_MAX,
) -> np.ndarray:
    """Vectorised, saturation-capped Eq. 2.

    Broadcasts ``mean_service``, ``scv`` and ``arrival_rate`` together;
    wherever ρ would reach ``rho_max`` the arrival rate is clipped to
    ``rho_max/x̄``, yielding a finite worst-case latency that still
    ranks saturated placements strictly worse than non-saturated ones
    (latency is increasing in ρ below the cap).
    """
    if not 0 < rho_max < 1:
        raise UnstableQueueError(f"rho_max must be in (0, 1), got {rho_max}")
    x = np.asarray(mean_service, dtype=np.float64)
    c2 = np.asarray(scv, dtype=np.float64)
    lam = np.asarray(arrival_rate, dtype=np.float64)
    if np.any(x <= 0):
        raise UnstableQueueError("mean service times must be positive")
    if np.any(c2 < 0):
        raise UnstableQueueError("scv must be >= 0")
    if np.any(lam < 0):
        raise UnstableQueueError("arrival rates must be >= 0")
    x, c2, lam = np.broadcast_arrays(x, c2, lam)
    return mg1_latency_unchecked(x, c2, lam, rho_max)


def mg1_latency_unchecked(
    mean_service, scv, arrival_rate, rho_max: float
) -> np.ndarray:
    """Eq. 2 as :func:`mg1_latency_array` computes it, without its
    checks: ``ρ = min(λx̄, ρ_max)``, then ``x̄ + (ρ/x̄)(1 + C²ₓ)x̄x̄ /
    (2(1 − ρ))``, in that order.

    For callers that validated ``scv``, ``arrival_rate`` and ``rho_max``
    once and check the means themselves (the performance-matrix kernel,
    which calls it for every batch).  The waiting term is scaled in
    place; scalar inputs give a scalar.
    """
    x = mean_service
    rho = np.minimum(arrival_rate * x, rho_max)
    out = rho / x
    out *= 1.0 + scv
    out *= x
    out *= x
    out /= 2.0 * (1.0 - rho)
    out += x
    return out


# ----------------------------------------------------------------------
# Policy-benefit transforms (§VI-C's analytic side)
# ----------------------------------------------------------------------
# The three duplication techniques of §VI-C cut the tail of one
# replica's sojourn at the price of extra induced load.  The closed
# forms below are exact for exponentially distributed sojourns (the
# M/M/1 case; memorylessness makes every cancellation argument a plain
# minimum of fresh exponentials) and are used as a first-order
# approximation otherwise — the sojourn fed in should already include
# the policy's induced load (``InducedLoad.replica_rate`` through
# Eq. 2), which is what makes the help→hurt crossover derivable: the
# benefit factor is load-free, the penalty grows with ρ.


def quickest_of_k_latency(sojourn, k: int) -> np.ndarray:
    """Expected latency of the quickest of ``k`` redundant copies.

    The minimum of ``k`` iid Exp(1/W) sojourns is Exp(k/W), so the
    expected latency is ``W/k`` — RED's benefit factor.  ``k`` must
    already be capped at the group's replica count (``min(copies, n)``,
    exactly :meth:`~repro.baselines.policies.InducedLoad
    .group_multiplier`'s cap).
    """
    if k < 1:
        raise UnstableQueueError(f"k must be >= 1, got {k}")
    return np.asarray(sojourn, dtype=np.float64) / float(k)


def reissue_latency(sojourn, quantile: float) -> np.ndarray:
    """Expected latency under reissue-at-the-``quantile``-threshold.

    For an Exp(1/W) sojourn with threshold ``T`` at the ``q``-quantile
    (``T = −W·ln(1−q)``): a fraction ``q`` completes below ``T`` with
    conditional mean ``(W·q − T(1−q))/q``; the rest reissues at ``T``
    and finishes after the minimum of the (memoryless) original and a
    fresh copy, mean ``T + W/2``.  The ``T`` terms cancel::

        E[L] = W·q − T(1−q) + (1−q)(T + W/2) = W(1+q)/2

    — the benefit factor ``(1+q)/2`` is threshold- and load-free, which
    is why percentile reissue trades a *fixed* latency discount against
    a *growing* utilisation penalty (the §VI-C crossover).
    """
    if not 0 < quantile < 1:
        raise UnstableQueueError(
            f"quantile must be in (0, 1), got {quantile}"
        )
    return np.asarray(sojourn, dtype=np.float64) * (1.0 + quantile) / 2.0


def hedged_latency(sojourn, hedge_delay_s: float) -> np.ndarray:
    """Expected latency under hedge-after-``hedge_delay_s``.

    Same argument as :func:`reissue_latency` with the *fixed* threshold
    ``T``: the hedged fraction is ``p = exp(−T/W)``, and::

        E[L] = W(1 − p) − T·p + p(T + W/2) = W(1 − exp(−T/W)/2)

    Unlike the percentile rule, the benefit factor is load-*dependent*
    — as W grows past T nearly every request hedges (p → 1, factor
    → 1/2) while the induced load approaches full duplication.
    """
    if hedge_delay_s < 0:
        raise UnstableQueueError(
            f"hedge_delay_s must be >= 0, got {hedge_delay_s}"
        )
    w = np.asarray(sojourn, dtype=np.float64)
    return w * (1.0 - np.exp(-hedge_delay_s / np.maximum(w, 1e-300)) / 2.0)
