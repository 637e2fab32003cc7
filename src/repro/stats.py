"""Self-contained standard-normal CDF/quantile helpers.

The BCa bootstrap (:mod:`repro.sim.aggregate`) needs Φ and Φ⁻¹.
SciPy's ``norm`` would do, but the CI tier-1 environment installs only
numpy/pytest, and the statistics layer already keeps its Student-t
quantile dependency-free so results are identical everywhere.  This
module is the normal-distribution sibling of that idiom: the CDF is
exact via :func:`math.erf`, and the quantile inverts it by bisection —
the same scheme as :func:`repro.sim.aggregate.student_t_ppf`.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["norm_cdf", "norm_ppf"]

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    """Standard normal CDF Φ(x), exact via the error function."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def norm_ppf(p: float) -> float:
    """Standard normal quantile Φ⁻¹(p) (inverse CDF).

    Bisection on the closed-form CDF, mirroring
    :func:`repro.sim.aggregate.student_t_ppf`: a few hundred halvings
    reach ~1e-15 relative accuracy, plenty for calibration constants
    and bootstrap acceleration terms, with no dependency beyond
    :mod:`math`.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"normal quantile needs p in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    # Symmetric: solve the upper tail and mirror.
    if p < 0.5:
        return -norm_ppf(1.0 - p)
    lo, hi = 0.0, 2.0
    while norm_cdf(hi) < p:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
