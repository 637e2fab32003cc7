"""Request arrival-rate trace profiles.

A profile maps each scheduling interval to a deterministic multiplier
on the configured base arrival rate, so a run can replay a diurnal
cycle, a load burst, or a flash crowd instead of the stationary rate
the paper uses.  The ``stationary`` profile multiplies by exactly
``1.0`` every interval, keeping stationary runs bit-identical to the
pre-profile code path (golden-pinned).  Profiles are pure functions of
the interval index and count — no RNG — so the request stream's draw
order is untouched and runs stay deterministic per seed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "arrival_profile_names",
    "arrival_rate_multiplier",
    "arrival_rate_multipliers",
]


def _stationary(i: int, n: int) -> float:
    # Exactly 1.0: `rate * 1.0` is IEEE-identical to `rate`, so the
    # stationary profile is bit-for-bit the pre-profile code path.
    return 1.0


def _diurnal(i: int, n: int) -> float:
    # One full day-night cycle across the run: sinusoid around 1.0
    # with ±40 % swing, starting at the trough (overnight ramp-up).
    phase = 2.0 * math.pi * (i + 0.5) / max(n, 1)
    return 1.0 + 0.4 * -math.cos(phase)


def _burst(i: int, n: int) -> float:
    # A 2x plateau over the middle third of the run — the classic load
    # spike a scheduler must absorb and then recover from.
    lo, hi = n / 3.0, 2.0 * n / 3.0
    return 2.0 if lo <= i < hi else 1.0


def _flash_crowd(i: int, n: int) -> float:
    # Sudden 3x onset at 40 % of the run, decaying geometrically back
    # towards baseline — a flash crowd with a long cool-down tail.
    onset = int(0.4 * n)
    if i < onset:
        return 1.0
    return 1.0 + 2.0 * (0.5 ** (i - onset))


#: Profile name -> multiplier(interval_index, n_intervals).
_ARRIVAL_PROFILES: Dict[str, Callable[[int, int], float]] = {
    "stationary": _stationary,
    "diurnal": _diurnal,
    "burst": _burst,
    "flash-crowd": _flash_crowd,
}


def arrival_profile_names() -> List[str]:
    """Registered arrival-profile names, sorted."""
    return sorted(_ARRIVAL_PROFILES)


def arrival_rate_multipliers(profile: str, n_intervals: int) -> np.ndarray:
    """Per-interval rate multipliers for ``profile`` over a run.

    Deterministic and positive; the runner multiplies its configured
    base arrival rate by ``multipliers[interval]`` each interval.
    """
    if n_intervals < 1:
        raise WorkloadError(f"n_intervals must be >= 1, got {n_intervals}")
    try:
        fn = _ARRIVAL_PROFILES[profile]
    except KeyError:
        raise WorkloadError(
            f"unknown arrival profile {profile!r} "
            f"(registered: {', '.join(arrival_profile_names())})"
        ) from None
    out = np.array([float(fn(i, n_intervals)) for i in range(n_intervals)])
    if not np.all(np.isfinite(out)) or np.any(out <= 0):
        raise WorkloadError(
            f"arrival profile {profile!r} produced non-positive or "
            f"non-finite multipliers {out!r}"
        )
    return out


def arrival_rate_multiplier(profile: str, interval: int, cycle: int) -> float:
    """One multiplier for an *unbounded* open-loop stream.

    Profiles are defined over a finite horizon; a long-running service
    replays them cyclically, so window ``interval`` of a live stream
    maps to interval ``interval % cycle`` of a ``cycle``-interval run.
    For ``interval < cycle`` this is exactly
    ``arrival_rate_multipliers(profile, cycle)[interval]``.
    """
    if cycle < 1:
        raise WorkloadError(f"cycle must be >= 1, got {cycle}")
    if interval < 0:
        raise WorkloadError(f"interval must be >= 0, got {interval}")
    try:
        fn = _ARRIVAL_PROFILES[profile]
    except KeyError:
        raise WorkloadError(
            f"unknown arrival profile {profile!r} "
            f"(registered: {', '.join(arrival_profile_names())})"
        ) from None
    value = float(fn(interval % cycle, cycle))
    if not math.isfinite(value) or value <= 0:
        raise WorkloadError(
            f"arrival profile {profile!r} produced non-positive or "
            f"non-finite multiplier {value!r} at interval {interval}"
        )
    return value
