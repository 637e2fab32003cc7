"""Synthetic cluster traces with the statistics quoted in the paper.

§I cites the Google and Facebook trace studies: *"small batch jobs form
a majority (over 90 %) of all jobs"* and *"approximately 50 % of Google
jobs complete in 10 minutes and 94 % of them complete within 3 hours"*.
We cannot ship those proprietary traces, so this module generates
synthetic ones matching exactly those published marginals:

- job arrivals: Poisson over the trace horizon;
- input sizes: a small/large mixture with ``small_fraction`` (default
  0.9) of jobs drawn log-uniformly from the *small* range;
- durations (``duration_mode="google"``): log-normal with median 600 s
  and sigma chosen so that P(duration ≤ 3 h) = 0.94, which pins
  ``sigma = ln(10800/600) / z_{0.94} ≈ 1.859``;
- durations (``duration_mode="profile"``): each job's own workload
  profile (seconds-to-minutes jobs, matching §VI-A's experiment setup).

:func:`trace_stats` recomputes the published marginals from a generated
trace so tests can assert the calibration holds.

Arrival-rate trace profiles
---------------------------
Besides the batch-job trace, this module owns the **request arrival
profiles** the experiment runner drives its intervals with: a profile
maps each scheduling interval to a deterministic multiplier on the
configured base arrival rate, so a run can replay a diurnal cycle, a
load burst, or a flash crowd instead of the stationary rate the paper
uses.  The ``stationary`` profile multiplies by exactly ``1.0`` every
interval, keeping stationary runs bit-identical to the pre-profile
code path (golden-pinned).  Profiles are pure functions of the
interval index and count — no RNG — so the request stream's draw order
is untouched and runs stay deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.stats import norm_ppf
from repro.units import gb, mb, minutes
from repro.workloads.profiles import ALL_PROFILES, get_profile

__all__ = [
    "JobRecord",
    "SyntheticTraceConfig",
    "TraceStats",
    "generate_trace",
    "trace_stats",
    "GOOGLE_MEDIAN_DURATION_S",
    "GOOGLE_DURATION_SIGMA",
    "arrival_profile_names",
    "arrival_rate_multiplier",
    "arrival_rate_multipliers",
]

#: Median job duration implied by "50 % complete in 10 minutes".
GOOGLE_MEDIAN_DURATION_S: float = minutes(10)

#: Log-normal sigma implied by "94 % complete within 3 hours".
#: The quantile comes from the package's own Φ⁻¹ (:mod:`repro.stats`)
#: so the workload path carries no SciPy dependency.
GOOGLE_DURATION_SIGMA: float = math.log(
    minutes(180) / GOOGLE_MEDIAN_DURATION_S
) / norm_ppf(0.94)


@dataclass(frozen=True)
class JobRecord:
    """One trace row: what arrived, when, for how long."""

    profile_name: str
    input_mb: float
    arrival_time: float
    duration: float

    def __post_init__(self) -> None:
        if self.input_mb <= 0 or self.duration <= 0 or self.arrival_time < 0:
            raise WorkloadError(f"invalid trace record {self!r}")

    @property
    def is_small(self) -> bool:
        """Whether the job is 'small' by the trace convention (< 1 GB)."""
        return self.input_mb < gb(1)


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs for :func:`generate_trace`."""

    horizon_s: float = 3600.0
    jobs_per_s: float = 0.5
    small_fraction: float = 0.9
    small_size_mb: tuple = (mb(1), gb(1))
    large_size_mb: tuple = (gb(1), gb(10))
    duration_mode: str = "google"  # "google" | "profile"
    mix: Optional[Mapping[str, float]] = None  # profile name -> weight

    def __post_init__(self) -> None:
        if self.horizon_s <= 0 or self.jobs_per_s <= 0:
            raise WorkloadError("horizon_s and jobs_per_s must be positive")
        if not 0.0 <= self.small_fraction <= 1.0:
            raise WorkloadError(
                f"small_fraction must be in [0, 1], got {self.small_fraction}"
            )
        for lo, hi in (self.small_size_mb, self.large_size_mb):
            if not 0 < lo < hi:
                raise WorkloadError(f"invalid size range ({lo}, {hi})")
        if self.duration_mode not in ("google", "profile"):
            raise WorkloadError(f"unknown duration_mode {self.duration_mode!r}")
        if self.mix is not None:
            unknown = set(self.mix) - set(ALL_PROFILES)
            if unknown:
                raise WorkloadError(f"unknown profiles in mix: {sorted(unknown)}")
            if not self.mix or any(w < 0 for w in self.mix.values()):
                raise WorkloadError("mix weights must be non-negative, non-empty")


@dataclass(frozen=True)
class TraceStats:
    """The published marginals, recomputed from a trace."""

    n_jobs: int
    frac_small: float
    frac_le_10min: float
    frac_le_3h: float
    mean_duration_s: float
    mean_input_mb: float

    def render(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.n_jobs} jobs | small: {self.frac_small:.1%} | "
            f"<=10min: {self.frac_le_10min:.1%} | <=3h: {self.frac_le_3h:.1%} | "
            f"mean duration {self.mean_duration_s:.0f}s | "
            f"mean input {self.mean_input_mb:.0f} MB"
        )


def _sample_sizes(cfg: SyntheticTraceConfig, n: int, rng: np.random.Generator):
    small = rng.random(n) < cfg.small_fraction
    lo = np.where(small, cfg.small_size_mb[0], cfg.large_size_mb[0])
    hi = np.where(small, cfg.small_size_mb[1], cfg.large_size_mb[1])
    # Log-uniform inside each range.
    u = rng.random(n)
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _sample_profiles(cfg: SyntheticTraceConfig, n: int, rng: np.random.Generator):
    if cfg.mix is None:
        names = sorted(ALL_PROFILES)
        weights = np.ones(len(names))
    else:
        names = sorted(cfg.mix)
        weights = np.array([cfg.mix[name] for name in names], dtype=np.float64)
    weights = weights / weights.sum()
    return [names[i] for i in rng.choice(len(names), size=n, p=weights)]


def generate_trace(
    cfg: SyntheticTraceConfig, rng: np.random.Generator
) -> List[JobRecord]:
    """Generate a synthetic trace per ``cfg``; sorted by arrival time."""
    n = int(rng.poisson(cfg.jobs_per_s * cfg.horizon_s))
    if n == 0:
        return []
    arrivals = np.sort(rng.uniform(0.0, cfg.horizon_s, n))
    sizes = _sample_sizes(cfg, n, rng)
    profiles = _sample_profiles(cfg, n, rng)
    if cfg.duration_mode == "google":
        mu = math.log(GOOGLE_MEDIAN_DURATION_S)
        durations = rng.lognormal(mu, GOOGLE_DURATION_SIGMA, n)
    else:
        durations = np.array(
            [
                get_profile(p).sample_duration(s, rng)
                for p, s in zip(profiles, sizes)
            ]
        )
    return [
        JobRecord(
            profile_name=p,
            input_mb=float(s),
            arrival_time=float(t),
            duration=float(d),
        )
        for p, s, t, d in zip(profiles, sizes, arrivals, durations)
    ]


def trace_stats(records: Sequence[JobRecord]) -> TraceStats:
    """Recompute the published marginals from a trace."""
    if not records:
        raise WorkloadError("cannot compute stats of an empty trace")
    durations = np.array([r.duration for r in records])
    sizes = np.array([r.input_mb for r in records])
    return TraceStats(
        n_jobs=len(records),
        frac_small=float(np.mean(sizes < gb(1))),
        frac_le_10min=float(np.mean(durations <= minutes(10))),
        frac_le_3h=float(np.mean(durations <= minutes(180))),
        mean_duration_s=float(durations.mean()),
        mean_input_mb=float(sizes.mean()),
    )


# ----------------------------------------------------------------------
# request arrival-rate trace profiles
# ----------------------------------------------------------------------
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
