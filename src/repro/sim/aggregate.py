"""Seed-level statistics over sweep results (the shared reduction).

PR 1's sweep subsystem executes policies × arrival-rates × seeds grids,
but every consumer used to hand-roll its own per-seed reduction, so the
headline tables carried no notion of run-to-run variance.  This module
is the **one** reduction they all share:

- :func:`flatten_metrics` turns a
  :meth:`~repro.sim.runner.PolicyResult.metrics_dict` into a flat
  ``{"component_latency.p99": ..., "n_migrations": ...}`` mapping of
  scalar metrics (nested summaries are dotted; per-interval series and
  string fields are not statistics material and are dropped);
- :class:`MetricStats` holds one metric's statistics across seeds:
  mean/std/min/max, the nearest-rank median, a Student-t confidence
  interval on the mean, and a bootstrap percentile interval;
- :class:`SeedAggregate` groups one (policy, arrival rate) cell's
  per-seed results and computes a :class:`MetricStats` per metric;
- :class:`SweepSummary` is the whole grid reduced: one
  :class:`SeedAggregate` per (policy, rate), buildable from an
  in-memory :class:`~repro.sim.sweep.SweepResult` *or* straight from a
  cache directory's ``manifest.json`` (:meth:`SweepSummary.from_cache`),
  with ``to_dict``/``from_dict`` round-tripping and a
  :meth:`~SweepSummary.render_table` for the Fig. 6 headline tables.

Statistical conventions
-----------------------
*Percentile bounds are nearest-rank.*  Both the bootstrap interval and
the per-seed median go through :func:`repro.sim.metrics.percentile`
(``numpy``'s ``method="higher"``), so every reported bound is an
actually observed value (a real resample mean, a real seed's metric) —
the same convention as every other percentile in the package.

*The Student-t interval* is ``mean ± t_{(1+c)/2, n-1} · s/√n`` with the
sample standard deviation (``ddof=1``).  The t quantile is computed by
a self-contained inversion of the t CDF (regularised incomplete beta
via a Lentz continued fraction), so the numbers do not depend on
whether SciPy happens to be importable.

*Everything is deterministic.*  Per-seed values are reduced in sorted
seed order (so summation order — and therefore the float result — is
independent of completion order), and the bootstrap draws from a
:class:`~repro.rng.RngRegistry` stream named by the (policy, rate,
metric) cell, so two summaries of the same results are bit-identical
whatever the worker count, process layout or dict ordering that
produced them.

A single seed degenerates gracefully: ``std = 0`` and both intervals
collapse to ``(mean, mean)`` without touching the RNG, so single-seed
sweeps stay exactly as cheap (and as reproducible) as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ExperimentError
from repro.rng import RngRegistry
from repro.sim.metrics import percentile
from repro.stats import norm_cdf, norm_ppf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runner import PolicyResult

__all__ = [
    "AggregateConfig",
    "MetricStats",
    "SeedAggregate",
    "SweepSummary",
    "flatten_metrics",
    "student_t_ppf",
    "DEFAULT_TABLE_METRICS",
]

#: The two paper report currencies, as flattened metric names.
DEFAULT_TABLE_METRICS = ("component_latency.p99", "overall_latency.mean")


# ----------------------------------------------------------------------
# Student-t quantiles (dependency-free, deterministic everywhere)
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if t == 0.0:
        return 0.5
    tail = 0.5 * _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def student_t_ppf(p: float, df: int) -> float:
    """Quantile of Student's t distribution (inverse CDF).

    Self-contained (no SciPy) so confidence bounds are identical in
    every environment; bisection on the closed-form CDF is plenty fast
    for the handful of calls per summary.
    """
    if not 0.0 < p < 1.0:
        raise ExperimentError(f"t quantile needs p in (0, 1), got {p}")
    if df < 1:
        raise ExperimentError(f"t quantile needs df >= 1, got {df}")
    if p == 0.5:
        return 0.0
    # Symmetric: solve for the upper tail and mirror.
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
    lo, hi = 0.0, 2.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# BCa bootstrap quantile adjustment
# ----------------------------------------------------------------------
def _bca_quantiles(
    arr: np.ndarray,
    resample_means: np.ndarray,
    observed_mean: float,
    lo_q: float,
    hi_q: float,
) -> Tuple[float, float]:
    """Efron's bias-corrected-and-accelerated percentile adjustment.

    Returns the *adjusted* (lo, hi) percentile ranks (in [0, 100]) to
    read off the resample-mean distribution in place of the plain
    ``lo_q``/``hi_q``:

    - the bias correction ``z0`` is the normal quantile of the fraction
      of resample means below the observed mean (0 bias → z0 = 0 → the
      plain percentile interval);
    - the acceleration ``a`` comes from the jackknife means' skewness
      and rescales the interval for a statistic whose variance moves
      with its value.

    Degenerate inputs — every resample mean on one side of the
    observed mean (z0 would be ±∞), or zero jackknife variance —
    fall back to the unadjusted ranks, matching the plain percentile
    interval instead of emitting an unbounded one.
    """
    frac_below = float(np.mean(resample_means < observed_mean))
    if frac_below <= 0.0 or frac_below >= 1.0:
        return lo_q, hi_q
    z0 = norm_ppf(frac_below)
    n = arr.size
    # Leave-one-out means in one vectorised pass.
    jack = (arr.sum() - arr) / (n - 1)
    centred = jack.mean() - jack
    denom = float(np.sum(centred**2)) ** 1.5
    accel = float(np.sum(centred**3)) / (6.0 * denom) if denom > 0 else 0.0

    def adjust(q: float) -> float:
        z = norm_ppf(q / 100.0)
        zt = z0 + (z0 + z) / (1.0 - accel * (z0 + z))
        return 100.0 * norm_cdf(zt)

    return adjust(lo_q), adjust(hi_q)


# ----------------------------------------------------------------------
# flattening metrics_dict
# ----------------------------------------------------------------------
def flatten_metrics(metrics: Mapping) -> Dict[str, float]:
    """Flatten a ``metrics_dict()`` into dotted scalar metrics.

    Nested mappings (the latency summaries) contribute
    ``"<field>.<subfield>"`` entries; ``bool``/``int``/``float`` leaves
    are kept (as floats); strings and per-interval lists are dropped —
    they identify or trace the run rather than measure it.
    """
    out: Dict[str, float] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, Mapping):
            for key in value:
                walk(prefix + str(key) + ".", value[key])
        elif isinstance(value, bool):
            out[prefix[:-1]] = float(value)
        elif isinstance(value, (int, float, np.integer, np.floating)):
            out[prefix[:-1]] = float(value)
        # strings, lists, None: not statistics material

    for key in metrics:
        walk(str(key) + ".", metrics[key])
    return out


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateConfig:
    """Knobs of the statistics layer.

    ``bootstrap_seed`` is the root of a :class:`~repro.rng.RngRegistry`
    whose streams are named per (policy, rate, metric) cell, so the
    bootstrap is deterministic and independent of the order in which
    cells are aggregated.
    """

    confidence: float = 0.95
    bootstrap_resamples: int = 1000
    bootstrap_seed: int = 0
    #: Bootstrap interval construction: ``"percentile"`` (the plain
    #: interval — the historical default, bit-identical to pre-BCa
    #: summaries) or ``"bca"`` (bias-corrected and accelerated:
    #: Efron's z0 bias correction from the fraction of resample means
    #: below the observed mean plus a jackknife acceleration term —
    #: second-order accurate on skewed seed distributions).  Both read
    #: their bounds off the *same* resample-mean draw, so switching
    #: method never changes the RNG stream.
    ci_method: str = "percentile"

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ExperimentError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.bootstrap_resamples < 1:
            raise ExperimentError(
                f"bootstrap_resamples must be >= 1, got {self.bootstrap_resamples}"
            )
        if self.ci_method not in ("percentile", "bca"):
            raise ExperimentError(
                f"ci_method must be 'percentile' or 'bca', got "
                f"{self.ci_method!r}"
            )

    def to_dict(self) -> dict:
        return {
            "confidence": self.confidence,
            "bootstrap_resamples": self.bootstrap_resamples,
            "bootstrap_seed": self.bootstrap_seed,
            "ci_method": self.ci_method,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "AggregateConfig":
        return cls(
            confidence=float(d["confidence"]),
            bootstrap_resamples=int(d["bootstrap_resamples"]),
            bootstrap_seed=int(d["bootstrap_seed"]),
            # .get: summaries serialised before the BCa option existed
            # read back under the method they were computed with.
            ci_method=str(d.get("ci_method", "percentile")),
        )


# ----------------------------------------------------------------------
# one metric across seeds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricStats:
    """One metric's statistics across the seeds of a grid cell.

    ``values`` are kept (in sorted-seed order) so the object is a exact
    record: ``to_dict``/``from_dict`` round-trip bit-for-bit, and the
    intervals can always be re-derived.
    """

    n: int
    mean: float
    std: float
    min: float
    max: float
    p50: float
    t_lo: float
    t_hi: float
    boot_lo: float
    boot_hi: float
    values: Tuple[float, ...]

    @classmethod
    def compute(
        cls,
        values: Sequence[float],
        rng: Optional[np.random.Generator],
        config: AggregateConfig,
    ) -> "MetricStats":
        """Reduce one metric's per-seed values.

        ``values`` must already be in a canonical (sorted-seed) order;
        ``rng`` is only drawn from when ``len(values) > 1``.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ExperimentError("cannot aggregate an empty value list")
        n = int(arr.size)
        mean = float(arr.mean())
        if n == 1:
            v = float(arr[0])
            return cls(
                n=1, mean=v, std=0.0, min=v, max=v, p50=v,
                t_lo=v, t_hi=v, boot_lo=v, boot_hi=v,
                values=(v,),
            )
        std = float(arr.std(ddof=1))
        half = student_t_ppf(
            0.5 * (1.0 + config.confidence), n - 1
        ) * std / math.sqrt(n)
        lo_q = 100.0 * 0.5 * (1.0 - config.confidence)
        hi_q = 100.0 * 0.5 * (1.0 + config.confidence)
        if rng is None:
            raise ExperimentError(
                "multi-seed aggregation needs an RNG for the bootstrap"
            )
        idx = rng.integers(0, n, size=(config.bootstrap_resamples, n))
        resample_means = arr[idx].mean(axis=1)
        if config.ci_method == "bca":
            lo_q, hi_q = _bca_quantiles(
                arr, resample_means, mean, lo_q, hi_q
            )
        return cls(
            n=n,
            mean=mean,
            std=std,
            min=float(arr.min()),
            max=float(arr.max()),
            p50=percentile(arr, 50, label="seed-level median"),
            t_lo=mean - half,
            t_hi=mean + half,
            boot_lo=percentile(resample_means, lo_q, label="bootstrap lower bound"),
            boot_hi=percentile(resample_means, hi_q, label="bootstrap upper bound"),
            values=tuple(float(x) for x in arr),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (floats round-trip exactly)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "boot_lo": self.boot_lo,
            "boot_hi": self.boot_hi,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetricStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n=int(d["n"]),
            mean=float(d["mean"]),
            std=float(d["std"]),
            min=float(d["min"]),
            max=float(d["max"]),
            p50=float(d["p50"]),
            t_lo=float(d["t_lo"]),
            t_hi=float(d["t_hi"]),
            boot_lo=float(d["boot_lo"]),
            boot_hi=float(d["boot_hi"]),
            values=tuple(float(x) for x in d["values"]),
        )


# ----------------------------------------------------------------------
# one (policy, rate) cell across seeds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeedAggregate:
    """All metrics of one (policy, arrival rate) cell, across seeds."""

    policy_name: str
    arrival_rate: float
    seeds: Tuple[int, ...]
    stats: Mapping[str, MetricStats]

    @classmethod
    def from_results(
        cls,
        policy_name: str,
        arrival_rate: float,
        per_seed: Mapping[int, Union[PolicyResult, Mapping]],
        config: AggregateConfig = AggregateConfig(),
        rngs: Optional[RngRegistry] = None,
    ) -> "SeedAggregate":
        """Reduce one cell's per-seed results.

        ``per_seed`` maps seed → :class:`PolicyResult` (or an
        already-flattened / ``metrics_dict()`` mapping).  Seeds are
        sorted before reduction so the result is independent of the
        mapping's insertion (i.e. completion) order.
        """
        # Late: reducing plain records (Fig. 7's timings) needs no runner.
        from repro.sim.runner import PolicyResult

        if not per_seed:
            raise ExperimentError(
                f"no per-seed results for {policy_name} @ {arrival_rate:g}"
            )
        # One cell must not blend exact and estimated percentiles: the
        # summary_mode provenance string is dropped by flattening (it is
        # not a statistic), so a mixed cell would silently average
        # reservoir estimates with exact nearest-rank values.
        modes = {
            (
                result.summary_mode
                if isinstance(result, PolicyResult)
                else result.get("summary_mode")
            )
            for result in per_seed.values()
        }
        if len(modes) > 1:
            shown = sorted("exact" if m is None else str(m) for m in modes)
            raise ExperimentError(
                f"{policy_name} @ {arrival_rate:g} mixes summary modes "
                f"{shown} across seeds; aggregate exact and streamed "
                "runs separately"
            )
        return cls.from_records(
            policy_name,
            arrival_rate,
            {
                seed: (
                    flatten_metrics(result.metrics_dict())
                    if isinstance(result, PolicyResult)
                    else flatten_metrics(result)
                )
                for seed, result in per_seed.items()
            },
            config=config,
            rngs=rngs,
        )

    @classmethod
    def from_records(
        cls,
        policy_name: str,
        arrival_rate: float,
        per_seed: Mapping[int, Mapping[str, float]],
        config: AggregateConfig = AggregateConfig(),
        rngs: Optional[RngRegistry] = None,
    ) -> "SeedAggregate":
        """Reduce already-flat ``{seed: {metric: value}}`` records.

        This is the generic entry point: anything that repeats a
        measurement under several seeds (Fig. 6 seeds, Fig. 7 timing
        repetitions) reduces through here instead of a private loop.
        """
        if not per_seed:
            raise ExperimentError(
                f"no per-seed records for {policy_name} @ {arrival_rate:g}"
            )
        seeds = tuple(sorted(per_seed))
        flat = {seed: dict(per_seed[seed]) for seed in seeds}
        names = set(flat[seeds[0]])
        for seed in seeds[1:]:
            if set(flat[seed]) != names:
                raise ExperimentError(
                    f"seed {seed} of {policy_name} @ {arrival_rate:g} reports "
                    f"different metrics than seed {seeds[0]}"
                )
        if rngs is None:
            rngs = RngRegistry(config.bootstrap_seed)
        stats: Dict[str, MetricStats] = {}
        for name in sorted(names):
            rng = (
                rngs.get(
                    f"aggregate.bootstrap.{policy_name}@{arrival_rate!r}.{name}"
                )
                if len(seeds) > 1
                else None
            )
            stats[name] = MetricStats.compute(
                [flat[seed][name] for seed in seeds], rng, config
            )
        return cls(
            policy_name=policy_name,
            arrival_rate=arrival_rate,
            seeds=seeds,
            stats=stats,
        )

    def __getitem__(self, metric: str) -> MetricStats:
        try:
            return self.stats[metric]
        except KeyError:
            raise ExperimentError(
                f"{self.policy_name} @ {self.arrival_rate:g} has no metric "
                f"{metric!r} (have: {', '.join(sorted(self.stats))})"
            ) from None

    def mean(self, metric: str) -> float:
        """Seed-mean of one metric (the headline reduction)."""
        return self[metric].mean

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "policy_name": self.policy_name,
            "arrival_rate": self.arrival_rate,
            "seeds": list(self.seeds),
            "stats": {k: v.to_dict() for k, v in self.stats.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SeedAggregate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            policy_name=str(d["policy_name"]),
            arrival_rate=float(d["arrival_rate"]),
            seeds=tuple(int(s) for s in d["seeds"]),
            stats={k: MetricStats.from_dict(v) for k, v in d["stats"].items()},
        )


# ----------------------------------------------------------------------
# the whole grid
# ----------------------------------------------------------------------
@dataclass
class SweepSummary:
    """A sweep reduced across seeds: one :class:`SeedAggregate` per
    (policy, arrival rate), in rate-major grid order."""

    groups: Dict[Tuple[str, float], SeedAggregate]
    seeds: Tuple[int, ...]
    config: AggregateConfig = field(default_factory=AggregateConfig)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_grouped(
        cls,
        grouped: Mapping[Tuple[str, float], Mapping[int, PolicyResult]],
        config: AggregateConfig = AggregateConfig(),
    ) -> "SweepSummary":
        """Build from ``{(policy, rate): {seed: PolicyResult}}``."""
        if not grouped:
            raise ExperimentError("nothing to summarise: no grid cells")
        rngs = RngRegistry(config.bootstrap_seed)
        groups = {
            key: SeedAggregate.from_results(
                key[0], key[1], per_seed, config=config, rngs=rngs
            )
            for key, per_seed in grouped.items()
        }
        seeds = sorted({s for agg in groups.values() for s in agg.seeds})
        return cls(groups=groups, seeds=tuple(seeds), config=config)

    @classmethod
    def from_sweep(
        cls, result, config: AggregateConfig = AggregateConfig()
    ) -> "SweepSummary":
        """Reduce a :class:`~repro.sim.sweep.SweepResult` across seeds."""
        grouped: Dict[Tuple[str, float], Dict[int, PolicyResult]] = {}
        for rate in result.spec.arrival_rates:
            for policy in result.spec.policies:
                grouped[(policy.name, rate)] = {}
        for point, point_result in result.results.items():
            grouped[(point.policy.name, point.arrival_rate)][
                point.seed
            ] = point_result
        return cls.from_grouped(grouped, config=config)

    @classmethod
    def from_cache(
        cls,
        cache,
        config: AggregateConfig = AggregateConfig(),
    ) -> "SweepSummary":
        """Reduce a cache directory using its ``manifest.json``.

        ``cache`` is a :class:`~repro.sim.sweep.SweepCache` (or a path
        accepted by its constructor).  Every point named by the
        manifest must be present and loadable; a missing point means
        the sweep never completed and aggregation would silently
        under-count seeds, so it fails loudly instead.  A corrupt
        point raises :class:`~repro.errors.CacheCorruptionError`
        naming its file; any other load failure surfaces as itself.
        """
        from repro.sim.sweep import SweepCache

        if not isinstance(cache, SweepCache):
            cache = SweepCache(cache)
        manifest = cache.manifest()
        if manifest is None:
            raise ExperimentError(
                f"no manifest.json in {cache.root}; run the sweep with a "
                "cache (or rebuild it) before aggregating"
            )
        # Pre-seed the cells in grid (rate-major, legend) order: the
        # on-disk points map is sorted by hash key, and the summary's
        # group order must not depend on that accident.
        grouped: Dict[Tuple[str, float], Dict[int, PolicyResult]] = {
            (policy["name"], float(rate)): {}
            for rate in manifest["spec"]["arrival_rates"]
            for policy in manifest["spec"]["policies"]
        }
        keys = list(manifest["points"])
        loaded = [cache.load(key) for key in keys]
        missing: List[str] = []
        for key, result in zip(keys, loaded):
            coords = manifest["points"][key]
            if result is None:
                missing.append(
                    f"{coords['policy']} @ {coords['arrival_rate']:g} "
                    f"seed {coords['seed']} ({key})"
                )
                continue
            cell = (coords["policy"], float(coords["arrival_rate"]))
            grouped.setdefault(cell, {})[int(coords["seed"])] = result
        if missing:
            shown = "; ".join(missing[:4]) + ("; ..." if len(missing) > 4 else "")
            raise ExperimentError(
                f"{len(missing)} of {len(manifest['points'])} manifest "
                f"points missing from {cache.root}: {shown} — finish the "
                "sweep before aggregating"
            )
        return cls.from_grouped(grouped, config=config)

    # -- access ---------------------------------------------------------
    def policies(self) -> List[str]:
        """Policy names, in first-appearance (grid) order."""
        seen: Dict[str, None] = {}
        for name, _ in self.groups:
            seen.setdefault(name)
        return list(seen)

    def rates(self) -> List[float]:
        """Arrival rates, ascending."""
        return sorted({rate for _, rate in self.groups})

    def get(self, policy_name: str, arrival_rate: float) -> SeedAggregate:
        """One cell's aggregate."""
        try:
            return self.groups[(policy_name, arrival_rate)]
        except KeyError:
            raise ExperimentError(
                f"no aggregated cell ({policy_name}, {arrival_rate:g}); "
                f"have policies {self.policies()} at rates {self.rates()}"
            ) from None

    def seed_mean(self, policy_name: str, arrival_rate: float, metric: str) -> float:
        """Shorthand for the seed-mean of one cell's metric."""
        return self.get(policy_name, arrival_rate).mean(metric)

    # -- paired differences ---------------------------------------------
    def paired_diff(
        self,
        policy_a: str,
        policy_b: str,
        arrival_rate: float,
        metrics: Optional[Sequence[str]] = None,
    ) -> Dict[str, MetricStats]:
        """Per-seed difference statistics ``policy_a − policy_b``.

        Policies in one grid share seeds (the runner derives all
        randomness from the cell's seed), so the per-seed deltas cancel
        the common seed-to-seed variation and their Student-t/bootstrap
        intervals are much tighter than the difference of two marginal
        intervals — the right uncertainty for "PCS − baseline" claims.

        ``metrics`` defaults to every metric the two cells share.
        Raises when the cells were run under different seed sets (the
        pairing would be fiction).  Deterministic: the bootstrap draws
        from streams named per (policy pair, rate, metric), independent
        of call order.
        """
        a = self.get(policy_a, arrival_rate)
        b = self.get(policy_b, arrival_rate)
        if a.seeds != b.seeds:
            raise ExperimentError(
                f"cannot pair {policy_a} (seeds {list(a.seeds)}) with "
                f"{policy_b} (seeds {list(b.seeds)}) at {arrival_rate:g} "
                "req/s: per-seed differences need identical seed sets"
            )
        names = (
            list(metrics)
            if metrics is not None
            else sorted(set(a.stats) & set(b.stats))
        )
        rngs = RngRegistry(self.config.bootstrap_seed)
        out: Dict[str, MetricStats] = {}
        for name in names:
            deltas = [
                va - vb for va, vb in zip(a[name].values, b[name].values)
            ]
            rng = (
                rngs.get(
                    "aggregate.paired."
                    f"{policy_a}-{policy_b}@{arrival_rate!r}.{name}"
                )
                if len(deltas) > 1
                else None
            )
            out[name] = MetricStats.compute(deltas, rng, self.config)
        return out

    # -- cross-run comparison --------------------------------------------
    def compare(
        self,
        other: "SweepSummary",
        metrics: Optional[Sequence[str]] = None,
    ) -> Dict[Tuple[str, float], Dict[str, MetricStats]]:
        """Paired per-seed differences ``self − other`` per shared cell.

        The cross-run sibling of :meth:`paired_diff` (``aggregate
        --compare DIR``): both runs evaluated the same (policy, rate)
        cells under shared seeds, so the per-seed deltas cancel the
        common seed-to-seed variation exactly as within-run pairing
        does — the right uncertainty for "did this code/config change
        move the metric?".  Cells present in only one run are skipped
        (:meth:`unmatched_cells` lists them; the manifest-level
        ``SweepCache.diff`` explains *why* they differ).  A shared
        cell whose seed sets differ raises a clear
        :class:`~repro.errors.ExperimentError` — a paired difference
        over different seeds would be fiction.  Deterministic: the
        bootstrap draws from streams named per (cell, metric).
        """
        shared = [cell for cell in self.groups if cell in other.groups]
        if not shared:
            raise ExperimentError(
                "the two runs share no (policy, arrival rate) cells: "
                f"mine has {sorted(self.groups)}, "
                f"theirs {sorted(other.groups)}"
            )
        mismatched = [
            (cell, self.groups[cell].seeds, other.groups[cell].seeds)
            for cell in shared
            if self.groups[cell].seeds != other.groups[cell].seeds
        ]
        if mismatched:
            shown = "; ".join(
                f"{policy} @ {rate:g} (mine seeds {list(sa)}, "
                f"theirs {list(sb)})"
                for (policy, rate), sa, sb in mismatched[:4]
            )
            raise ExperimentError(
                f"{len(mismatched)} shared cell(s) were run under "
                f"different seed sets — paired differences need identical "
                f"seeds: {shown}"
                + ("; ..." if len(mismatched) > 4 else "")
            )
        rngs = RngRegistry(self.config.bootstrap_seed)
        out: Dict[Tuple[str, float], Dict[str, MetricStats]] = {}
        for cell in shared:
            a, b = self.groups[cell], other.groups[cell]
            names = (
                list(metrics)
                if metrics is not None
                else sorted(set(a.stats) & set(b.stats))
            )
            per_metric: Dict[str, MetricStats] = {}
            for name in names:
                deltas = [
                    va - vb for va, vb in zip(a[name].values, b[name].values)
                ]
                rng = (
                    rngs.get(
                        f"aggregate.compare.{cell[0]}@{cell[1]!r}.{name}"
                    )
                    if len(deltas) > 1
                    else None
                )
                per_metric[name] = MetricStats.compute(
                    deltas, rng, self.config
                )
            out[cell] = per_metric
        return out

    def unmatched_cells(
        self, other: "SweepSummary"
    ) -> Tuple[List[Tuple[str, float]], List[Tuple[str, float]]]:
        """Cells only in ``self`` and cells only in ``other``."""
        mine = [cell for cell in self.groups if cell not in other.groups]
        theirs = [cell for cell in other.groups if cell not in self.groups]
        return mine, theirs

    def render_compare_table(
        self,
        other: "SweepSummary",
        metrics: Sequence[str] = DEFAULT_TABLE_METRICS,
        unit_ms: bool = True,
    ) -> str:
        """``aggregate --compare``'s joint table: per shared cell, the
        paired ``this − other`` delta (mean ± t-CI and bootstrap CI)
        per metric, with unmatched cells footnoted."""
        from repro.experiments.report import format_ci, render_table

        diffs = self.compare(other, metrics=metrics)
        f = 1e3 if unit_ms else 1.0
        unit = "ms" if unit_ms else ""
        headers = ["rate (req/s)", "policy"]
        for metric in metrics:
            headers.append(
                f"Δ {metric} ({unit}, mean±{self.config.confidence:.0%})"
            )
            headers.append("boot CI")
        rows = []
        for rate in sorted({rate for _, rate in diffs}):
            for name in self.policies():
                if (name, rate) not in diffs:
                    continue
                row = [f"{rate:g}", name]
                for metric in metrics:
                    s = diffs[(name, rate)][metric]
                    half = 0.5 * (s.t_hi - s.t_lo)
                    row.append(f"{s.mean * f:+.2f} ± {half * f:.2f}")
                    row.append(format_ci(s.boot_lo * f, s.boot_hi * f))
                rows.append(row)
        title = (
            "Paired per-seed differences, this run − other run "
            f"(seeds {list(self.seeds)}; {self.config.confidence:.0%} CIs)"
        )
        table = render_table(headers, rows, title=title)
        only_mine, only_theirs = self.unmatched_cells(other)
        notes = []
        if only_mine:
            notes.append(
                "cells only in this run (skipped): "
                + ", ".join(f"{p}@{r:g}" for p, r in only_mine)
            )
        if only_theirs:
            notes.append(
                "cells only in the other run (skipped): "
                + ", ".join(f"{p}@{r:g}" for p, r in only_theirs)
            )
        return "\n".join([table] + notes)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form (groups keyed ``"policy@rate"``)."""
        return {
            "seeds": list(self.seeds),
            "config": self.config.to_dict(),
            "groups": [g.to_dict() for g in self.groups.values()],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SweepSummary":
        """Inverse of :meth:`to_dict`."""
        groups = {}
        for payload in d["groups"]:
            agg = SeedAggregate.from_dict(payload)
            groups[(agg.policy_name, agg.arrival_rate)] = agg
        return cls(
            groups=groups,
            seeds=tuple(int(s) for s in d["seeds"]),
            config=AggregateConfig.from_dict(d["config"]),
        )

    # -- presentation ---------------------------------------------------
    def render_table(
        self,
        metrics: Sequence[str] = DEFAULT_TABLE_METRICS,
        unit_ms: bool = True,
    ) -> str:
        """The headline table: one row per (rate, policy), mean ± t-CI
        and the bootstrap interval per requested metric."""
        from repro.experiments.report import format_ci, render_table

        f = 1e3 if unit_ms else 1.0
        unit = "ms" if unit_ms else ""
        headers = ["rate (req/s)", "policy"]
        for metric in metrics:
            headers.append(f"{metric} ({unit}, mean±{self.config.confidence:.0%})")
            headers.append("boot CI")
        rows = []
        for rate in self.rates():
            for name in self.policies():
                agg = self.get(name, rate)
                row = [f"{rate:g}", name]
                for metric in metrics:
                    s = agg[metric]
                    half = 0.5 * (s.t_hi - s.t_lo)
                    row.append(f"{s.mean * f:.2f} ± {half * f:.2f}")
                    row.append(format_ci(s.boot_lo * f, s.boot_hi * f))
                rows.append(row)
        title = (
            f"Seed-level aggregate over seeds {list(self.seeds)} "
            f"({self.config.confidence:.0%} CIs; nearest-rank bootstrap, "
            f"{self.config.bootstrap_resamples} resamples)"
        )
        return render_table(headers, rows, title=title)
