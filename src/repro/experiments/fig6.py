"""Fig. 6 — service performance of the six policies (§VI-C).

The paper sweeps six arrival rates (10, 20, 50, 100, 200, 500 req/s)
and reports, per policy, (a) the pooled 99th-percentile component
latency and (b) the mean overall service latency.  The headline:
averaged over the sweep, PCS cuts the component tail by 67.05 % and the
mean overall latency by 64.16 % *relative to the redundancy/reissue
techniques* (RED-3/RED-5/RI-90/RI-99).

This driver reruns exactly that sweep on the simulated cluster and
computes the same headline aggregation.  The scale knobs default to a
laptop-sized but faithful configuration; ``Fig6Config(paper_scale=True)``
applies the *scenario's own* full-scale preset
(:attr:`~repro.scenarios.spec.ScenarioSpec.paper_scale` — the paper's
30-node / 100-searching-VM setup for ``nutch-search``, per-scenario
sizes elsewhere) and raises a named
:class:`~repro.errors.ConfigurationError` for scenarios that define no
preset, instead of silently mis-sizing them with Nutch constants.

Execution routes through :mod:`repro.sim.sweep`: every (policy, rate)
cell is one independent sweep point, so ``workers=N`` fans the grid out
over processes (bit-identical to the serial path) and ``cache_dir``
memoizes completed cells so an interrupted sweep resumes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.policies import (
    BasicPolicy,
    PCSPolicy,
    Policy,
    standard_policies,
)
from repro.errors import ExperimentError
from repro.experiments.report import render_bars, render_table
from repro.scenarios import get_scenario
from repro.scheduler.pcs import SchedulerConfig
from repro.scheduler.threshold import AdaptiveThreshold
from repro.service.nutch import NutchConfig
from repro.sim.aggregate import AggregateConfig, SweepSummary
from repro.sim.runner import PolicyResult, RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepCache, SweepSpec
from repro.units import ms
from repro.workloads.generator import GeneratorConfig

__all__ = [
    "PAPER_FIG6",
    "paper_pcs_policy",
    "Fig6Config",
    "Fig6Result",
    "run_fig6",
    "run_quick_comparison",
]

#: The paper's headline reductions (PCS vs redundancy/reissue, averaged).
PAPER_FIG6 = {"tail_reduction": 67.05, "mean_reduction": 64.16}

#: The paper's arrival-rate sweep (req/s).
PAPER_ARRIVAL_RATES = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


def paper_pcs_policy(max_migrations: int = 25) -> PCSPolicy:
    """The PCS configuration used by the Fig. 6 reproduction.

    The paper pins ε to 5 ms = 5 % of its testbed's accepted 100 ms
    overall latency; our simulated service is faster, so we apply the
    same 5 %-of-accepted-latency *rule* adaptively (§VI-C explicitly
    notes the adaptive variant as a possible refinement).
    """
    return PCSPolicy(
        scheduler_config=SchedulerConfig(
            threshold=AdaptiveThreshold(fraction=0.03, min_epsilon_s=ms(0.3)),
            max_migrations=max_migrations,
        )
    )


@dataclass(frozen=True)
class Fig6Config:
    """Scale and sweep parameters for the Fig. 6 reproduction.

    ``paper_scale=True`` applies the scenario's registered full-scale
    preset (``ScenarioSpec.paper_scale``) to every field the caller
    left at its default — explicit arguments always win — and fails
    loudly for scenarios without one.
    """

    arrival_rates: Tuple[float, ...] = PAPER_ARRIVAL_RATES
    #: ``None`` resolves to the scenario's own default cluster size
    #: (the paper's 30 nodes for ``nutch-search``).
    n_nodes: Optional[int] = None
    interval_s: float = 30.0
    n_intervals: int = 8
    warmup_intervals: int = 2
    seed: int = 7
    #: Which registered workload scenario the sweep runs on
    #: (:mod:`repro.scenarios`); the paper's figure is ``nutch-search``.
    scenario: str = "nutch-search"
    #: Shape multiplier for scenario builders that define scaled shapes
    #: (the ``nutch-search`` shape comes from :attr:`nutch` instead).
    #: ``None`` (the default) resolves to 1.0 — the sentinel lets a
    #: paper-scale preset distinguish "left unset" from an explicitly
    #: passed 1.0, so explicit arguments always win.
    scale: Optional[float] = None
    #: Shape of the ``nutch-search`` service; ``None`` resolves to the
    #: stock :class:`NutchConfig` (same sentinel rationale as `scale`).
    nutch: Optional[NutchConfig] = None
    #: ``None`` resolves to the scenario's workload/interference
    #: profile, so every driver runs a scenario in the same environment
    #: as the sweep CLI.
    generator: Optional[GeneratorConfig] = None
    policies: Tuple[Policy, ...] = ()
    #: Seeds to repeat every (policy, rate) cell under; defaults to
    #: ``(seed,)``.  With several seeds the driver reports mean ± CI
    #: per cell through :mod:`repro.sim.aggregate`.
    seeds: Tuple[int, ...] = ()
    #: Apply the scenario's full-scale preset (see the class docstring).
    paper_scale: bool = False
    #: Arrival-trace profile shaping per-interval rates
    #: (:func:`~repro.workloads.traces.arrival_profile_names`); the
    #: paper's open-loop stationary stream is the default.
    trace_profile: str = "stationary"
    #: Request-class mix re-weighting, ``((name, weight), ...)``; `None``
    #: runs the scenario's declared mix (validated by the runner).
    class_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Streamed-run window size, forwarded to
    #: ``RunnerConfig.chunk_requests``.
    chunk_requests: Optional[int] = None
    #: Latency summary mode forwarded to the runner (``"auto"`` /
    #: ``"exact"`` / ``"streaming"``).
    summary_mode: str = "auto"

    def __post_init__(self) -> None:
        if not self.arrival_rates:
            raise ExperimentError("need at least one arrival rate")
        if any(r <= 0 for r in self.arrival_rates):
            raise ExperimentError("arrival rates must be positive")
        spec = get_scenario(self.scenario)  # fail fast on unknown names
        if self.paper_scale:
            self._apply_paper_preset(spec)
        if self.n_nodes is None:
            object.__setattr__(
                self, "n_nodes", int(spec.runner_defaults.get("n_nodes", 30))
            )
        if self.generator is None:
            object.__setattr__(self, "generator", spec.generator)
        if not self.policies:
            object.__setattr__(
                self, "policies", tuple(standard_policies()[:-1]) + (paper_pcs_policy(),)
            )
        if self.scale is None:
            object.__setattr__(self, "scale", 1.0)
        if self.nutch is None:
            object.__setattr__(self, "nutch", NutchConfig())
        if not self.seeds:
            object.__setattr__(self, "seeds", (self.seed,))
        if len(set(self.seeds)) != len(self.seeds):
            raise ExperimentError(f"duplicate seeds: {self.seeds}")

    #: The fields a scenario's paper-scale preset may set — exactly the
    #: ones whose ``None`` default is a sentinel, so "left unset" is
    #: detectable and an explicitly passed value is never overridden.
    PRESETTABLE_FIELDS = ("n_nodes", "scale", "nutch")

    def _apply_paper_preset(self, spec) -> None:
        """Apply ``spec.paper_scale`` to fields still at their defaults.

        Preset keys are restricted to :attr:`PRESETTABLE_FIELDS` —
        fields with ``None`` sentinels — so an explicitly passed value,
        even one equal to the resolved default, is never overridden
        (any other key is rejected rather than applied under
        unsound value-equality detection).  Presets are moved into the
        scenario registry precisely so that ``paper_scale=True`` can
        never silently size scenario B with scenario A's constants: an
        empty preset (unknown combination) raises a named
        :class:`~repro.errors.ConfigurationError`.
        """
        from repro.errors import ConfigurationError

        preset = dict(spec.paper_scale)
        if not preset:
            raise ConfigurationError(
                f"scenario {self.scenario!r} defines no paper-scale preset "
                "(ScenarioSpec.paper_scale); register one or run it at "
                "quick scale"
            )
        for key, value in preset.items():
            if key not in self.PRESETTABLE_FIELDS:
                raise ConfigurationError(
                    f"scenario {self.scenario!r} paper-scale preset key "
                    f"{key!r} is not presettable (allowed: "
                    f"{', '.join(self.PRESETTABLE_FIELDS)})"
                )
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)

    def runner_config(self, arrival_rate: float) -> RunnerConfig:
        """Runner configuration for one sweep point."""
        return RunnerConfig(
            n_nodes=self.n_nodes,
            arrival_rate=arrival_rate,
            interval_s=self.interval_s,
            n_intervals=self.n_intervals,
            warmup_intervals=self.warmup_intervals,
            seed=self.seed,
            scenario=self.scenario,
            scale=self.scale,
            nutch=self.nutch,
            generator=self.generator,
            interference_noise=get_scenario(self.scenario).interference_noise,
            trace_profile=self.trace_profile,
            class_mix=self.class_mix,
            chunk_requests=self.chunk_requests,
            summary_mode=self.summary_mode,
        )

    def sweep_spec(self) -> SweepSpec:
        """The policies × rates × seeds grid as a :class:`SweepSpec`."""
        return SweepSpec(
            base=self.runner_config(self.arrival_rates[0]),
            policies=tuple(self.policies),
            arrival_rates=tuple(self.arrival_rates),
            seeds=tuple(self.seeds),
        )


@dataclass
class Fig6Result:
    """The full sweep: one PolicyResult per (rate, policy).

    ``results`` is one seed's slice (``config.seeds[0]``) — the shape
    the per-rate panels and the analysis helpers consume.  ``summary``
    is the seed-level reduction over *all* seeds
    (:class:`~repro.sim.aggregate.SweepSummary`); every headline number
    reads from it, so single- and multi-seed runs share one code path.
    """

    results: Dict[float, Dict[str, PolicyResult]]
    config: Fig6Config
    wall_time_s: float = 0.0
    summary: Optional[SweepSummary] = None

    def seed_summary(self) -> SweepSummary:
        """The seed-level aggregate (built lazily for hand-made results)."""
        if self.summary is None:
            self.summary = SweepSummary.from_grouped(
                {
                    (name, rate): {self.config.seeds[0]: result}
                    for rate, per_policy in self.results.items()
                    for name, result in per_policy.items()
                }
            )
        return self.summary

    def policies(self) -> List[str]:
        """Policy names in legend order."""
        first = next(iter(self.results.values()))
        return list(first)

    def _mitigation_baselines(self) -> List[str]:
        baselines = [p for p in self.policies() if p.startswith(("RED", "RI"))]
        if not baselines or "PCS" not in self.policies():
            raise ExperimentError("sweep must include PCS and RED/RI policies")
        return baselines

    def headline_reduction(self) -> Dict[str, float]:
        """The paper's headline aggregation (§VI-C "Results").

        "PCS achieves 67.05 % reduction in the 99th component latency
        and 64.16 % reduction in the overall service latency when
        comparing to the request redundancy and reissue techniques" —
        computed as the reduction of the *sweep-averaged* latency:
        ``1 − mean_over_rates(PCS) / mean_over_rates_and_techniques(RED/RI)``.
        (Averaging latencies before taking the ratio is the only
        reading under which a single percentage can summarise a sweep
        whose heavy-load points differ by orders of magnitude.)

        Per-cell values are the seed-means from the shared
        :mod:`repro.sim.aggregate` reduction; with one seed they are
        exactly the single run's numbers.
        """
        baselines = self._mitigation_baselines()
        summary = self.seed_summary()
        rates = sorted(self.results)
        pcs_tail = np.mean(
            [summary.seed_mean("PCS", r, "component_latency.p99") for r in rates]
        )
        pcs_mean = np.mean(
            [summary.seed_mean("PCS", r, "overall_latency.mean") for r in rates]
        )
        other_tail = np.mean(
            [
                summary.seed_mean(b, r, "component_latency.p99")
                for r in rates
                for b in baselines
            ]
        )
        other_mean = np.mean(
            [
                summary.seed_mean(b, r, "overall_latency.mean")
                for r in rates
                for b in baselines
            ]
        )
        return {
            "tail": float(100.0 * (1.0 - pcs_tail / other_tail)),
            "mean": float(100.0 * (1.0 - pcs_mean / other_mean)),
        }

    def reduction_vs_mitigation_techniques(self) -> Dict[str, float]:
        """Alternative aggregation: mean of per-(rate, technique)
        percentage reductions.

        More sensitive to light-load points (where redundancy's
        min-of-k genuinely shines and a negative 'reduction' of
        several hundred percent is possible), so it understates PCS
        relative to :meth:`headline_reduction`; reported alongside for
        transparency.
        """
        baselines = self._mitigation_baselines()
        summary = self.seed_summary()
        tail_reductions, mean_reductions = [], []
        for rate in self.results:
            pcs_tail = summary.seed_mean("PCS", rate, "component_latency.p99")
            pcs_mean = summary.seed_mean("PCS", rate, "overall_latency.mean")
            for name in baselines:
                tail_reductions.append(
                    100.0
                    * (
                        1.0
                        - pcs_tail
                        / summary.seed_mean(name, rate, "component_latency.p99")
                    )
                )
                mean_reductions.append(
                    100.0
                    * (
                        1.0
                        - pcs_mean
                        / summary.seed_mean(name, rate, "overall_latency.mean")
                    )
                )
        return {
            "tail": float(np.mean(tail_reductions)),
            "mean": float(np.mean(mean_reductions)),
        }

    def render(self) -> str:
        """The six panels as tables plus the headline comparison."""
        blocks = []
        for rate in sorted(self.results):
            per_policy = self.results[rate]
            rows = [
                [
                    name,
                    f"{r.component_p99_s * 1e3:.1f}",
                    f"{r.overall_mean_s * 1e3:.1f}",
                    r.n_migrations,
                ]
                for name, r in per_policy.items()
            ]
            blocks.append(
                render_table(
                    ["policy", "component p99 (ms)", "overall mean (ms)", "migrations"],
                    rows,
                    title=f"Fig. 6 @ {rate:g} req/s",
                )
            )
            blocks.append(
                render_bars(
                    {n: r.component_p99_s * 1e3 for n, r in per_policy.items()},
                    title=f"component p99 (ms, log bars) @ {rate:g} req/s",
                    unit="ms",
                    log=True,
                )
            )
            # Mixed-class runs: one per-class panel per rate, so the
            # class-conditional tails are visible next to the pooled
            # numbers (class-free runs render exactly as before).
            class_rows = [
                [
                    name,
                    cls,
                    s.n,
                    f"{s.mean * 1e3:.1f}",
                    f"{s.p99 * 1e3:.1f}",
                ]
                for name, r in per_policy.items()
                if r.per_class
                for cls, s in sorted(r.per_class.items())
            ]
            if class_rows:
                blocks.append(
                    render_table(
                        ["policy", "class", "n", "mean (ms)", "p99 (ms)"],
                        class_rows,
                        title=f"per-class overall latency @ {rate:g} req/s",
                    )
                )
        blocks.append(self.seed_summary().render_table())
        has_mitigation = any(
            p.startswith(("RED", "RI")) for p in self.policies()
        )
        if has_mitigation and "PCS" in self.policies():
            head = self.headline_reduction()
            pairs = self.reduction_vs_mitigation_techniques()
            blocks.append(
                "PCS vs redundancy/reissue techniques, sweep-averaged latency: "
                f"tail -{head['tail']:.1f}% (paper -{PAPER_FIG6['tail_reduction']:.1f}%), "
                f"mean -{head['mean']:.1f}% (paper -{PAPER_FIG6['mean_reduction']:.1f}%)\n"
                "per-(rate, technique) mean of reductions (alternative aggregation): "
                f"tail {pairs['tail']:+.1f}%, mean {pairs['mean']:+.1f}%"
            )
        return "\n\n".join(blocks)


def run_fig6(
    config: Fig6Config | None = None,
    verbose: bool = False,
    workers: int = 1,
    cache_dir: Union[str, SweepCache, None] = None,
    backend=None,
) -> Fig6Result:
    """Run the whole Fig. 6 sweep (shared seeds across policies).

    ``workers`` fans the (policy, rate) grid out over an execution
    backend via :class:`~repro.sim.sweep.ParallelSweepRunner`
    (``backend`` selects how — by default inline for small sets of
    cheap pending points, spawn processes for expensive points or big
    grids); results are bit-identical to ``workers=1``.  ``cache_dir``
    memoizes completed cells on disk so an interrupted or repeated
    sweep resumes instead of recomputing.
    """
    cfg = config or Fig6Config()
    sweep = ParallelSweepRunner(
        cfg.sweep_spec(),
        workers=workers,
        cache=cache_dir,
        progress=(lambda p: print(p.render())) if verbose else None,
        backend=backend,
    )
    outcome = sweep.run()
    return Fig6Result(
        results=outcome.by_rate(seed=cfg.seeds[0]),
        config=cfg,
        wall_time_s=outcome.wall_time_s,
        summary=outcome.summary(AggregateConfig()),
    )


def run_quick_comparison(
    arrival_rate: float = 100.0,
    seed: int = 0,
    n_intervals: int = 6,
    scenario: str = "nutch-search",
    scale: float = 1.0,
    trace_profile: str = "stationary",
    class_mix: Optional[Tuple[Tuple[str, float], ...]] = None,
    chunk_requests: Optional[int] = None,
    summary_mode: str = "auto",
) -> Fig6Result:
    """A minutes-scale Basic-vs-PCS taste of Fig. 6 (see quickstart)."""
    cfg = Fig6Config(
        arrival_rates=(arrival_rate,),
        n_nodes=12,
        n_intervals=n_intervals,
        warmup_intervals=1,
        seed=seed,
        scenario=scenario,
        scale=scale,
        nutch=NutchConfig(n_search_groups=8, replicas_per_group=4),
        policies=(BasicPolicy(), paper_pcs_policy()),
        trace_profile=trace_profile,
        class_mix=class_mix,
        chunk_requests=chunk_requests,
        summary_mode=summary_mode,
    )
    return run_fig6(cfg)
