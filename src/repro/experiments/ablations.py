"""Ablations of the design choices the paper fixes without evaluating.

The paper pins several knobs by argument rather than measurement: the
migration threshold ε (§VI-C), the Algorithm 2 partial matrix update
(§V), prediction fidelity (implicitly), and the hierarchical strategy
(§VI-D).  Each ablation here varies exactly one of them and reports the
cost/benefit, using small-but-faithful configurations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.baselines.policies import BasicPolicy, PCSPolicy
from repro.experiments.fig7 import make_instance, _oracle
from repro.experiments.report import render_table
from repro.model.matrix import PerformanceMatrix
from repro.monitoring.monitor import MonitorConfig
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import AdaptiveThreshold, StaticThreshold
from repro.service.nutch import NutchConfig
from repro.sim.runner import ExperimentRunner, RunnerConfig
from repro.units import ms

__all__ = [
    "AblationConfig",
    "threshold_sweep",
    "update_mode_comparison",
    "build_method_comparison",
    "predictor_fidelity",
    "hierarchy_tradeoff",
    "monitor_noise_sensitivity",
    "run_all_ablations",
]


@dataclass(frozen=True)
class AblationConfig:
    """Shared scale knobs for the runner-based ablations."""

    arrival_rate: float = 100.0
    n_nodes: int = 16
    n_intervals: int = 6
    warmup_intervals: int = 1
    interval_s: float = 30.0
    seed: int = 11
    nutch: NutchConfig = field(
        default_factory=lambda: NutchConfig(n_search_groups=10, replicas_per_group=4)
    )

    def runner(self, **overrides) -> ExperimentRunner:
        """Build a runner for this scale."""
        kwargs = dict(
            n_nodes=self.n_nodes,
            arrival_rate=self.arrival_rate,
            interval_s=self.interval_s,
            n_intervals=self.n_intervals,
            warmup_intervals=self.warmup_intervals,
            seed=self.seed,
            nutch=self.nutch,
        )
        kwargs.update(overrides)
        return ExperimentRunner(RunnerConfig(**kwargs))


def threshold_sweep(
    cfg: AblationConfig | None = None,
    epsilons_ms: Tuple[float, ...] = (0.1, 0.3, 1.0, 5.0, 20.0),
) -> str:
    """ε trade-off: too low churns migrations, too high misses gains.

    The paper's ε=5 ms was 5 % of *its* accepted latency; this sweep
    shows where the knee sits on our scale, plus the adaptive policy.
    """
    ab = cfg or AblationConfig()
    runner = ab.runner()
    rows = []
    basic = runner.run(BasicPolicy())
    rows.append(["Basic", "-", f"{basic.component_p99_s*1e3:.1f}",
                 f"{basic.overall_mean_s*1e3:.1f}", 0])
    for eps in epsilons_ms:
        policy = PCSPolicy(
            scheduler_config=SchedulerConfig(threshold=StaticThreshold(ms(eps)))
        )
        r = runner.run(policy)
        rows.append([f"PCS eps={eps}ms", f"{eps:.1f}",
                     f"{r.component_p99_s*1e3:.1f}",
                     f"{r.overall_mean_s*1e3:.1f}", r.n_migrations])
    adaptive = PCSPolicy(
        scheduler_config=SchedulerConfig(
            threshold=AdaptiveThreshold(fraction=0.03, min_epsilon_s=ms(0.3))
        )
    )
    r = runner.run(adaptive)
    rows.append(["PCS adaptive 3%", "adaptive",
                 f"{r.component_p99_s*1e3:.1f}",
                 f"{r.overall_mean_s*1e3:.1f}", r.n_migrations])
    return render_table(
        ["policy", "eps", "component p99 (ms)", "overall mean (ms)", "migrations"],
        rows,
        title=f"Ablation: migration threshold @ {ab.arrival_rate:g} req/s",
    )


def update_mode_comparison(
    sizes: Tuple[Tuple[int, int], ...] = ((80, 16), (160, 32), (320, 64)),
    seed: int = 3,
) -> str:
    """Algorithm 2's partial update vs exact full row rebuilds.

    Measures both the schedule quality (predicted final overall latency)
    and the search time — the fidelity/speed trade the paper takes.
    """
    predictor = _oracle()
    rows = []
    for m, k in sizes:
        per_mode = {}
        for mode in ("algorithm2", "full"):
            inputs = make_instance(m, k, np.random.default_rng(seed))
            sched = PCSScheduler(
                predictor,
                SchedulerConfig(
                    threshold=StaticThreshold(ms(1)), update_mode=mode
                ),
            )
            out = sched.schedule(inputs)
            per_mode[mode] = out
        a2, full = per_mode["algorithm2"], per_mode["full"]
        rows.append(
            [
                f"{m}x{k}",
                f"{a2.final_overall_s*1e3:.2f}",
                f"{full.final_overall_s*1e3:.2f}",
                f"{a2.search_time_s*1e3:.1f}",
                f"{full.search_time_s*1e3:.1f}",
                f"{a2.n_migrations}/{full.n_migrations}",
            ]
        )
    return render_table(
        [
            "instance",
            "final overall A2 (ms)",
            "final overall full (ms)",
            "search A2 (ms)",
            "search full (ms)",
            "migrations A2/full",
        ],
        rows,
        title="Ablation: Algorithm 2 partial update vs exact rebuild",
    )


def build_method_comparison(
    sizes: Tuple[Tuple[int, int], ...] = ((20, 5), (40, 8), (80, 12)),
    seed: int = 5,
) -> str:
    """Vectorised matrix build vs the literal reference implementation."""
    predictor = _oracle()
    rows = []
    for m, k in sizes:
        inputs = make_instance(m, k, np.random.default_rng(seed))
        pm_fast = PerformanceMatrix(inputs.copy(), predictor)
        t0 = time.perf_counter()
        pm_fast.build("fast")
        t_fast = time.perf_counter() - t0
        pm_ref = PerformanceMatrix(inputs.copy(), predictor)
        t0 = time.perf_counter()
        pm_ref.build("reference")
        t_ref = time.perf_counter() - t0
        max_diff = float(np.max(np.abs(pm_fast.L - pm_ref.L)))
        rows.append(
            [
                f"{m}x{k}",
                f"{t_fast*1e3:.1f}",
                f"{t_ref*1e3:.1f}",
                f"{t_ref/max(t_fast, 1e-9):.0f}x",
                f"{max_diff:.2e}",
            ]
        )
    return render_table(
        ["instance", "fast (ms)", "reference (ms)", "speedup", "max |diff|"],
        rows,
        title="Ablation: vectorised vs reference matrix build",
    )


def predictor_fidelity(cfg: AblationConfig | None = None) -> str:
    """Trained Eq. 1 models vs the ground-truth oracle.

    The gap isolates how much scheduling quality prediction error
    costs — the paper argues 2.68 % error is 'sufficient ... to achieve
    a near-optimal performance'.
    """
    ab = cfg or AblationConfig()
    runner = ab.runner()
    sc = SchedulerConfig(
        threshold=AdaptiveThreshold(fraction=0.03, min_epsilon_s=ms(0.3))
    )
    rows = []
    basic = runner.run(BasicPolicy())
    rows.append(["Basic", f"{basic.component_p99_s*1e3:.1f}",
                 f"{basic.overall_mean_s*1e3:.1f}", 0])
    trained = runner.run(PCSPolicy(scheduler_config=sc))
    rows.append(["PCS (trained Eq.1)", f"{trained.component_p99_s*1e3:.1f}",
                 f"{trained.overall_mean_s*1e3:.1f}", trained.n_migrations])
    oracle = runner.run(PCSPolicy(scheduler_config=sc, use_oracle=True))
    rows.append(["PCS (oracle)", f"{oracle.component_p99_s*1e3:.1f}",
                 f"{oracle.overall_mean_s*1e3:.1f}", oracle.n_migrations])
    return render_table(
        ["scheduler", "component p99 (ms)", "overall mean (ms)", "migrations"],
        rows,
        title=f"Ablation: prediction fidelity @ {ab.arrival_rate:g} req/s",
    )


def hierarchy_tradeoff(
    m: int = 960,
    k: int = 64,
    group_sizes: Tuple[int, ...] = (120, 240, 480, 960),
    seed: int = 9,
) -> str:
    """§VI-D's grouped scheduling: time vs achieved reduction."""
    from repro.scheduler.hierarchical import HierarchicalScheduler

    predictor = _oracle()
    rows = []
    for gs in group_sizes:
        inputs = make_instance(m, k, np.random.default_rng(seed))
        sched = HierarchicalScheduler(
            predictor,
            SchedulerConfig(threshold=StaticThreshold(ms(1))),
            group_size=gs,
        )
        out = sched.schedule(inputs)
        rows.append(
            [
                f"{gs}" + (" (flat)" if gs >= m else ""),
                f"{out.total_time_s*1e3:.0f}",
                f"{out.predicted_reduction_s*1e3:.2f}",
                out.n_migrations,
            ]
        )
    return render_table(
        ["group size", "time (ms)", "predicted reduction (ms)", "migrations"],
        rows,
        title=f"Ablation: hierarchical scheduling on {m} components, {k} nodes",
    )


def monitor_noise_sensitivity(
    noise_scales: Tuple[float, ...] = (0.0, 1.0, 3.0, 10.0),
    cfg: AblationConfig | None = None,
) -> str:
    """How monitor noise degrades PCS (robustness check).

    Scales the default core/bandwidth/cache noise levels together.
    """
    ab = cfg or AblationConfig()
    sc = SchedulerConfig(
        threshold=AdaptiveThreshold(fraction=0.03, min_epsilon_s=ms(0.3))
    )
    rows = []
    for scale in noise_scales:
        base = MonitorConfig()
        monitor = MonitorConfig(
            core_noise=base.core_noise * scale,
            bw_noise=base.bw_noise * scale,
            cache_noise=base.cache_noise * scale,
        )
        runner = ab.runner(monitor=monitor)
        r = runner.run(PCSPolicy(scheduler_config=sc))
        rows.append(
            [
                f"{scale:g}x",
                f"{r.component_p99_s*1e3:.1f}",
                f"{r.overall_mean_s*1e3:.1f}",
                r.n_migrations,
            ]
        )
    return render_table(
        ["monitor noise", "component p99 (ms)", "overall mean (ms)", "migrations"],
        rows,
        title=f"Ablation: monitor-noise sensitivity @ {ab.arrival_rate:g} req/s",
    )


def run_all_ablations(cfg: AblationConfig | None = None) -> str:
    """Run every ablation and join the reports."""
    ab = cfg or AblationConfig()
    parts = [
        threshold_sweep(ab),
        update_mode_comparison(),
        build_method_comparison(),
        predictor_fidelity(ab),
        hierarchy_tradeoff(),
        monitor_noise_sensitivity(cfg=ab),
    ]
    return "\n\n".join(parts)
