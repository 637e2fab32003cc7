"""Fig. 7 — scalability of the scheduling algorithm (§VI-D).

The paper measures the scheduler's *analysis* time (constructing the
performance matrix from monitored information) and *search* time (the
greedy loop) for growing services, up to 640 components on 128 nodes,
reporting 551 ms at the top of the range — under 0.1 % of the 600 s
scheduling interval.

This driver times our implementation on synthetic-but-realistic
instances of the same sizes: random component demands, random batch
contention per node, the ground-truth oracle predictor (so timing
measures the scheduler, not profiling).  It also times the §VI-D
hierarchical strategy beyond 640 components.

Grid points run through :func:`repro.sim.sweep.parallel_map`.  The
default stays ``workers=1`` because co-timed points contend for cores
and would inflate each other's wall-clock; use ``workers>1`` only for
quick shape checks where absolute times don't matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.report import render_table
from repro.interference.ground_truth import default_interference_model
from repro.model.matrix import MatrixInputs
from repro.scenarios import get_scenario
from repro.model.predictor import OraclePredictor
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import StaticThreshold
from repro.service.component import Component, ComponentClass
from repro.sim.aggregate import SeedAggregate
from repro.sim.sweep import parallel_map
from repro.simcore.distributions import LogNormal
from repro.units import ms

__all__ = ["Fig7Config", "Fig7Point", "Fig7Result", "run_fig7", "make_instance"]

#: Paper's wall-clock at the largest point (640 components, 128 nodes).
PAPER_TOP_TIME_S = 0.551

#: Paper's scheduling interval — the budget the time is compared against.
PAPER_INTERVAL_S = 600.0


@dataclass(frozen=True)
class Fig7Config:
    """The (m, k) grid and measurement repetitions."""

    sizes: Tuple[Tuple[int, int], ...] = (
        (40, 8),
        (80, 16),
        (160, 32),
        (320, 64),
        (640, 128),
    )
    repeats: int = 3
    seed: int = 0
    hierarchical_sizes: Tuple[Tuple[int, int], ...] = ((1280, 128), (2560, 128))
    hierarchical_group_size: int = 640
    #: ``None`` keeps the paper's synthetic all-searching instances
    #: (bit-identical to the pre-scenario driver); a registered
    #: scenario name derives each instance's class mix and per-class
    #: demand templates from that scenario's topology instead, so the
    #: scalability curve can be measured for any workload shape.
    scenario: Optional[str] = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ExperimentError("need at least one (m, k) point")
        if any(m < 1 or k < 1 for m, k in self.sizes):
            raise ExperimentError("sizes must be positive")
        if self.repeats < 1:
            raise ExperimentError("repeats must be >= 1")
        if self.scenario is not None:
            get_scenario(self.scenario)  # fail fast on unknown names


@dataclass(frozen=True)
class Fig7Point:
    """One measured grid point.

    Timings are the per-phase minima over the configured repeats (the
    measurement-noise floor, reduced through
    :class:`repro.sim.aggregate.SeedAggregate` — repeats are seeded
    ``seed + rep``, i.e. they *are* a seed sweep); ``total_std_s``
    records the repeat-to-repeat spread of the total for context.
    """

    m: int
    k: int
    analysis_time_s: float
    search_time_s: float
    n_migrations: int
    hierarchical: bool = False
    total_std_s: float = 0.0

    @property
    def total_time_s(self) -> float:
        """Analysis + search (the quantity Fig. 7 plots)."""
        return self.analysis_time_s + self.search_time_s


@dataclass
class Fig7Result:
    """All measured points."""

    points: List[Fig7Point]
    config: Fig7Config

    def top_point(self) -> Fig7Point:
        """The (640, 128) point the paper quotes 551 ms for."""
        flat = [p for p in self.points if not p.hierarchical]
        return max(flat, key=lambda p: p.m)

    def render(self) -> str:
        """Fig. 7 as a table plus the paper comparison."""
        rows = [
            [
                p.m,
                p.k,
                "hier" if p.hierarchical else "flat",
                f"{p.analysis_time_s * 1e3:.1f}",
                f"{p.search_time_s * 1e3:.1f}",
                f"{p.total_time_s * 1e3:.1f}",
                p.n_migrations,
            ]
            for p in self.points
        ]
        table = render_table(
            ["m", "k", "mode", "analysis (ms)", "search (ms)", "total (ms)", "migrations"],
            rows,
            title="Fig. 7 — scheduling algorithm scalability",
        )
        top = self.top_point()
        frac = top.total_time_s / PAPER_INTERVAL_S
        return table + (
            f"\ntop point ({top.m} comps, {top.k} nodes): "
            f"{top.total_time_s * 1e3:.0f} ms "
            f"(paper: {PAPER_TOP_TIME_S * 1e3:.0f} ms); "
            f"{frac:.3%} of the 600 s scheduling interval"
        )


@lru_cache(maxsize=32)
def _scenario_rows(m: int, scenario: str, scale: float):
    """Per-row (stage, class, demand template) cycled from a scenario.

    The scenario's components are tiled to ``m`` rows and sorted by
    stage, so a synthetic instance of any size keeps the scenario's
    class mix, stage structure and per-class demand shape.  Memoized —
    the rows are deterministic per (m, scenario, scale) and the grid
    driver asks for the same ones once per repeat; callers must treat
    the returned arrays as read-only (copy before handing them out).
    """
    spec = get_scenario(scenario)
    comps = spec.build_service(spec.runner_config(scale=scale)).components
    rows = sorted(
        (
            (comp.stage_index, comp.cls, comp.demand.as_array())
            for i in range(m)
            for comp in (comps[i % len(comps)],)
        ),
        key=lambda row: row[0],
    )
    stage_of = np.array([r[0] for r in rows], dtype=np.int64)
    classes = tuple(r[1] for r in rows)
    templates = np.stack([r[2] for r in rows])
    return stage_of, classes, templates


def make_instance(
    m: int,
    k: int,
    rng: np.random.Generator,
    n_stages: int = 3,
    scenario: Optional[str] = None,
    scale: float = 1.0,
) -> MatrixInputs:
    """A synthetic scheduling instance with realistic magnitudes.

    By default components carry searching-like demands; with
    ``scenario`` given, the class mix, stage structure and demand
    templates come from that scenario's topology (tiled to ``m``).
    Nodes carry random batch contention; a third of the nodes are 'hot'
    so the greedy has real work to do (timings on an instance with
    nothing to migrate would flatter the search loop).
    """
    if m < n_stages:
        raise ExperimentError(f"need m >= {n_stages}")
    if scenario is None:
        stage_of = np.sort(rng.integers(0, n_stages, m))
        classes = [ComponentClass.SEARCHING] * m
        templates = np.array([0.04, 1.0, 4.0, 1.5])
    else:
        stage_of, classes, templates = _scenario_rows(m, scenario, scale)
        stage_of, classes = stage_of.copy(), list(classes)
    demands = rng.uniform(0.5, 1.5, (m, 4)) * templates
    assignment = rng.integers(0, k, m)
    node_totals = np.zeros((k, 4))
    for i in range(m):
        node_totals[assignment[i]] += demands[i]
    hot = rng.random(k) < 0.33
    batch = rng.uniform(0.0, 1.0, (k, 4)) * np.array([0.9, 40.0, 250.0, 90.0])
    node_totals += batch * hot[:, None]
    arrival = rng.uniform(5.0, 40.0, m)
    return MatrixInputs(
        stage_of=stage_of,
        classes=classes,
        demands=demands,
        assignment=assignment,
        node_totals=node_totals,
        arrival_rates=arrival,
    )


def _oracle(config: Optional[Fig7Config] = None) -> OraclePredictor:
    if config is None or config.scenario is None:
        rep = Component(
            name="fig7-rep",
            cls=ComponentClass.SEARCHING,
            base_service=LogNormal(ms(3.5), 0.5),
        )
        return OraclePredictor(
            default_interference_model(noise_sigma=0.0),
            {ComponentClass.SEARCHING: rep},
        )
    spec = get_scenario(config.scenario)
    service = spec.build_service(spec.runner_config(scale=config.scale))
    reps = {cls: service.representative(cls) for cls in service.classes()}
    return OraclePredictor(default_interference_model(noise_sigma=0.0), reps)


def _measure_flat_point(args: Tuple[int, int, Fig7Config]) -> Fig7Point:
    """Noise-floor timing of one flat (m, k) grid point over repeats.

    The repeat reduction goes through the shared
    :class:`~repro.sim.aggregate.SeedAggregate` layer (each repeat is
    the same instance family under seed ``seed + rep``): timings take
    the per-phase minimum — the standard noise-floor convention for
    micro-timings — and the migration count takes the nearest-rank
    median across repeats.

    Module-level and picklable so :func:`parallel_map` can ship it to a
    spawn worker.
    """
    m, k, cfg = args
    predictor = _oracle(cfg)
    sched_cfg = SchedulerConfig(threshold=StaticThreshold(ms(1)))
    records = {}
    for rep in range(cfg.repeats):
        seed = cfg.seed + rep
        rng = np.random.default_rng(seed)
        inputs = make_instance(m, k, rng, scenario=cfg.scenario, scale=cfg.scale)
        scheduler = PCSScheduler(predictor, sched_cfg)
        outcome = scheduler.schedule(inputs)
        records[seed] = {
            "analysis_time_s": outcome.analysis_time_s,
            "search_time_s": outcome.search_time_s,
            "total_time_s": outcome.analysis_time_s + outcome.search_time_s,
            "n_migrations": float(outcome.n_migrations),
        }
    agg = SeedAggregate.from_records(f"fig7-flat-{m}x{k}", float(m), records)
    return Fig7Point(
        m=m,
        k=k,
        analysis_time_s=agg["analysis_time_s"].min,
        search_time_s=agg["search_time_s"].min,
        n_migrations=int(agg["n_migrations"].p50),
        total_std_s=agg["total_time_s"].std,
    )


def _measure_hier_point(args: Tuple[int, int, Fig7Config]) -> Fig7Point:
    """Timing of one hierarchical grid point (beyond 640 components)."""
    m, k, cfg = args
    predictor = _oracle(cfg)
    sched_cfg = SchedulerConfig(threshold=StaticThreshold(ms(1)))
    rng = np.random.default_rng(cfg.seed)
    inputs = make_instance(m, k, rng, scenario=cfg.scenario, scale=cfg.scale)
    scheduler = HierarchicalScheduler(
        predictor, sched_cfg, group_size=cfg.hierarchical_group_size
    )
    outcome = scheduler.schedule(inputs)
    return Fig7Point(
        m=m,
        k=k,
        analysis_time_s=outcome.analysis_time_s,
        search_time_s=outcome.search_time_s,
        n_migrations=outcome.n_migrations,
        hierarchical=True,
    )


#: Coarse wall-clock calibration for one performance-matrix cell per
#: timing repeat (build + greedy amortised) — only has to rank a grid
#: point against the worker spawn tax.  Measured with the default
#: config on a 2-vCPU x86-64 host: the flat 640×128 point took
#: 0.95–1.22e-6 s a cell (3 runs; 0.23–0.30 s for its three repeats),
#: the 2560×128 hierarchical one 0.80–1.00e-6.
SCHED_WALL_S_PER_CELL = 1.2e-6


def point_cost_estimate_s(cfg: Fig7Config) -> float:
    """Expected wall-clock of the grid's most expensive point.

    Scheduling work scales with the ``m × k`` matrix; the largest
    point dominates a batch's wall-clock, so the ``auto`` backend rule
    sizes the whole batch by it.
    """
    cells = max(
        [cfg.repeats * m * k for m, k in cfg.sizes]
        + [m * k for m, k in cfg.hierarchical_sizes]
    )
    return float(cells * SCHED_WALL_S_PER_CELL)


def run_fig7(
    config: Fig7Config | None = None,
    workers: int = 1,
    backend=None,
) -> Fig7Result:
    """Measure analysis + search times over the (m, k) grid.

    Keep ``workers=1`` (the default) for paper-faithful timings:
    co-scheduled points steal cycles from each other.  The default
    ``backend=None`` goes through the cost-aware ``auto`` rule with
    :func:`point_cost_estimate_s`: the paper-sized grid's costliest
    point estimates at about 0.4 s, under the spawn-tax cutoff, so even
    ``workers > 1`` runs its few points inline; name ``backend`` to
    force processes.
    """
    cfg = config or Fig7Config()
    est = point_cost_estimate_s(cfg)
    points: List[Fig7Point] = parallel_map(
        _measure_flat_point,
        [(m, k, cfg) for m, k in cfg.sizes],
        workers=workers,
        backend=backend,
        est_cost_s=est,
    )
    points += parallel_map(
        _measure_hier_point,
        [(m, k, cfg) for m, k in cfg.hierarchical_sizes],
        workers=workers,
        backend=backend,
        est_cost_s=est,
    )
    return Fig7Result(points=points, config=cfg)
