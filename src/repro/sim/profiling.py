"""Profiling runs that train the performance model (paper §VI-B).

The paper's setup: "we ran each searching component of the service on a
VM with 1 core and 1 GB memory, and used another VM with 4 core and 4 GB
memory co-located on the same node to run a Hadoop or Spark job of
different input sizes.  In each test, we trained the regression models
based on the historical running information."

:func:`profile_component` reproduces one such campaign for a
representative component: for each *condition* (a set of co-located
batch jobs), it measures — through the noisy monitor — the contention
vector and the mean observed service time over a window of simulated
requests, and accumulates (U, x̄) training pairs plus per-window SCV
estimates.  §VI-D's homogeneity argument means one campaign per
component class suffices for the whole service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.node import Node, NodeCapacity
from repro.errors import ExperimentError
from repro.interference.ground_truth import InterferenceModel
from repro.model.predictor import TrainedPredictor
from repro.monitoring.monitor import MonitorConfig, OnlineMonitor
from repro.service.component import Component, ComponentClass
from repro.service.service import OnlineService
from repro.units import gb, mb
from repro.workloads.batch import BatchJob, BatchJobSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.training import TrainingSet

__all__ = [
    "ProfilingConfig",
    "ProfilingResult",
    "observe_condition",
    "mixed_conditions",
    "profile_component",
    "train_predictor_for_service",
]


@dataclass(frozen=True)
class ProfilingConfig:
    """How each profiling condition is observed."""

    window_s: float = 60.0
    request_rate: float = 50.0
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    repetitions: int = 3

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.request_rate <= 0:
            raise ExperimentError("window_s and request_rate must be positive")
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")


@dataclass
class ProfilingResult:
    """Training data for one component class."""

    training: TrainingSet
    scv_estimate: float
    conditions_observed: int


def mixed_conditions(
    n_conditions: int,
    rng: np.random.Generator,
    max_jobs: int = 3,
    size_range_mb: tuple = (mb(10), gb(8)),
) -> List[List[BatchJobSpec]]:
    """Random multi-job conditions covering the contention space the
    scheduler will actually encounter (0 to ``max_jobs`` co-runners)."""
    from repro.workloads.profiles import ALL_PROFILES

    if n_conditions < 1:
        raise ExperimentError("n_conditions must be >= 1")
    names = sorted(ALL_PROFILES)
    lo, hi = size_range_mb
    conditions = []
    for _ in range(n_conditions):
        n_jobs = int(rng.integers(0, max_jobs + 1))
        condition = [
            BatchJobSpec.of(
                names[int(rng.integers(len(names)))],
                float(np.exp(rng.uniform(np.log(lo), np.log(hi)))),
            )
            for _ in range(n_jobs)
        ]
        conditions.append(condition)
    return conditions


def observe_condition(
    representative: Component,
    specs: Sequence[BatchJobSpec],
    interference: InterferenceModel,
    config: ProfilingConfig,
    rng: np.random.Generator,
    condition_tag: str = "cond",
) -> List[tuple]:
    """Observe one co-location condition for ``repetitions`` windows.

    Builds a fresh single-node testbed (the paper's §VI-B setup: the
    component's VM plus the co-runner job's VM on one node), and for
    each window returns ``(observed contention, observed mean service
    time, observed SCV)`` — everything measured through the noisy
    monitor and a finite number of simulated requests, never from
    ground truth directly.
    """
    node = Node(
        f"prof-{representative.cls.value}-{condition_tag}",
        capacity=NodeCapacity(machine_slots=2 + len(specs)),
    )
    cluster = Cluster([node])
    cluster.place(representative, node, MachineKind.SERVICE)
    for s_idx, spec in enumerate(specs):
        job = BatchJob(
            spec=spec,
            arrival_time=0.0,
            duration=max(1.0, config.repetitions * config.window_s),
            name=f"prof-job-{condition_tag}-{s_idx}",
        )
        cluster.place(job, node, MachineKind.BATCH)
    monitor = OnlineMonitor(config.monitor, cluster, rng)
    truth_u = cluster.contention_for(representative)
    n_requests = max(2, int(config.request_rate * config.window_s))
    windows = []
    for _ in range(config.repetitions):
        observed_u = monitor.observe_window(representative, config.window_s)
        # True service distribution with one per-window drift draw of
        # the interference model's irreducible noise.
        infl = interference.noisy_inflation(representative.cls, truth_u, rng)
        dist = representative.base_service.scaled(infl)
        samples = dist.sample(rng, n_requests)
        x_bar = float(np.mean(samples))
        scv = float(np.var(samples)) / (x_bar * x_bar)
        windows.append((observed_u, x_bar, scv))
    cluster.remove(representative)
    return windows


def profile_component(
    representative: Component,
    conditions: Sequence[Sequence[BatchJobSpec]],
    interference: InterferenceModel,
    config: ProfilingConfig,
    rng: np.random.Generator,
) -> ProfilingResult:
    """Run one profiling campaign; returns training data + SCV estimate.

    Each condition builds a fresh single-node testbed, co-locates the
    representative with the condition's batch jobs, and observes
    (monitored contention, mean observed service time) over
    ``repetitions`` windows.
    """
    # Late: only a run that trains the predictor loads Eq. 1's fitting.
    from repro.model.training import TrainingSet

    if not conditions:
        raise ExperimentError("need at least one profiling condition")
    training = TrainingSet()
    scv_estimates: List[float] = []
    for cond_idx, specs in enumerate(conditions):
        for observed_u, x_bar, scv in observe_condition(
            representative,
            specs,
            interference,
            config,
            rng,
            condition_tag=str(cond_idx),
        ):
            training.add(observed_u, x_bar)
            scv_estimates.append(scv)
    return ProfilingResult(
        training=training,
        scv_estimate=float(np.mean(scv_estimates)),
        conditions_observed=len(conditions),
    )


def train_predictor_for_service(
    service: OnlineService,
    interference: InterferenceModel,
    rng: np.random.Generator,
    config: Optional[ProfilingConfig] = None,
    conditions: Optional[Sequence[Sequence[BatchJobSpec]]] = None,
    n_mixed_conditions: int = 60,
) -> TrainedPredictor:
    """Profile one representative per class (§VI-D) and fit Eq. 1 models."""
    from repro.model.training import train_combined_model

    cfg = config or ProfilingConfig()
    conds = (
        list(conditions)
        if conditions is not None
        else mixed_conditions(n_mixed_conditions, rng)
    )
    models: Dict[ComponentClass, object] = {}
    scvs: Dict[ComponentClass, float] = {}
    for cls in service.classes():
        rep = service.representative(cls)
        # Profile a detached clone so the live component's placement is
        # untouched.
        clone = Component(
            name=f"{rep.name}-profiling-clone",
            cls=rep.cls,
            base_service=rep.base_service,
            demand=rep.demand,
        )
        result = profile_component(clone, conds, interference, cfg, rng)
        model, _ = train_combined_model(result.training)
        models[cls] = model
        scvs[cls] = result.scv_estimate
    return TrainedPredictor(models, scvs)
