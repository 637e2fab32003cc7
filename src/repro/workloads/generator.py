"""Batch-job churn over the cluster.

Drives the dynamic interference PCS reacts to: short batch jobs arrive
at each node as a Poisson process, occupy a batch VM for their sampled
duration, and leave.  Between two scheduling intervals the mix of jobs
on every node — and therefore every component's contention vector —
changes, exactly the "continuously changing performance interference"
of §I.  ``start(engine, cluster)`` begins the churn on a
:class:`~repro.simcore.engine.SimulationEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.node import Node
from repro.errors import CapacityError, WorkloadError
from repro.simcore.engine import SimulationEngine
from repro.units import gb, mb
from repro.workloads.batch import BatchJob, BatchJobSpec
from repro.workloads.profiles import ALL_PROFILES

__all__ = ["GeneratorConfig", "BatchJobGenerator"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for :class:`BatchJobGenerator`.

    Attributes
    ----------
    jobs_per_node_per_s:
        Poisson arrival rate of batch jobs at each node.
    mix:
        ``{profile name: weight}``; ``None`` = uniform over all six
        paper workloads.
    size_range_mb:
        Log-uniform input-size range; the paper's Fig. 6 setting is
        1 MB – 10 GB.
    max_batch_jobs_per_node:
        Batch VMs available per node; arrivals beyond it are dropped
        (and counted), as an admission controller would.
    """

    jobs_per_node_per_s: float = 0.02
    mix: Optional[Mapping[str, float]] = None
    size_range_mb: tuple = (mb(1), gb(10))
    max_batch_jobs_per_node: int = 4

    def __post_init__(self) -> None:
        if self.jobs_per_node_per_s <= 0:
            raise WorkloadError("jobs_per_node_per_s must be positive")
        lo, hi = self.size_range_mb
        if not 0 < lo < hi:
            raise WorkloadError(f"invalid size range {self.size_range_mb}")
        if self.max_batch_jobs_per_node <= 0:
            raise WorkloadError("max_batch_jobs_per_node must be positive")
        if self.mix is not None:
            unknown = set(self.mix) - set(ALL_PROFILES)
            if unknown:
                raise WorkloadError(f"unknown profiles in mix: {sorted(unknown)}")

    def profile_names(self) -> List[str]:
        """Profiles in sampling order."""
        return sorted(self.mix) if self.mix is not None else sorted(ALL_PROFILES)

    def profile_weights(self) -> np.ndarray:
        """Normalised sampling weights aligned with :meth:`profile_names`."""
        names = self.profile_names()
        if self.mix is None:
            w = np.ones(len(names))
        else:
            w = np.array([self.mix[n] for n in names], dtype=np.float64)
        total = w.sum()
        if total <= 0:
            raise WorkloadError("mix weights must sum to a positive value")
        return w / total


class BatchJobGenerator:
    """Poisson churn of batch jobs over a cluster's batch VMs."""

    def __init__(self, config: GeneratorConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self.active_jobs: Dict[str, List[BatchJob]] = {}
        self.arrived = 0
        self.dropped = 0
        self.completed = 0
        self._next_arrival: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # sampling primitives
    # ------------------------------------------------------------------
    def sample_spec(self) -> BatchJobSpec:
        """Sample one job spec from the configured mix and size range."""
        names = self.config.profile_names()
        weights = self.config.profile_weights()
        name = names[int(self._rng.choice(len(names), p=weights))]
        lo, hi = self.config.size_range_mb
        size = float(np.exp(self._rng.uniform(np.log(lo), np.log(hi))))
        return BatchJobSpec.of(name, size)

    def sample_job(self, arrival_time: float) -> BatchJob:
        """Sample a full job (spec + duration) arriving at ``arrival_time``."""
        spec = self.sample_spec()
        return BatchJob(
            spec=spec,
            arrival_time=arrival_time,
            duration=spec.sample_duration(self._rng),
        )

    # ------------------------------------------------------------------
    # event-driven churn
    # ------------------------------------------------------------------
    def start(self, engine: SimulationEngine, cluster: Cluster) -> None:
        """Begin Poisson arrivals on every node of ``cluster``."""
        for node in cluster:
            self.active_jobs.setdefault(node.name, [])
            self._schedule_next_arrival(engine, cluster, node)

    def stop(self) -> None:
        """Cancel all pending arrival events (running jobs still depart)."""
        for event in self._next_arrival.values():
            event.cancel()
        self._next_arrival.clear()

    def _schedule_next_arrival(
        self, engine: SimulationEngine, cluster: Cluster, node: Node
    ) -> None:
        gap = float(self._rng.exponential(1.0 / self.config.jobs_per_node_per_s))
        self._next_arrival[node.name] = engine.schedule(
            gap,
            lambda: self._on_arrival(engine, cluster, node),
            label=f"batch-arrival@{node.name}",
        )

    def _on_arrival(
        self, engine: SimulationEngine, cluster: Cluster, node: Node
    ) -> None:
        self.arrived += 1
        job = self.sample_job(engine.now)
        jobs_here = self.active_jobs[node.name]
        if len(jobs_here) >= self.config.max_batch_jobs_per_node:
            self.dropped += 1
        else:
            try:
                cluster.place(job, node, MachineKind.BATCH)
            except CapacityError:
                self.dropped += 1
            else:
                jobs_here.append(job)
                engine.schedule(
                    job.duration,
                    lambda: self._on_departure(cluster, node, job),
                    label=f"batch-departure@{node.name}",
                )
        self._schedule_next_arrival(engine, cluster, node)

    def _on_departure(self, cluster: Cluster, node: Node, job: BatchJob) -> None:
        cluster.remove(job)
        self.active_jobs[node.name].remove(job)
        self.completed += 1
