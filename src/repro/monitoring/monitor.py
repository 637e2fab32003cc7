"""The online contention monitor.

Reads each component's ground-truth contention from the cluster and
reports it with relative measurement noise, at the paper's two cadences
(§VI-A: system-level counters once per second via /proc, micro-
architectural counters once per minute via Perf/Oprofile).

A reading covers one scheduling interval: ``observe_window`` (one
component's contention) and ``observe_node_window`` (a node's total
resource use) return the average of the samples the two cadences would
collect over ``duration_s``, drawn in one step instead of sample by
sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.errors import MonitoringError
from repro.service.component import Component

__all__ = ["MonitorConfig", "OnlineMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """Cadences and noise levels of the monitor.

    Noise values are relative standard deviations of unbiased Gaussian
    multiplicative noise (a 0.03 core noise means a true 50 % core usage
    is reported as N(0.50, 0.015²), floored at zero).
    """

    system_period_s: float = 1.0
    micro_period_s: float = 60.0
    core_noise: float = 0.03
    bw_noise: float = 0.05
    cache_noise: float = 0.08

    def __post_init__(self) -> None:
        if self.system_period_s <= 0 or self.micro_period_s <= 0:
            raise MonitoringError("monitor periods must be positive")
        if self.micro_period_s < self.system_period_s:
            raise MonitoringError(
                "micro-architectural sampling must not be faster than "
                "system-level sampling"
            )
        for name in ("core_noise", "bw_noise", "cache_noise"):
            if getattr(self, name) < 0:
                raise MonitoringError(f"{name} must be >= 0")


class OnlineMonitor:
    """Windowed contention readings with realistic sampling noise."""

    def __init__(
        self, config: MonitorConfig, cluster: Cluster, rng: np.random.Generator
    ) -> None:
        self.config = config
        self.cluster = cluster
        self._rng = rng

    def _windowed(
        self, truth: ResourceVector, duration_s: float
    ) -> ResourceVector:
        """Average of the readings one ``duration_s`` window would collect.

        ``duration_s / system_period_s`` system samples and
        ``duration_s / micro_period_s`` micro samples — i.e. the
        variance reduction a real interval of monitoring provides,
        without drawing every sample.
        """
        if duration_s <= 0:
            raise MonitoringError(f"duration must be positive, got {duration_s}")
        cfg = self.config
        n_sys = max(1, int(duration_s / cfg.system_period_s))
        n_micro = max(1, int(duration_s / cfg.micro_period_s))
        scaled_sigmas = np.array(
            [
                cfg.core_noise / np.sqrt(n_sys),
                cfg.cache_noise / np.sqrt(n_micro),
                cfg.bw_noise / np.sqrt(n_sys),
                cfg.bw_noise / np.sqrt(n_sys),
            ]
        )
        noisy = truth.as_array() * (
            1.0 + scaled_sigmas * self._rng.standard_normal(4)
        )
        return ResourceVector._of(np.maximum(noisy, 0.0))

    def observe_window(
        self, component: Component, duration_s: float
    ) -> ResourceVector:
        """Windowed noisy estimate of one component's contention."""
        truth = self.cluster.contention_for(component)
        return self._windowed(truth, duration_s)

    def observe_node_window(self, node, duration_s: float) -> ResourceVector:
        """Windowed noisy estimate of a node's *total* resource use.

        The node view the performance matrix needs (Table III's
        ``U_nj``): all residents plus background, before capacity
        clipping.
        """
        return self._windowed(node.total_demand(), duration_s)
