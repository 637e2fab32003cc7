"""Online monitors (paper §III, §VI-A "Measurement method").

The monitor is the only source of information the predictor is allowed
to use: system-level contention (core usage, disk/network bandwidth)
sampled every second, micro-architectural contention (shared-cache
MPKI) sampled every minute — the paper's Perf/Oprofile cadences — plus
the service's request arrival rate profiled from its logs.  All
samples carry configurable relative measurement noise; the predictor
therefore sees *estimates*, never the simulator's ground truth.
"""

from repro.monitoring.arrival import ArrivalRateEstimator
from repro.monitoring.monitor import MonitorConfig, OnlineMonitor
from repro.monitoring.samples import ContentionSample, SampleWindow
from repro.monitoring.streaming import P2Quantile

__all__ = [
    "ContentionSample",
    "SampleWindow",
    "MonitorConfig",
    "OnlineMonitor",
    "ArrivalRateEstimator",
    "P2Quantile",
]
