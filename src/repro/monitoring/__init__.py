"""Online monitors (paper §III, §VI-A "Measurement method").

The monitor is the only source of information the predictor is allowed
to use: system-level contention (core usage, disk/network bandwidth)
sampled every second and micro-architectural contention (shared-cache
MPKI) sampled every minute — the paper's Perf/Oprofile cadences.  All
readings carry configurable relative measurement noise; the predictor
therefore sees *estimates*, never the simulator's ground truth.  The
service's request arrival rate is profiled from its log by the control
plane's monitor phase (:class:`~repro.controlplane.phases.MonitorPhase`),
as the window's request count over its length.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "MonitorConfig": "monitor",
        "OnlineMonitor": "monitor",
        "P2Quantile": "streaming",
    },
)
