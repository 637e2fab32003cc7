"""The PCS control plane: an explicit monitor→predict→decide→act loop.

The paper's scheduler is an *online* control loop; this package is
that loop as a first-class architecture, with the batch replay and the
live ``repro serve`` mode as two drivers of the same body.

The four phases (:mod:`repro.controlplane.phases`)
--------------------------------------------------
``MonitorPhase``
    reads the world: the noisy two-cadence contention windows of
    :mod:`repro.monitoring.monitor` (node windows drawn in cluster
    order — the bit-pinned RNG sequence), handed on as a frozen
    snapshot, and — live only — :mod:`repro.monitoring.streaming`
    incremental latency gauges over a rolling window.
``PredictPhase``
    turns a monitor snapshot into Algorithm 1's
    :class:`~repro.model.matrix.MatrixInputs`, and owns the Eq. 1
    predictor's rolling retrain/refresh seam
    (:mod:`repro.model.training`) for long-running sessions.
``DecidePhase``
    runs the scheduling policy — PCS / hierarchical / threshold
    policies from :mod:`repro.scheduler` — and counts decisions.
``ActuatePhase``
    enforces the decided migrations through
    :mod:`repro.scheduler.migration`'s executor and reports the
    warm-up set.

Layer boundaries
----------------
The control plane sits *above* :mod:`repro.sim.runner`: it imports the
runner (for the simulator seam and service-distribution helper), never
the reverse at import time — the runner reaches up only through a lazy
import inside ``ExperimentRunner.control_loop``.  Phases never touch
the event engine; time belongs to the :class:`Clock` seam
(:mod:`repro.controlplane.clock`): :class:`VirtualClock` replays the
seeded engine deterministically (the existing batch path,
bit-identical on ``metrics_dict()``), :class:`WallClock` paces the
same seeded world against real time.  The HTTP surface
(:mod:`repro.controlplane.http`) speaks only to the service layer
(:mod:`repro.controlplane.service`), never to phases directly.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Clock": "clock",
        "VirtualClock": "clock",
        "WallClock": "clock",
        "ControlLoop": "loop",
        "MonitorSnapshot": "phases",
        "MonitorPhase": "phases",
        "PredictPhase": "phases",
        "DecidePhase": "phases",
        "ActuatePhase": "phases",
    },
)
