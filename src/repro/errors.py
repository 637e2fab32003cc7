"""Exception hierarchy for the PCS reproduction.

Every error raised by this package derives from :class:`ReproError`, so a
downstream caller can catch the whole family with one ``except`` clause.
Subclasses are grouped by the subsystem that raises them; modules should
raise the most specific class that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value or combination of values."""


class SimulationError(ReproError):
    """A violation of the discrete-event simulation contract.

    Raised, e.g., when an event is scheduled in the past or the engine is
    driven after it has been stopped.
    """


class TopologyError(ReproError, ValueError):
    """An invalid service topology (empty stages, duplicate components...)."""


class PlacementError(ReproError):
    """An invalid component/job placement request on the cluster."""


class CapacityError(PlacementError):
    """A placement that would exceed a node's machine slots."""


class ModelError(ReproError):
    """A performance-model failure (untrained model, singular fit...)."""


class NotFittedError(ModelError):
    """A regression model was used before :meth:`fit` was called."""


class UnstableQueueError(ModelError, ValueError):
    """A queueing computation was requested for utilisation >= 1.

    The M/G/1 expected-latency formula (paper Eq. 2) diverges as the
    server utilisation ``rho`` approaches 1; callers that can tolerate
    saturation should clip the arrival rate instead of catching this.
    """


class SchedulingError(ReproError):
    """An error inside the component-level scheduling algorithm."""


class MonitoringError(ReproError):
    """An error in the online monitor (e.g. empty sampling window)."""


class EstimatorError(ReproError):
    """A misuse of the streaming latency-estimator layer.

    Raised by :mod:`repro.sim.estimators` when an accumulator is asked
    for something its mode cannot honestly provide — e.g. merging P²
    marker states (which are not mergeable) or summarising an empty
    stream.
    """


class WorkloadError(ReproError, ValueError):
    """An invalid batch-workload specification."""


class ExperimentError(ReproError):
    """A failure while driving one of the paper's experiments."""


class ControlPlaneError(ExperimentError):
    """An error in the control-plane loop or the live service mode.

    Raised by :mod:`repro.controlplane` for contract violations the
    caller must see: driving a window whose clock cannot reach it, a
    live-mode sweep request naming an unknown scenario or policy, or a
    control-surface shutdown race.  Derives from
    :class:`ExperimentError` because the control loop *is* the
    experiment loop — existing ``except ExperimentError`` call sites
    keep working.
    """


class WorkerTaskError(ExperimentError):
    """A task shipped to an execution backend raised inside its worker.

    Carries the zero-based ``index`` of the failing task so the caller
    can map it back to the submitted item.  Picklable across process
    boundaries (spawn process workers raise it remotely), which is
    why the original exception survives only as text in the message —
    ``__cause__`` does not cross a pickle.
    """

    def __init__(self, message: str, index=None) -> None:
        super().__init__(message)
        #: Zero-based index of the failing task in the submitted batch.
        self.index = index

    def __reduce__(self):
        # Default exception pickling replays ``args`` only; preserve
        # ``index`` so a remote (spawn-worker) failure keeps its
        # coordinates after the round-trip.
        return (type(self), (self.args[0], self.index))


class SpoolError(ExperimentError):
    """An error in the distributed sweep spool (job/claim/result protocol).

    Raised by :mod:`repro.sim.distributed` for protocol violations the
    caller must see: a spool directory written under a different schema
    version, an undecodable job/result payload, or a coordinator that
    waited past its deadline for live workers.  Transient races (a job
    claimed by a faster worker, a result file not yet visible) are part
    of normal operation and never raise.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        #: Filesystem path of the offending spool file, when known.
        self.path = path


class SweepExecutionError(ExperimentError):
    """A sweep point's evaluation failed.

    Raised by :meth:`~repro.sim.sweep.ParallelSweepRunner.run` instead
    of the worker's raw exception so the failing grid cell is named;
    the coordinates ride along as attributes.  Points that finished
    before the failure stay cached — rerunning after a fix resumes
    instead of recomputing.
    """

    def __init__(
        self, message: str, policy=None, arrival_rate=None, seed=None
    ) -> None:
        super().__init__(message)
        #: Legend name of the failing point's policy, when known.
        self.policy = policy
        #: Arrival rate (req/s) of the failing point, when known.
        self.arrival_rate = arrival_rate
        #: Root seed of the failing point, when known.
        self.seed = seed


class SweepLookupError(ExperimentError, KeyError):
    """A :meth:`~repro.sim.sweep.SweepResult.get` lookup missed.

    The message lists the grid's available policy/rate/seed coordinates
    so a typo is visible without dumping the whole result object.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


class SweepCacheError(ExperimentError):
    """An error in the on-disk sweep cache / provenance layer."""

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        #: Filesystem path of the offending cache file, when known.
        self.path = path


class CacheCorruptionError(SweepCacheError):
    """A cache file holds truncated or garbage content.

    Raised instead of a bare :class:`json.JSONDecodeError` so the
    message (and the ``path`` attribute) identify the offending file.
    A half-written file cannot be produced by an interrupted sweep —
    point files are written atomically — so corruption indicates real
    external damage and is never silently recomputed over.
    """


class StaleManifestError(SweepCacheError):
    """A ``manifest.json`` was written under a different schema version."""
