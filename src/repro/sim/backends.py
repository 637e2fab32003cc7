"""Execution backends: one seam, two local ways to run independent tasks.

The sweep subsystem (:mod:`repro.sim.sweep`) evaluates grids of
mutually independent points.  *How* those points execute — inline or
on spawned worker processes — is a deployment decision, not a
correctness one (every point is deterministic given its config), so it
lives behind one interface:

:class:`SerialBackend`
    Runs tasks inline, in submission order.  Zero overhead, exact
    ground truth, and every point after the first finds the predictor
    memo warm; what ``workers=1`` always meant.

:class:`ProcessBackend`
    A spawn-context :class:`~concurrent.futures.ProcessPoolExecutor`
    (spawn is fork-safety: no inherited locks or numpy state) that
    submits one task per point.  Every worker pays an interpreter start
    and the package's imports (~0.45 s) and trains its own predictor
    memo, but workers then compute in true parallel, and one-point
    tasks keep the pool load-balanced: a free worker always takes the
    next pending point.

:class:`~repro.sim.distributed.DistributedBackend`
    Sweep points run on ``python -m repro worker SPOOL`` processes on
    any host that shares a spool directory, one point per atomically
    written job file (claim-rename + heartbeat-lease protocol; see
    :mod:`repro.sim.distributed`).  A job's filesystem round trip costs
    milliseconds on a local disk, so the spool pays off for points
    expensive enough to amortise a worker's start-up (≥
    :data:`EXPENSIVE_POINT_CUTOFF_S`) and for fleets larger than the
    coordinator host.  Only sweep tasks travel (the job codec ships
    frozen configs, not pickled closures); generic maps stay on the
    local backends.

Failure contract (all backends)
-------------------------------
A task that raises does not poison its peers: the backend wraps the
exception in :class:`~repro.errors.WorkerTaskError` carrying the
task's index, cancels all not-yet-started work, and re-raises after
yielding every already-finished success — so a caller persisting
results as they arrive (the sweep cache) keeps everything that
completed before the failure.  Tasks already running when a peer
fails are allowed to finish but their results are discarded.

Choosing a backend
------------------
- ``serial`` — debugging, small grids of cheap points, cache loads,
  and anything timing-sensitive.  The points run one after another,
  but nothing is paid to start them.
- ``process`` — grids whose compute outweighs the per-worker spawn
  tax on a multi-core host: expensive points, or many cheap ones.
- ``distributed`` — expensive points and a worker fleet larger than
  the coordinator host.

:func:`auto_backend` encodes exactly that rule — **cost-aware** when
the caller supplies an expected per-point cost (``est_cost_s``): a
point expected to outlast :data:`EXPENSIVE_POINT_CUTOFF_S` routes to
processes (or to a configured spool) even on a tiny pending set,
because its own compute already amortises its worker's start-up.  Cheap or unestimated points fall
back to the pending-point count: small sets (≤
:data:`SERIAL_AUTO_THRESHOLD`) run inline, larger ones on processes.
The sweep runner estimates cost from its spec — or from measured
cached timings — and the CLI uses it unless a backend is named
explicitly.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerTaskError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKEND_NAMES",
    "SERIAL_AUTO_THRESHOLD",
    "EXPENSIVE_POINT_CUTOFF_S",
    "auto_backend",
    "backend_from_name",
    "resolve_backend",
]

#: The names :func:`backend_from_name` accepts (the CLI adds ``auto``).
#: ``distributed`` additionally needs a spool directory.
BACKEND_NAMES = ("serial", "process", "distributed")

#: Pending sets at or below this size auto-route to :class:`SerialBackend`
#: *when no cost estimate says otherwise*: a spawn worker pays an
#: interpreter start, the package's imports and a cold predictor memo,
#: which on a small grid of cheap points costs more than it saves.  On a
#: 2-vCPU x86-64 host with 2 workers, 8 quick-Fig. 6 points (16 nodes,
#: 6×30 s) ran inline in 1.12–1.34 s and on processes in 1.06–2.10 s
#: (5 runs each); 12 points ran faster on processes, 1.57–1.83 s against
#: 1.78–2.09 s inline (3 runs each).
SERIAL_AUTO_THRESHOLD = 8

#: Expected per-point cost above which ``auto`` routes to processes
#: regardless of the pending-point count, or to the spool when one is
#: configured: one such point already outlasts its worker's spawn tax,
#: and dwarfs a spool job's filesystem round trip.  The tax measured
#: 0.58–0.64 s (median 0.62 s, 6 workers, 2-vCPU x86-64 host): 0.43–0.50 s
#: from spawn to the first task, then 0.12–0.20 s training the predictor
#: for a quick-Fig. 6 point.  The cutoff stays about three times that,
#: the factor by which the spec-based point-cost estimates may be off.
EXPENSIVE_POINT_CUTOFF_S = 2.0

#: The one process start method: spawn, so workers inherit no locks
#: or numpy state from the coordinator.
_SPAWN = multiprocessing.get_context("spawn")


def _wrap_failure(index: int, exc: BaseException) -> WorkerTaskError:
    """One uniform wrapper so every backend reports failures alike."""
    return WorkerTaskError(
        f"task {index} raised {type(exc).__name__}: {exc}", index=index
    )


def _run_unit(fn: Callable, index: int, item: Any) -> Any:
    """Run one task, wrapping a failure with its index (module-level:
    spawn pickles it)."""
    try:
        return fn(item)
    except WorkerTaskError:
        raise
    except Exception as exc:
        raise _wrap_failure(index, exc) from exc


class ExecutionBackend(ABC):
    """How a batch of independent tasks runs.

    Implementations provide :meth:`imap_unordered`; :meth:`map` is
    derived.  Backends are cheap, stateless handles — each call builds
    (and tears down) its own executor, so one backend instance may be
    reused across sweeps.
    """

    #: Short name used by factories, CLIs and benchmark records.
    name: str = "?"

    @abstractmethod
    def imap_unordered(
        self, fn: Callable, items: Sequence
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, fn(item))`` pairs in completion order.

        On a task failure: every already-finished success is yielded
        first, outstanding tasks are cancelled, and a
        :class:`~repro.errors.WorkerTaskError` carrying the failing
        index is raised.
        """

    def map(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving map over ``items`` (results in input order)."""
        items = list(items)
        out = [None] * len(items)
        for index, result in self.imap_unordered(fn, items):
            out[index] = result
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Inline execution in the calling thread — the ground-truth path."""

    name = "serial"

    def imap_unordered(self, fn, items):
        for index, item in enumerate(items):
            yield index, _run_unit(fn, index, item)


class ProcessBackend(ExecutionBackend):
    """Spawn-context :class:`~concurrent.futures.ProcessPoolExecutor`
    workers, one task per item.

    ``fn`` and every item must be picklable (spawn re-imports the
    defining module in each worker).
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def imap_unordered(self, fn, items):
        items = list(items)
        if not items:
            return
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)), mp_context=_SPAWN
        ) as pool:
            index_of = {
                pool.submit(_run_unit, fn, index, item): index
                for index, item in enumerate(items)
            }
            outstanding = set(index_of)
            while outstanding:
                finished, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                failure = None
                for future in finished:
                    try:
                        result = future.result()
                    except WorkerTaskError as exc:
                        failure = failure or exc
                    except Exception as exc:  # pragma: no cover - belt
                        failure = failure or _wrap_failure(index_of[future], exc)
                    else:
                        yield index_of[future], result
                if failure is not None:
                    # Cancel everything not yet running; peers already
                    # running finish (their results are discarded) when
                    # the executor's context exits.
                    for future in outstanding:
                        future.cancel()
                    raise failure

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"


def backend_from_name(
    name: str,
    workers: int = 1,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """Build a backend from its CLI name.

    ``spool`` and ``wait_workers`` configure ``distributed`` (a spool
    is required for it) and are ignored by the local names — one CLI
    flag set covers every backend choice.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(workers)
    if name == "distributed":
        if spool is None:
            raise ConfigurationError(
                "the distributed backend needs a spool directory "
                "(--spool DIR / spool=) shared with its workers"
            )
        # Late import: distributed layers on sweep, which imports this
        # module — resolving it at call time keeps the layering acyclic.
        from repro.sim.distributed import DistributedBackend

        return DistributedBackend(spool, wait_workers=wait_workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r} "
        f"(expected one of {', '.join(BACKEND_NAMES)})"
    )


def resolve_backend(
    backend,
    workers: int,
    n_tasks: int,
    est_cost_s: float | None = None,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """Normalise a backend argument into an :class:`ExecutionBackend`.

    ``backend`` may be a ready instance (returned as-is), a name
    accepted by :func:`backend_from_name`, or ``None``/``"auto"`` for
    the :func:`auto_backend` rule (``est_cost_s`` — the expected
    per-task cost — makes that rule cost-aware; it is ignored for
    explicitly named backends).  A ``spool`` makes ``auto`` consider
    the distributed backend and is required for the explicit
    ``"distributed"`` name.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or backend == "auto":
        return auto_backend(
            workers,
            n_tasks,
            est_cost_s=est_cost_s,
            spool=spool,
            wait_workers=wait_workers,
        )
    return backend_from_name(
        backend, workers=workers, spool=spool, wait_workers=wait_workers
    )


def auto_backend(
    workers: int,
    n_tasks: int,
    est_cost_s: float | None = None,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """The default backend rule (see the module docstring's guidance).

    ``workers == 1`` or at most one task → :class:`SerialBackend`.
    Otherwise the rule is **cost-aware** when ``est_cost_s`` (expected
    per-task compute, seconds — from the sweep spec or measured cached
    timings) is given: tasks expected to outlast
    :data:`EXPENSIVE_POINT_CUTOFF_S` route to spawn processes *whatever
    the count*, since each one amortises its worker's start-up.  Cheap
    or unestimated tasks keep the count rule: small sets (≤
    :data:`SERIAL_AUTO_THRESHOLD`) inline, whose zero start-up cost
    beats spawn there; bigger sets on spawn processes.

    With a ``spool`` configured, the same expensive points route to
    the spool's worker fleet instead of local processes, one point per
    job — the fleet's core count is unbounded where the local host's
    is not.  Cheap points never travel: a job's round trip would rival
    their compute, so they keep the local rule even when a spool is
    offered.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if est_cost_s is not None and est_cost_s < 0:
        raise ConfigurationError(
            f"est_cost_s must be >= 0, got {est_cost_s}"
        )
    if spool is not None and (
        n_tasks > 1
        and est_cost_s is not None
        and est_cost_s >= EXPENSIVE_POINT_CUTOFF_S
    ):
        from repro.sim.distributed import DistributedBackend

        return DistributedBackend(spool, wait_workers=wait_workers)
    if workers == 1 or n_tasks <= 1:
        return SerialBackend()
    cheap = est_cost_s is None or est_cost_s < EXPENSIVE_POINT_CUTOFF_S
    if cheap and n_tasks <= SERIAL_AUTO_THRESHOLD:
        return SerialBackend()
    return ProcessBackend(workers)
