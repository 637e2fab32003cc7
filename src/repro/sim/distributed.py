"""Distributed sweep execution over a shared spool directory.

:class:`DistributedBackend` is the third implementation of the
:class:`~repro.sim.backends.ExecutionBackend` seam: instead of inline
or on spawned local processes, sweep points run on **worker processes
that may live on other hosts**, coordinated through nothing but a
shared filesystem (NFS mount, bind-mounted volume, or a local
directory for same-host workers).  No broker, no sockets — every
protocol step is an atomic filesystem operation, the same primitive
:class:`~repro.sim.sweep.SweepCache` already builds on.

Spool layout (``SPOOL_SCHEMA_VERSION`` = 2)
-------------------------------------------
::

    <spool>/spool.json        # schema stamp; version-checked on open
    <spool>/jobs/<id>.json    # dispatched, unclaimed job files
    <spool>/claims/<id>.json  # claimed jobs: payload + claim block
    <spool>/results/<id>.json # completed jobs: a result or an error
    <spool>/workers/<host>-<pid>.json   # worker presence + heartbeat
    <spool>/stop              # sentinel: workers drain and exit

A *job* carries one sweep point (``task``), serialised with the same
:func:`~repro.sim.sweep._canonical` encoding the cache keys use, and
its result file carries that point's result — schema-versioned JSON,
written via temp-file + ``os.replace`` so a reader never sees a
half-written file.  Version 1 spools shipped chunks of points
(``tasks``); each side refuses the other's stamp.

Claim protocol
--------------
Workers claim a job by **renaming** ``jobs/<id>.json`` to
``claims/<id>.json``.  ``os.rename`` is atomic: exactly one claimant
wins, every loser gets ``FileNotFoundError`` and moves on.  The winner
rewrites the claim file with a claim block (pid, host, timestamps) and
refreshes its ``heartbeat`` field from a daemon thread while the job
computes.  A claim is **stale** when its worker is provably dead (same
host, pid gone) or its heartbeat is older than the lease
(:data:`DEFAULT_LEASE_S`); the coordinator reclaims stale claims by
atomically re-writing the job file and dropping the claim — so a
SIGKILL'd worker costs at most one lease interval, not the sweep.  A
worker that was merely paused past its lease may still finish; the
duplicate execution is harmless because every task is deterministic
and result writes are atomic and idempotent (last writer rewrites
identical bytes).

Determinism and failure contract
--------------------------------
Workers run the exact :func:`~repro.sim.sweep._execute_task` the other
backends run — per-point :class:`~repro.rng.RngRegistry` seeding, the
per-process predictor memo — and results round-trip through the same
exact-float JSON the cache uses, so a distributed sweep is
**bit-identical** to serial on every ``metrics_dict()`` field.  A task
that raises in a worker comes back as an error result; the coordinator
yields every success already on disk, deletes the run's unclaimed job
files (:meth:`SweepSpool.cancel_run`), and raises
:class:`~repro.errors.WorkerTaskError` with the failing index — the
same contract as every other backend, so
:class:`~repro.sim.sweep.ParallelSweepRunner` resumes from cached
peers unchanged.  ``SweepCache`` writes stay coordinator-side only:
workers touch nothing but the spool.

Workers are started with ``python -m repro worker SPOOL`` on each host
and drained with ``python -m repro worker SPOOL --stop``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SpoolError, WorkerTaskError
from repro.sim.backends import ExecutionBackend
from repro.sim.runner import PolicyResult
from repro.sim.sweep import (
    _atomic_write_json,
    _canonical,
    _execute_task,
    _pid_alive,
    _reap_temp_files,
)

__all__ = [
    "DistributedBackend",
    "SweepSpool",
    "run_worker",
    "register_codec_class",
    "encode_task",
    "decode_task",
    "SPOOL_SCHEMA_VERSION",
    "DEFAULT_LEASE_S",
]

#: Bump when the spool layout or job/result payload schema changes; a
#: spool stamped with a different version refuses to open (never a
#: silent cross-version misread).  Version 2: one point per job.
SPOOL_SCHEMA_VERSION = 2

#: Seconds without a heartbeat after which a claim (or a worker
#: presence file) is considered abandoned and may be reclaimed.
DEFAULT_LEASE_S = 30.0

#: The spool's metadata stamp filename.
SPOOL_META_NAME = "spool.json"

#: The drain-and-exit sentinel filename.
STOP_NAME = "stop"


# ----------------------------------------------------------------------
# task codec: _canonical trees back into frozen dataclasses
# ----------------------------------------------------------------------
#: Class registry for decoding ``{"__class__": name, ...}`` trees.
#: Populated below with every dataclass a (config, policy) task can
#: contain; tests (or downstream policy packages) extend it via
#: :func:`register_codec_class`.
_CODEC_CLASSES: Dict[str, type] = {}


def register_codec_class(cls: type) -> type:
    """Register a dataclass for spool-task decoding; returns ``cls``.

    The encoder (:func:`~repro.sim.sweep._canonical`) stamps each
    dataclass with its class *name*; decoding needs the name → class
    map.  Built-in config and policy classes are pre-registered; a
    custom :class:`~repro.baselines.policies.Policy` subclass swept
    over the spool must be registered in the **worker's** process too
    (workers re-import only :mod:`repro` modules).
    """
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise ConfigurationError(
            f"codec classes must be dataclasses, got {cls!r}"
        )
    _CODEC_CLASSES[cls.__name__] = cls
    return cls


def _register_builtin_codec_classes() -> None:
    """Everything a built-in (config, policy) task tree can contain."""
    from repro.baselines.policies import (
        AdaptiveHedgePolicy,
        AdaptiveReissuePolicy,
        BasicPolicy,
        HedgedPolicy,
        PCSPolicy,
        Policy,
        REDPolicy,
        ReissuePolicy,
    )
    from repro.monitoring.monitor import MonitorConfig
    from repro.scheduler.migration import MigrationCostModel
    from repro.scheduler.pcs import SchedulerConfig
    from repro.scheduler.threshold import AdaptiveThreshold, StaticThreshold
    from repro.service.nutch import NutchConfig
    from repro.sim.profiling import ProfilingConfig
    from repro.sim.runner import RunnerConfig
    from repro.workloads.generator import GeneratorConfig

    for cls in (
        RunnerConfig,
        NutchConfig,
        GeneratorConfig,
        MonitorConfig,
        ProfilingConfig,
        MigrationCostModel,
        SchedulerConfig,
        StaticThreshold,
        AdaptiveThreshold,
        Policy,
        BasicPolicy,
        REDPolicy,
        ReissuePolicy,
        HedgedPolicy,
        AdaptiveReissuePolicy,
        AdaptiveHedgePolicy,
        PCSPolicy,
    ):
        register_codec_class(cls)


def _decode_canonical(obj, *, where: str):
    """Inverse of :func:`~repro.sim.sweep._canonical`.

    JSON lists become tuples (every sequence field in the frozen
    configs is a tuple; ``_canonical`` flattened them to lists), plain
    dicts stay dicts (e.g. ``GeneratorConfig.mix``), and
    ``{"__class__": ...}`` nodes rebuild the registered dataclass from
    its init fields — re-running ``__post_init__`` validation, so a
    tampered payload fails loudly instead of simulating garbage.
    """
    if isinstance(obj, list):
        return tuple(_decode_canonical(x, where=where) for x in obj)
    if isinstance(obj, dict):
        if "__class__" not in obj:
            return {
                k: _decode_canonical(v, where=where) for k, v in obj.items()
            }
        name = obj["__class__"]
        cls = _CODEC_CLASSES.get(name)
        if cls is None:
            raise SpoolError(
                f"{where}: unknown task class {name!r} — the worker does "
                "not have it registered (see register_codec_class); "
                f"registered: {', '.join(sorted(_CODEC_CLASSES))}"
            )
        kwargs = {
            f.name: _decode_canonical(obj[f.name], where=where)
            for f in dataclasses.fields(cls)
            if f.init and f.name in obj
        }
        try:
            return cls(**kwargs)
        except Exception as exc:
            raise SpoolError(
                f"{where}: cannot rebuild {name} from job payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    return obj


def encode_task(index: int, task: tuple) -> dict:
    """One ``(config, policy)`` task as a JSON-able job entry."""
    config, policy = task
    return {
        "index": int(index),
        "config": _canonical(config),
        "policy": _canonical(policy),
    }


def decode_task(entry: dict, *, where: str = "spool job") -> tuple:
    """Inverse of :func:`encode_task`: ``(config, policy)``."""
    try:
        config_tree = entry["config"]
        policy_tree = entry["policy"]
    except (KeyError, TypeError) as exc:
        raise SpoolError(
            f"{where}: task entry is missing its config/policy payload"
        ) from exc
    return (
        _decode_canonical(config_tree, where=where),
        _decode_canonical(policy_tree, where=where),
    )


# ----------------------------------------------------------------------
# the spool: every protocol step is one atomic filesystem operation
# ----------------------------------------------------------------------
def _hostname() -> str:
    return socket.gethostname() or "unknown-host"


def _new_run_id() -> str:
    """Coordinator-unique token prefixed onto this run's job ids."""
    return uuid.uuid4().hex[:12]


def _local_pid(record: dict) -> Optional[int]:
    """The record's pid when it was written on this host, else ``None``."""
    pid = record.get("pid")
    if record.get("host") == _hostname() and isinstance(pid, int):
        return pid
    return None


def _heartbeat_expired(record: dict, now: float, lease_s: float) -> bool:
    heartbeat = record.get("heartbeat")
    return not isinstance(heartbeat, (int, float)) or now - heartbeat > lease_s


def _claim_is_stale(claim: dict, now: float, lease_s: float) -> bool:
    """A claim is stale when its worker is provably dead (same host,
    pid gone) or its heartbeat is missing or older than the lease."""
    pid = _local_pid(claim)
    dead = pid is not None and not _pid_alive(pid)
    return dead or _heartbeat_expired(claim, now, lease_s)


def _claim_of(path: Path, payload: dict) -> dict:
    """A claim file's claim block.

    Between the claiming rename and the write of the block, the file
    has none; its mtime, which :meth:`SweepSpool.claim` stamps just
    before the rename, stands in as the heartbeat, so a live claimer is
    not reclaimed inside that window.
    """
    claim = payload.get("claim")
    if claim:
        return claim
    try:
        return {"heartbeat": path.stat().st_mtime}
    except FileNotFoundError:  # released or re-dispatched meanwhile
        return {"heartbeat": time.time()}


def _worker_is_alive(info: dict, now: float, lease_s: float) -> bool:
    """Same-host workers are checked by pid (exact); remote ones by
    heartbeat freshness against the lease."""
    pid = _local_pid(info)
    if pid is not None:
        return _pid_alive(pid)
    return not _heartbeat_expired(info, now, lease_s)


class SweepSpool:
    """Filesystem job queue shared by one coordinator and N workers.

    All methods are safe under concurrent use from any number of
    processes on any number of hosts sharing the directory: writes go
    through temp-file + ``os.replace``, claims through ``os.rename``
    (first renamer wins), and reads treat a missing file as the
    ordinary *someone was faster* case.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"

    @property
    def meta_path(self) -> Path:
        return self.root / SPOOL_META_NAME

    @property
    def stop_path(self) -> Path:
        return self.root / STOP_NAME

    def _dirs(self) -> Tuple[Path, ...]:
        return (
            self.root,
            self.jobs_dir,
            self.claims_dir,
            self.results_dir,
            self.workers_dir,
        )

    def ensure(self) -> "SweepSpool":
        """Create the layout (idempotent) and check the schema stamp."""
        for d in self._dirs():
            d.mkdir(parents=True, exist_ok=True)
        meta = self._read_json(self.meta_path)
        if meta is None:
            # Concurrent first-ensures both write the stamp; the temp
            # names are collision-free, so last-writer-wins with
            # identical schema content.
            _atomic_write_json(
                self.meta_path,
                {"schema_version": SPOOL_SCHEMA_VERSION, "created": time.time()},
            )
        elif meta.get("schema_version") != SPOOL_SCHEMA_VERSION:
            raise SpoolError(
                f"{self.meta_path} was written under spool schema "
                f"{meta.get('schema_version')!r}; this build speaks "
                f"{SPOOL_SCHEMA_VERSION} — use a fresh spool directory",
                path=self.meta_path,
            )
        return self

    # -- low-level IO ---------------------------------------------------
    @staticmethod
    def _read_json(path: Path) -> Optional[dict]:
        """Parse one spool file; gone → ``None``; partial reads cannot
        happen (writes are atomic), so garbage is a real protocol error."""
        try:
            with path.open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpoolError(
                f"spool file {path} is not valid JSON "
                f"({type(exc).__name__}: {exc}); the spool directory must "
                "be on a filesystem with atomic rename",
                path=path,
            ) from exc

    def _scan(
        self, directory: Path, pattern: str = "*.json"
    ) -> Iterator[Tuple[Path, dict]]:
        """``(path, payload)`` for every readable file in ``directory``.

        A file that vanished, or a mid-replace blip on a non-atomic
        filesystem, is skipped; the next pass sees it again.
        """
        for path in directory.glob(pattern):
            try:
                payload = self._read_json(path)
            except SpoolError:
                continue
            if payload is not None:
                yield path, payload

    # -- coordinator side -----------------------------------------------
    def submit_job(self, job_id: str, run_id: str, task: dict) -> Path:
        """Dispatch one job (one encoded task) for claiming."""
        path = self.jobs_dir / f"{job_id}.json"
        _atomic_write_json(
            path,
            {
                "schema_version": SPOOL_SCHEMA_VERSION,
                "run_id": run_id,
                "job_id": job_id,
                "task": task,
            },
        )
        return path

    def read_result(self, job_id: str) -> Optional[dict]:
        """The completed result payload for ``job_id``, or ``None``."""
        return self._read_json(self.results_dir / f"{job_id}.json")

    def consume_result(self, job_id: str) -> None:
        (self.results_dir / f"{job_id}.json").unlink(missing_ok=True)

    def reclaim_stale(self, run_id: str, lease_s: float) -> int:
        """Re-dispatch this run's jobs whose claim is stale.

        Re-dispatch order (job file first, claim unlink second) is
        crash-safe: dying between the two leaves a job file *and* a
        stale claim, and the next reclaim pass simply drops the claim.
        Returns how many claims were reclaimed.
        """
        reclaimed = 0
        now = time.time()
        for path, payload in self._scan(self.claims_dir, f"{run_id}-*.json"):
            if not _claim_is_stale(_claim_of(path, payload), now, lease_s):
                continue
            job_id = payload.get("job_id") or path.stem
            if (self.results_dir / f"{job_id}.json").exists():
                path.unlink(missing_ok=True)  # finished before it died
                continue
            job = {k: v for k, v in payload.items() if k != "claim"}
            _atomic_write_json(self.jobs_dir / f"{job_id}.json", job)
            path.unlink(missing_ok=True)
            reclaimed += 1
        return reclaimed

    def cancel_run(self, run_id: str) -> None:
        """Withdraw a run: unclaimed jobs and already-present results.

        Claimed jobs cannot be revoked mid-compute; their (discarded)
        results land later and are reaped by
        :meth:`~repro.sim.sweep.SweepCache.gc` or the next
        coordinator's :meth:`cancel_run`.
        """
        for d in (self.jobs_dir, self.results_dir):
            for path in d.glob(f"{run_id}-*.json"):
                path.unlink(missing_ok=True)

    # -- worker side ----------------------------------------------------
    def pending_jobs(self) -> List[str]:
        """Claimable job ids, oldest submission order first."""
        return sorted(p.stem for p in self.jobs_dir.glob("*.json"))

    def claim(self, job_id: str) -> Optional[dict]:
        """Atomically claim one job; ``None`` when someone else won.

        The claim *is* the rename — after it, no other worker can
        claim the job.  The claim block (pid/host/heartbeat) is written
        in a second, non-racing step.  Until it lands, the file's mtime,
        stamped just before the rename (which keeps it), is the claim's
        heartbeat: a crash between the two leaves a claim with no block,
        which is reclaimed once the lease runs out.
        """
        src = self.jobs_dir / f"{job_id}.json"
        dst = self.claims_dir / f"{job_id}.json"
        try:
            os.utime(src)
            os.rename(src, dst)
        except FileNotFoundError:
            return None
        payload = self._read_json(dst)
        if payload is None:  # pragma: no cover - gc'd from under us
            return None
        now = time.time()
        payload["claim"] = {
            "pid": os.getpid(),
            "host": _hostname(),
            "claimed_at": now,
            "heartbeat": now,
        }
        _atomic_write_json(dst, payload)
        return payload

    def refresh_claim(self, payload: dict) -> None:
        """Heartbeat: atomically rewrite the claim with a fresh stamp."""
        payload["claim"]["heartbeat"] = time.time()
        _atomic_write_json(
            self.claims_dir / f"{payload['job_id']}.json", payload
        )

    def release_claim(self, job_id: str) -> None:
        (self.claims_dir / f"{job_id}.json").unlink(missing_ok=True)

    def write_result(self, job_id: str, payload: dict) -> None:
        """Publish one job's result payload (``status`` ``ok`` with a
        ``result``, or ``error`` with an ``error`` message)."""
        _atomic_write_json(self.results_dir / f"{job_id}.json", payload)

    # -- worker presence -------------------------------------------------
    def worker_path(self) -> Path:
        return self.workers_dir / f"{_hostname()}-{os.getpid()}.json"

    def register_worker(self) -> Path:
        path = self.worker_path()
        now = time.time()
        _atomic_write_json(
            path,
            {
                "pid": os.getpid(),
                "host": _hostname(),
                "started": now,
                "heartbeat": now,
            },
        )
        return path

    def touch_worker(self) -> None:
        self.register_worker()

    def unregister_worker(self) -> None:
        self.worker_path().unlink(missing_ok=True)

    def live_workers(self, lease_s: float = DEFAULT_LEASE_S) -> int:
        """How many registered workers are currently believed alive."""
        now = time.time()
        return sum(
            _worker_is_alive(info, now, lease_s)
            for _, info in self._scan(self.workers_dir)
        )

    # -- hygiene ---------------------------------------------------------
    def gc(self, lease_s: float = DEFAULT_LEASE_S) -> List[Path]:
        """Reap abandoned spool artifacts; returns the removed paths.

        Removes stale claim files, presence files of dead workers, and
        ``*.tmp-<pid>`` files abandoned by dead writers (the reaper
        :meth:`~repro.sim.sweep.SweepCache.gc` uses too; its ``spool=``
        argument delegates here).  Run it on idle spools: an *active*
        coordinator re-dispatches its own stale claims, and gc'ing a
        claim out from under it orphans that job until the
        coordinator's no-worker watchdog fires.
        """
        now = time.time()
        removed = [
            path
            for path, payload in self._scan(self.claims_dir)
            if _claim_is_stale(_claim_of(path, payload), now, lease_s)
        ] + [
            path
            for path, info in self._scan(self.workers_dir)
            if not _worker_is_alive(info, now, lease_s)
        ]
        for path in removed:
            path.unlink(missing_ok=True)
        return removed + _reap_temp_files(*self._dirs())

    # -- stop sentinel ---------------------------------------------------
    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def request_stop(self) -> None:
        """Write the stop sentinel: workers finish their job and exit."""
        self.stop_path.touch()

    def clear_stop(self) -> None:
        """Remove the stop sentinel so new workers can be started."""
        self.stop_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# worker loop (python -m repro worker SPOOL)
# ----------------------------------------------------------------------
def _execute_job(
    spool: SweepSpool, payload: dict, lease_s: float
) -> None:
    """Run one claimed job's point and write its result file.

    The claim heartbeat is refreshed from a daemon thread while the
    point computes, so a long point does not look abandoned.
    """
    job_id = payload["job_id"]
    done = threading.Event()
    interval = max(0.05, min(lease_s / 4.0, 5.0))

    def _beat() -> None:
        while not done.wait(interval):
            spool.refresh_claim(payload)
            spool.touch_worker()

    beater = threading.Thread(
        target=_beat, name=f"spool-heartbeat-{job_id}", daemon=True
    )
    beater.start()
    out: dict = {
        "schema_version": SPOOL_SCHEMA_VERSION,
        "run_id": payload.get("run_id"),
        "job_id": job_id,
        "worker": {"pid": os.getpid(), "host": _hostname()},
    }
    try:
        task = decode_task(payload.get("task"), where=f"job {job_id}")
        out["result"] = _execute_task(task).to_dict()
        out["status"] = "ok"
    except Exception as exc:
        out["status"] = "error"
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        done.set()
        beater.join()
    spool.write_result(job_id, out)
    spool.release_claim(job_id)


def run_worker(
    spool: Union[str, Path, SweepSpool],
    poll_interval_s: float = 0.2,
    lease_s: float = DEFAULT_LEASE_S,
    stop_when_idle: bool = False,
) -> int:
    """Pull-and-execute loop: the body of ``python -m repro worker``.

    Claims pending jobs oldest-first, executes them with the shared
    per-process predictor memo (many jobs sharing a profiling
    signature train once per worker), and loops until the spool's
    ``stop`` sentinel appears or — with ``stop_when_idle`` — the queue
    drains.  Returns the number of jobs executed.
    """
    if poll_interval_s <= 0:
        raise ConfigurationError(
            f"poll_interval_s must be positive, got {poll_interval_s}"
        )
    if lease_s <= 0:
        raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
    spool = (
        spool if isinstance(spool, SweepSpool) else SweepSpool(spool)
    ).ensure()
    spool.register_worker()
    executed = 0
    last_presence = time.monotonic()
    try:
        while not spool.stop_requested():
            claimed = None
            for job_id in spool.pending_jobs():
                claimed = spool.claim(job_id)
                if claimed is not None:
                    break
            if claimed is None:
                if stop_when_idle:
                    break
                if time.monotonic() - last_presence > lease_s / 4.0:
                    spool.touch_worker()
                    last_presence = time.monotonic()
                time.sleep(poll_interval_s)
                continue
            _execute_job(spool, claimed, lease_s)
            executed += 1
    finally:
        spool.unregister_worker()
    return executed


# ----------------------------------------------------------------------
# the coordinator-side backend
# ----------------------------------------------------------------------
class DistributedBackend(ExecutionBackend):
    """Sweep execution over spool workers, one point per job (see the
    module docstring).

    Parameters
    ----------
    spool:
        The shared spool directory (created if missing).
    wait_workers:
        Block until this many live workers are registered before
        dispatching (0 = dispatch immediately).  Waiting longer than
        ``wait_timeout_s`` raises :class:`~repro.errors.SpoolError` —
        better than queueing a sweep nobody will run.
    lease_s:
        Heartbeat lease; a claim silent for longer is reclaimed.
    poll_interval_s:
        Coordinator/result-tail poll cadence.
    wait_timeout_s:
        Also the no-live-worker watchdog while tailing: with zero live
        workers and no progress for this long, the coordinator raises
        instead of waiting forever.
    """

    name = "distributed"

    def __init__(
        self,
        spool: Union[str, Path, SweepSpool],
        wait_workers: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        poll_interval_s: float = 0.1,
        wait_timeout_s: float = 120.0,
    ) -> None:
        if wait_workers < 0:
            raise ConfigurationError(
                f"wait_workers must be >= 0, got {wait_workers}"
            )
        if lease_s <= 0 or poll_interval_s <= 0 or wait_timeout_s <= 0:
            raise ConfigurationError(
                "lease_s, poll_interval_s and wait_timeout_s must be positive"
            )
        self.spool = (
            spool if isinstance(spool, SweepSpool) else SweepSpool(spool)
        )
        self.wait_workers = wait_workers
        self.lease_s = lease_s
        self.poll_interval_s = poll_interval_s
        self.wait_timeout_s = wait_timeout_s
        #: Stale claims reclaimed during the last run (observability).
        self.reclaimed = 0

    def __repr__(self) -> str:
        return f"DistributedBackend(spool={str(self.spool.root)!r})"

    def _wait_for_workers(self) -> None:
        deadline = time.monotonic() + self.wait_timeout_s
        while self.spool.live_workers(self.lease_s) < self.wait_workers:
            if time.monotonic() >= deadline:
                raise SpoolError(
                    f"waited {self.wait_timeout_s:g}s for "
                    f"{self.wait_workers} live worker(s) on spool "
                    f"{self.spool.root}, found "
                    f"{self.spool.live_workers(self.lease_s)} — start "
                    "workers with: python -m repro worker "
                    f"{self.spool.root}",
                    path=self.spool.root,
                )
            time.sleep(self.poll_interval_s)

    def imap_unordered(
        self, fn: Callable, items: Sequence
    ) -> Iterator[Tuple[int, Any]]:
        if fn is not _execute_task:
            raise ConfigurationError(
                "the distributed backend ships (config, policy) sweep "
                "tasks as JSON job files; it cannot run arbitrary "
                f"callables (got {getattr(fn, '__name__', fn)!r}) — use "
                "the serial/process backends for generic maps"
            )
        items = list(items)
        if not items:
            return
        spool = self.spool.ensure()
        if self.wait_workers:
            self._wait_for_workers()
        run_id = _new_run_id()
        self.reclaimed = 0
        # job id -> index of the point it carries
        outstanding: Dict[str, int] = {}
        for index, task in enumerate(items):
            job_id = f"{run_id}-{index:06d}"
            spool.submit_job(job_id, run_id, encode_task(index, task))
            outstanding[job_id] = index

        failure: Optional[WorkerTaskError] = None
        last_progress = time.monotonic()
        try:
            while outstanding and failure is None:
                progressed = False
                for job_id in sorted(outstanding):
                    payload = spool.read_result(job_id)
                    if payload is None:
                        continue
                    index = outstanding.pop(job_id)
                    spool.consume_result(job_id)
                    progressed = True
                    if payload.get("status") == "ok":
                        yield index, PolicyResult.from_dict(payload["result"])
                    elif failure is None:
                        # Keep scanning: successes already on disk are
                        # yielded before the failure is raised.
                        worker = payload.get("worker") or {}
                        failure = WorkerTaskError(
                            f"task {index} raised in spool worker "
                            f"{worker.get('host')}:{worker.get('pid')}: "
                            f"{payload.get('error', 'unknown error')}",
                            index=index,
                        )
                if progressed:
                    last_progress = time.monotonic()
                    continue
                reclaimed = spool.reclaim_stale(run_id, self.lease_s)
                if reclaimed:
                    self.reclaimed += reclaimed
                    last_progress = time.monotonic()
                    continue
                if (
                    spool.live_workers(self.lease_s) == 0
                    and time.monotonic() - last_progress > self.wait_timeout_s
                ):
                    raise SpoolError(
                        f"no live workers on spool {spool.root} and no "
                        f"progress for {self.wait_timeout_s:g}s "
                        f"({len(outstanding)} job(s) outstanding) — start "
                        f"workers with: python -m repro worker {spool.root}",
                        path=spool.root,
                    )
                time.sleep(self.poll_interval_s)
        finally:
            # Success leaves nothing behind; failure (or the caller
            # abandoning the generator) withdraws unclaimed jobs so
            # workers stop picking up a cancelled run.
            spool.cancel_run(run_id)
        if failure is not None:
            raise failure


_register_builtin_codec_classes()
