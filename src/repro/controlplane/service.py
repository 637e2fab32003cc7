"""The live service layer: ``repro serve``'s control-plane session.

:class:`LiveControlPlane` owns one open-loop PCS session — a seeded
world (scenario + policy via :class:`~repro.sim.runner.ExperimentRunner`)
paced against real time by a :class:`~repro.controlplane.clock.WallClock`
and driven window by window through a live
:class:`~repro.controlplane.loop.ControlLoop`.  The asyncio driver keeps
the event loop responsive by offloading each window's compute to a
worker thread; the HTTP surface (:mod:`repro.controlplane.http`) reads
session state only through :meth:`LiveControlPlane.status_payload` and
:meth:`LiveControlPlane.metrics_text`.

Background sweeps ride along: :class:`SweepManager` runs
:class:`~repro.sim.sweep.ParallelSweepRunner` grids in daemon threads
(POST-started, cooperatively cancelled by raising out of the progress
callback), optionally routed through the distributed spool backend.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.errors import ConfigurationError, ControlPlaneError

__all__ = [
    "ServeConfig",
    "LiveControlPlane",
    "SweepManager",
    "SweepCancelled",
]

#: How long a stopping service waits for HTTP handlers still answering
#: or closing their connections (seconds).
HANDLER_DRAIN_S = 5.0


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one live control-plane session.

    Validation mirrors :class:`~repro.sim.runner.RunnerConfig`'s window
    shape checks: a nonpositive or non-finite ``window_s`` is a *named*
    :class:`~repro.errors.ConfigurationError` at construction, never a
    deep failure inside the running service.
    """

    #: Registered scenario name the live session serves.
    scenario: str = "fanout-feed"
    #: Policy name (``policy_from_name`` grammar: Basic, RED-k, RI-p,
    #: Hedge, PCS).
    policy: str = "PCS"
    #: Mean arrival rate of the open-loop stream (req/s, sim time).
    arrival_rate: float = 40.0
    #: Monitoring/decision window length in sim seconds (the live
    #: analogue of ``RunnerConfig.interval_s``).
    window_s: float = 8.0
    seed: int = 0
    #: Arrival trace profile replayed cyclically (stationary, diurnal,
    #: burst, flash-crowd).
    trace_profile: str = "burst"
    #: Profile cycle length in windows.
    trace_cycle: int = 12
    host: str = "127.0.0.1"
    #: TCP port for the control surface; 0 binds an ephemeral port
    #: (reported via :attr:`LiveControlPlane.bound_port`).
    port: int = 0
    #: Sim seconds per wall second — >1 runs the world faster than real
    #: time (useful for CI and benchmarks).
    dilation: float = 1.0
    #: Stop after this many windows (``None`` = run until /shutdown).
    max_windows: Optional[int] = None
    #: Rolling-retrain cadence in windows (0 disables).
    retrain_every: int = 0
    #: Rolling training-set bound per component class.
    training_window: int = 256
    #: Profiling campaign size for the initial Eq. 1 fit.
    n_profiling_conditions: int = 12
    #: Per-window history bound (live memory cap).
    history_limit: int = 240
    #: Rolling latency-gauge horizon, in windows.
    gauge_horizon: int = 60
    #: Shared spool directory offered to POSTed distributed sweeps.
    spool: Optional[str] = None
    #: Scenario shape multiplier (non-Nutch scenarios).
    scale: float = 1.0
    #: Cluster size override (``None`` = scenario default).
    n_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.window_s) or self.window_s <= 0:
            raise ConfigurationError(
                f"ServeConfig.window_s must be a positive finite number "
                f"of seconds, got {self.window_s!r}"
            )
        if not math.isfinite(self.arrival_rate) or self.arrival_rate <= 0:
            raise ConfigurationError(
                f"ServeConfig.arrival_rate must be positive, "
                f"got {self.arrival_rate!r}"
            )
        if self.trace_cycle < 1:
            raise ConfigurationError(
                f"ServeConfig.trace_cycle must be >= 1, "
                f"got {self.trace_cycle!r}"
            )
        if not math.isfinite(self.dilation) or self.dilation <= 0:
            raise ConfigurationError(
                f"ServeConfig.dilation must be positive, "
                f"got {self.dilation!r}"
            )
        if self.max_windows is not None and self.max_windows < 1:
            raise ConfigurationError(
                f"ServeConfig.max_windows must be >= 1 or None, "
                f"got {self.max_windows!r}"
            )
        if self.retrain_every < 0:
            raise ConfigurationError(
                f"ServeConfig.retrain_every must be >= 0, "
                f"got {self.retrain_every!r}"
            )
        if self.history_limit < 1:
            raise ConfigurationError(
                f"ServeConfig.history_limit must be >= 1, "
                f"got {self.history_limit!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"ServeConfig.port must be in [0, 65535], got {self.port!r}"
            )


class SweepCancelled(ControlPlaneError):
    """Raised out of a sweep's progress callback to cancel it
    cooperatively (the sweep runner propagates callback exceptions)."""


@dataclass
class _SweepJob:
    """One background sweep's bookkeeping (mutated under the manager
    lock by the worker thread and the HTTP readers)."""

    id: str
    request: Dict[str, object]
    status: str = "running"
    done: int = 0
    total: int = 0
    error: Optional[str] = None
    wall_time_s: Optional[float] = None
    stop_flag: threading.Event = field(default_factory=threading.Event)
    thread: Optional[threading.Thread] = None
    #: ``PolicyResult.render()`` one-liners, filled when the grid
    #: completes.
    results: Optional[List[str]] = None

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "status": self.status,
            "done": self.done,
            "total": self.total,
            "request": self.request,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.wall_time_s is not None:
            out["wall_time_s"] = self.wall_time_s
        if self.results is not None:
            out["results"] = self.results
        return out


class SweepManager:
    """POST-driven background sweeps for the live service.

    Each started sweep builds a :class:`~repro.sim.sweep.SweepSpec`
    from a registered scenario and runs it on a daemon thread through
    :class:`~repro.sim.sweep.ParallelSweepRunner` — the exact engine the
    batch CLI uses, so results are bit-identical to an offline
    ``repro sweep`` of the same grid.  ``backend="distributed"``
    requests route through the manager's spool directory.

    Cancellation is cooperative: the stop flag is checked in the
    progress callback, whose raised :class:`SweepCancelled` the sweep
    runner propagates between points (a running point finishes first).
    """

    def __init__(self, spool: Optional[str] = None) -> None:
        self.spool = spool
        self._jobs: Dict[str, _SweepJob] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, request: Dict[str, object]) -> Dict[str, object]:
        """Validate ``request`` and launch the sweep; returns the new
        job's summary.  Raises :class:`~repro.errors.ConfigurationError`
        on a malformed request (the HTTP layer maps that to a 400)."""
        from repro.scenarios import get_scenario
        from repro.sim.sweep import (
            ParallelSweepRunner,
            SweepSpec,
            policy_from_name,
        )

        if not isinstance(request, dict):
            raise ConfigurationError(
                f"sweep request must be a JSON object, got {type(request).__name__}"
            )
        known = {
            "scenario", "policies", "rates", "seeds", "intervals",
            "warmup_intervals", "window_s", "n_nodes", "workers",
            "backend", "scale",
        }
        unknown = set(request) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep request keys {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        scenario = get_scenario(str(request.get("scenario", "nutch-search")))
        try:
            policies = tuple(
                policy_from_name(str(p))
                for p in request.get("policies", ["Basic", "PCS"])
            )
            rates = tuple(float(r) for r in request.get("rates", [40.0]))
            seeds = tuple(int(s) for s in request.get("seeds", [0]))
            intervals = int(request.get("intervals", 3))
            warmup = int(request.get("warmup_intervals", 1))
            window_s = float(request.get("window_s", 8.0))
            workers = int(request.get("workers", 1))
            scale = float(request.get("scale", 1.0))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep request: {exc}") from exc
        backend = request.get("backend")
        if backend is not None:
            backend = str(backend)
        if backend == "distributed" and self.spool is None:
            raise ConfigurationError(
                "distributed sweep requested but the service was started "
                "without --spool"
            )
        overrides: Dict[str, object] = dict(
            arrival_rate=rates[0] if rates else 40.0,
            interval_s=window_s,
            n_intervals=intervals,
            warmup_intervals=warmup,
            scale=scale,
        )
        if request.get("n_nodes") is not None:
            overrides["n_nodes"] = int(request["n_nodes"])  # type: ignore[index]
        spec = SweepSpec(
            base=scenario.runner_config(**overrides),
            policies=policies,
            arrival_rates=rates,
            seeds=seeds,
        )
        job = _SweepJob(
            id=f"sweep-{next(self._ids)}",
            request=dict(request),
            total=spec.n_points,
        )

        def progress(p) -> None:
            if job.stop_flag.is_set():
                raise SweepCancelled(f"{job.id} stopped via the control surface")
            with self._lock:
                job.done = p.done
                job.total = p.total

        runner = ParallelSweepRunner(
            spec,
            workers=workers,
            progress=progress,
            backend=backend,
            spool=self.spool if backend == "distributed" else None,
        )

        def work() -> None:
            t0 = time.perf_counter()
            try:
                result = runner.run()
            except SweepCancelled:
                with self._lock:
                    job.status = "stopped"
                    job.wall_time_s = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - surfaced via /sweeps
                with self._lock:
                    job.status = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.wall_time_s = time.perf_counter() - t0
            else:
                with self._lock:
                    job.status = "done"
                    job.done = job.total
                    job.wall_time_s = time.perf_counter() - t0
                    job.results = [
                        result.results[point].render()
                        for point in spec.points()
                    ]

        job.thread = threading.Thread(
            target=work, name=job.id, daemon=True
        )
        with self._lock:
            self._jobs[job.id] = job
        job.thread.start()
        return job.summary()

    def stop(self, job_id: str) -> Dict[str, object]:
        """Request cooperative cancellation of one sweep."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        job.stop_flag.set()
        with self._lock:
            if job.status == "running":
                job.status = "stopping"
            return job.summary()

    def stop_all(self) -> None:
        """Flag every running sweep to stop (service shutdown)."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.stop_flag.set()

    def drain(self, timeout_s: float = 30.0) -> None:
        """Join every worker thread (bounded); for clean shutdown."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            threads = [j.thread for j in self._jobs.values() if j.thread]
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Dict[str, object]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            return job.summary()

    def summary(self) -> List[Dict[str, object]]:
        with self._lock:
            return [job.summary() for job in self._jobs.values()]


class _FifoLock:
    """A mutex that a release hands to the oldest waiter.

    ``threading.Lock`` wakes a waiter on release but grants the lock to
    whichever thread asks first, so a thread that releases and soon asks
    again can take it ahead of a waiter that has been blocked all along.
    Here a release passes the lock straight to the first thread in line
    and a new request queues behind everyone already waiting.  A waiter
    whose wait raises (a signal handler's exception) leaves the line;
    if the lock had already been handed to it, it hands the lock on.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: One locked turn per waiter, oldest first; releasing a turn
        #: grants that waiter the lock.
        self._waiters: Deque[threading.Lock] = collections.deque()
        self._held = False

    def acquire(self) -> None:
        with self._mutex:
            if not self._held:
                self._held = True
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append(turn)
        try:
            turn.acquire()
        except BaseException:
            with self._mutex:
                if turn in self._waiters:
                    self._waiters.remove(turn)
                else:
                    self._hand_over()
            raise

    def release(self) -> None:
        with self._mutex:
            if not self._held:
                raise RuntimeError("release of an unlocked _FifoLock")
            self._hand_over()

    def _hand_over(self) -> None:
        # Under _mutex.  A hand-over keeps _held set: the lock passes
        # from the releaser to the waiter without ever being free.
        if self._waiters:
            self._waiters.popleft().release()
        else:
            self._held = False

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class LiveControlPlane:
    """One ``repro serve`` session: seeded world, wall clock, control
    loop, HTTP surface, background sweeps.

    The blocking parts (world setup, per-window compute) run in worker
    threads via ``asyncio.to_thread``; the event loop only paces
    windows and serves HTTP.  All cross-thread reads of loop state go
    through :attr:`_lock`, the same lock each window's compute holds.

    That lock serves readers and windows in arrival order
    (:class:`_FifoLock`).  When windows run back to back, the next
    window's compute asks for the lock moments after the last one let
    it go; a plain lock would often grant it again before a ``/status``,
    ``/metrics`` or ``POST /policy`` request that waited out the whole
    window, and such a request could then wait several windows.  In
    arrival order, a request made during window *w* is answered before
    window *w* + 1 starts.
    """

    def __init__(
        self,
        config: ServeConfig,
        announce: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self._announce = announce
        self._lock = _FifoLock()
        self.status = "starting"
        self.loop = None  # ControlLoop once built
        self.sweeps = SweepManager(spool=config.spool)
        #: Set once the HTTP server is bound (tests wait on this).
        self.ready = threading.Event()
        self.bound_port: Optional[int] = None
        self.error: Optional[str] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._event_loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # world construction (blocking; offloaded to a thread)
    # ------------------------------------------------------------------
    def build_loop(self):
        """Build the seeded world and its live control loop."""
        from repro.controlplane.clock import WallClock
        from repro.controlplane.loop import ControlLoop
        from repro.scenarios import get_scenario
        from repro.sim.runner import ExperimentRunner
        from repro.sim.sweep import policy_from_name

        cfg = self.config
        scenario = get_scenario(cfg.scenario)
        overrides: Dict[str, object] = dict(
            arrival_rate=cfg.arrival_rate,
            interval_s=cfg.window_s,
            # Live mode replays the trace profile cyclically with the
            # config's n_intervals as the cycle length (see ControlLoop).
            n_intervals=cfg.trace_cycle,
            warmup_intervals=0,
            seed=cfg.seed,
            trace_profile=cfg.trace_profile,
            # Bounded-memory summaries: a live stream must never hold
            # every latency sample.
            summary_mode="streaming",
            n_profiling_conditions=cfg.n_profiling_conditions,
            scale=cfg.scale,
        )
        if cfg.n_nodes is not None:
            overrides["n_nodes"] = cfg.n_nodes
        runner_config = scenario.runner_config(**overrides)
        runner = ExperimentRunner(runner_config)
        policy = policy_from_name(cfg.policy)
        state = runner.setup(policy)
        # The wall clock starts at the end of the churn prewarm, so the
        # service pays no real-time cost for the simulated warm start.
        clock = WallClock(
            origin=runner_config.churn_prewarm_s, dilation=cfg.dilation
        )
        return ControlLoop(
            runner,
            state,
            clock=clock,
            live=True,
            history_limit=cfg.history_limit,
            retrain_every=cfg.retrain_every,
            training_window=cfg.training_window,
            gauge_horizon=cfg.gauge_horizon,
        )

    # ------------------------------------------------------------------
    # the async driver
    # ------------------------------------------------------------------
    async def run(self) -> int:
        """Serve until /shutdown (or ``max_windows``); returns an exit
        status (0 clean, 1 if the world failed to build)."""
        from repro.controlplane.http import start_http_server

        self._shutdown = asyncio.Event()
        self._event_loop = asyncio.get_running_loop()
        in_flight: Set[asyncio.Task] = set()
        server = await start_http_server(
            self, self.config.host, self.config.port, in_flight
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self.ready.set()
        if self._announce is not None:
            self._announce(
                f"repro serve: listening on "
                f"http://{self.config.host}:{self.bound_port} "
                f"({self.config.scenario} / {self.config.policy}, "
                f"window {self.config.window_s:g}s, "
                f"profile {self.config.trace_profile})"
            )
        try:
            async with server:
                await self._session()
            # On Python 3.11 the server's close returns without waiting
            # for its connections, and asyncio.run cancels whatever is
            # left: a handler still closing its connection (the
            # /shutdown answer itself) would die mid-close and the
            # stream protocol would log the cancellation as an error.
            if in_flight:
                await asyncio.wait(set(in_flight), timeout=HANDLER_DRAIN_S)
        finally:
            self.ready.clear()
            self.sweeps.stop_all()
            self.sweeps.drain()
        return 0 if self.error is None else 1

    async def _session(self) -> None:
        assert self._shutdown is not None
        with self._lock:
            self.status = "warming"
        try:
            loop = await asyncio.to_thread(self.build_loop)
        except Exception as exc:  # noqa: BLE001 - surfaced via /status
            with self._lock:
                self.status = "failed"
                self.error = f"{type(exc).__name__}: {exc}"
            # Stay up long enough for a client to read the failure,
            # unless someone already asked us to go away.
            await self._shutdown.wait()
            return
        with self._lock:
            self.loop = loop
            self.status = "running"
        window = 0
        while not self._shutdown.is_set():
            if (
                self.config.max_windows is not None
                and window >= self.config.max_windows
            ):
                with self._lock:
                    self.status = "drained"
                await self._shutdown.wait()
                break
            await self._pace(loop.window_end_time(window))
            if self._shutdown.is_set():
                break
            await asyncio.to_thread(self._compute_window, window)
            window += 1
        with self._lock:
            if self.status != "drained":
                self.status = "stopped"

    async def _pace(self, sim_target: float) -> None:
        """Wait until the wall clock reaches ``sim_target`` or a
        shutdown is requested, whichever first."""
        assert self._shutdown is not None
        wait = asyncio.ensure_future(self.loop.clock.wait_until(sim_target))
        stop = asyncio.ensure_future(self._shutdown.wait())
        done, pending = await asyncio.wait(
            {wait, stop}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        for task in done:
            # Re-raise a failed clock wait (a cancelled one is fine).
            if not task.cancelled() and task.exception() is not None:
                raise task.exception()

    def _compute_window(self, window: int) -> None:
        with self._lock:
            self.loop.compute_window(window)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (the POST /shutdown handler,
        which runs in a worker thread).

        An :class:`asyncio.Event` may only be set on its own event
        loop, so the set is handed to that loop.
        """
        if self._shutdown is not None:
            self._event_loop.call_soon_threadsafe(self._shutdown.set)

    def switch_policy(self, policy_name: str) -> Dict[str, object]:
        """Swap the live loop's routing policy (the POST /policy
        handler).

        Resolves ``policy_name`` through the sweep grammar
        (``policy_from_name``), then swaps under the compute lock — the
        same lock every window's compute holds — so the new policy only
        ever takes effect at a window boundary.  Raises
        :class:`~repro.errors.ConfigurationError` on an unknown name
        and :class:`~repro.errors.ControlPlaneError` when there is no
        running loop or the swap crosses the scheduling/routing divide
        (both map to a 400 at the HTTP layer).
        """
        from repro.sim.sweep import policy_from_name

        policy = policy_from_name(str(policy_name))
        with self._lock:
            if self.loop is None:
                raise ControlPlaneError(
                    f"cannot switch policy while the session is "
                    f"{self.status!r}: the live loop is not running yet"
                )
            self.loop.switch_policy(policy)
            return {
                "ok": True,
                "active_policy": policy.name,
                "adapts_threshold": bool(policy.adapts_threshold),
                "windows_completed": self.loop.windows_completed,
            }

    # ------------------------------------------------------------------
    # read surface (what HTTP exposes)
    # ------------------------------------------------------------------
    def status_payload(self) -> Dict[str, object]:
        """The /status JSON document."""
        cfg = self.config
        with self._lock:
            payload: Dict[str, object] = {
                "status": self.status,
                "scenario": cfg.scenario,
                "policy": cfg.policy,
                "arrival_rate": cfg.arrival_rate,
                "window_s": cfg.window_s,
                "trace_profile": cfg.trace_profile,
                "trace_cycle": cfg.trace_cycle,
                "dilation": cfg.dilation,
                "uptime_s": time.monotonic() - self._t0,
            }
            if self.error is not None:
                payload["error"] = self.error
            if self.loop is not None:
                payload["loop"] = self.loop.summary()
                # The configured policy never changes; POST /policy can
                # swap the *active* one, so surface it at top level too.
                payload["active_policy"] = payload["loop"]["active_policy"]
                gauge = self.loop.monitor.gauge
                if gauge is not None and gauge.windows:
                    payload["rolling"] = gauge.rolling()
        payload["sweeps"] = self.sweeps.summary()
        return payload

    def metrics_text(self) -> str:
        """The /metrics document (Prometheus text exposition format).

        The latency gauges appear only once at least one measured
        window completed — scrapers (and the CI poll) key on that.
        """
        lines: List[str] = []

        def emit(name: str, kind: str, help_text: str, value) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {float(value):.9g}")

        with self._lock:
            up = 1 if self.status == "running" else 0
            emit("pcs_up", "gauge", "1 while the live loop is running.", up)
            if self.loop is not None:
                s = self.loop.summary()
                emit(
                    "pcs_windows_completed_total", "counter",
                    "Monitoring windows completed.", s["windows_completed"],
                )
                emit(
                    "pcs_requests_total", "counter",
                    "Requests served across all windows.", s["n_requests"],
                )
                emit(
                    "pcs_decisions_total", "counter",
                    "Scheduling decisions fired.", s["n_decisions"],
                )
                emit(
                    "pcs_migrations_total", "counter",
                    "Component migrations enforced.", s["n_migrations"],
                )
                emit(
                    "pcs_retrains_total", "counter",
                    "Rolling predictor retrains applied.", s["n_retrains"],
                )
                emit(
                    "pcs_sim_time_seconds", "gauge",
                    "Simulated time of the live world.", s["sim_time_s"],
                )
                if s["last_window_p99_s"] is not None:
                    emit(
                        "pcs_window_p99_seconds", "gauge",
                        "Component p99 latency of the last window.",
                        s["last_window_p99_s"],
                    )
                if s["last_window_mean_s"] is not None:
                    emit(
                        "pcs_window_mean_seconds", "gauge",
                        "Overall mean latency of the last window.",
                        s["last_window_mean_s"],
                    )
                if s["last_decision_latency_s"] is not None:
                    emit(
                        "pcs_decision_latency_seconds", "gauge",
                        "Wall time of the last monitor->predict->decide->"
                        "act pass.",
                        s["last_decision_latency_s"],
                    )
                gauge = self.loop.monitor.gauge
                if gauge is not None and gauge.windows:
                    rolling = gauge.rolling()
                    emit(
                        "pcs_rolling_p99_seconds", "gauge",
                        "Max per-window p99 over the rolling horizon.",
                        rolling["p99"],
                    )
                    emit(
                        "pcs_rolling_mean_seconds", "gauge",
                        "Request-weighted mean latency over the rolling "
                        "horizon.",
                        rolling["mean"],
                    )
        running = sum(
            1 for j in self.sweeps.summary() if j["status"] == "running"
        )
        emit(
            "pcs_sweeps_running", "gauge",
            "Background sweeps currently executing.", running,
        )
        return "\n".join(lines) + "\n"
