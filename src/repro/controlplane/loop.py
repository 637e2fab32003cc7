"""The composed control loop: one window = simulate → monitor →
predict → decide → act.

:class:`ControlLoop` owns the four phase objects
(:mod:`repro.controlplane.phases`) and a :class:`Clock`
(:mod:`repro.controlplane.clock`), and is the single implementation of
the interval loop: ``ExperimentRunner.run_interval`` / ``collect``
both delegate here, with the batch replay being the
:class:`VirtualClock` degenerate case.

**Bit-identity contract.**  With a virtual clock and ``live=False``
the loop performs exactly the statements (RNG draws, float arithmetic,
list appends) of the pre-refactor inline code — golden pins and the
tier-2 identity matrices enforce that ``metrics_dict()`` is
byte-identical.  Everything live-mode adds (gauges, rolling retrain,
history bounding, cyclic trace profiles) is gated on ``live=True``.

The simulator is invoked through the :mod:`repro.sim.runner` module
attribute (``runner_mod.simulate_service_interval``), preserving the
long-standing test seam that monkeypatches it there.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.controlplane.clock import Clock, VirtualClock
from repro.controlplane.phases import (
    ActuatePhase,
    DecidePhase,
    MonitorPhase,
    MonitorSnapshot,
    PredictPhase,
)
from repro.baselines.policies import routing_kernel_for
from repro.errors import ControlPlaneError, ExperimentError
from repro.monitoring.streaming import ReissueThresholdFeed, RollingGauge
from repro.sim import runner as runner_mod
from repro.sim.estimators import IntervalAccumulatorSet, LatencyAccumulator
from repro.sim.metrics import LatencySummary, percentile
from repro.workloads.traces import arrival_rate_multiplier

__all__ = ["ControlLoop"]


class ControlLoop:
    """Drives one policy evaluation window by window.

    Parameters
    ----------
    runner:
        The :class:`~repro.sim.runner.ExperimentRunner` owning the
        config and the service-distribution helper.
    state:
        The :class:`~repro.sim.runner.RunState` built by ``setup``.
    clock:
        Pacing seam; defaults to a :class:`VirtualClock` on the run's
        engine (the deterministic replay).
    live:
        Open-loop service mode: windows run forever (the config's
        ``n_intervals`` becomes the trace profile's cycle length), a
        decision fires after *every* window, gauges and the rolling
        retrain engage, and history is bounded.
    history_limit:
        Keep only this many per-window records (live mode's memory
        bound); ``None`` keeps everything (replay).
    retrain_every / training_window:
        Rolling-retrain cadence and window for the predict phase
        (live mode; 0 disables).
    gauge_horizon:
        Rolling horizon of the live latency gauge, in windows.
    """

    def __init__(
        self,
        runner,
        state,
        clock: Optional[Clock] = None,
        live: bool = False,
        history_limit: Optional[int] = None,
        retrain_every: int = 0,
        training_window: int = 256,
        gauge_horizon: int = 60,
    ) -> None:
        if history_limit is not None and history_limit < 1:
            raise ControlPlaneError(
                f"history_limit must be >= 1 or None, got {history_limit}"
            )
        self.runner = runner
        self.state = state
        self.config = runner.config
        self.clock = clock if clock is not None else VirtualClock(state.engine)
        self.live = bool(live)
        self.history_limit = history_limit
        cfg = runner.config
        # Service slots left per node after reserving the batch-VM
        # budget — same derivation as the historical inline code.
        service_slots = max(
            1, cfg.machine_slots - cfg.generator.max_batch_jobs_per_node
        )
        self.monitor = MonitorPhase(
            state.monitor,
            state.cluster,
            cfg.interval_s,
            gauge=RollingGauge(horizon=gauge_horizon) if self.live else None,
            threshold_feed=state.threshold_feed,
        )
        self.predict = PredictPhase(
            state.service,
            state.cluster,
            state.classes,
            cfg.interval_s,
            service_slots,
            runner._global_group_ids(state.service),
            retrain_every=retrain_every if self.live else 0,
            training_window=training_window,
            induced_load=state.policy.induced_load(),
        )
        self.decide = DecidePhase(state.scheduler)
        self.actuate = ActuatePhase(state.executor)
        self.windows_completed = 0
        self.last_decision_latency_s: Optional[float] = None
        self.last_snapshot: Optional[MonitorSnapshot] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def window_end_time(self, interval: int) -> float:
        """Sim time at which window ``interval`` closes."""
        cfg = self.config
        return cfg.churn_prewarm_s + (interval + 1) * cfg.interval_s

    # ------------------------------------------------------------------
    # one window
    # ------------------------------------------------------------------
    def run_window(self, interval: int):
        """Wait for the window boundary, then compute the window."""
        self.clock.advance_to(self.window_end_time(interval))
        return self.compute_window(interval)

    async def run_window_async(self, interval: int):
        """Async pacing variant (live mode's driver); the compute is
        synchronous — callers offload it to a thread if the event loop
        must stay responsive."""
        await self.clock.wait_until(self.window_end_time(interval))
        return self.compute_window(interval)

    def compute_window(self, interval: int):
        """Advance churn, serve one window, record, maybe decide.

        The replay body of the historical ``run_interval``, statement
        for statement; live-only extensions are gated on ``self.live``.
        """
        cfg = self.config
        state = self.state
        state.engine.run_until(self.window_end_time(interval))
        dists = self.runner._service_distributions(
            state.cluster,
            state.service.components,
            state.drift_rng,
            state.warmup_set,
        )
        # The trace profile shapes the rate interval by interval; the
        # stationary profile's multiplier is exactly 1.0 (bit-identical
        # arrivals to the pre-profile runner).  A live stream is
        # unbounded and replays the profile cyclically.
        if self.live:
            rate = cfg.arrival_rate * arrival_rate_multiplier(
                cfg.trace_profile, interval, cfg.n_intervals
            )
        else:
            rate = cfg.arrival_rate * float(state.rate_multipliers[interval])
        interval_stream: Optional[IntervalAccumulatorSet] = None
        if state.summary_mode == "streaming":
            # Fresh per-interval accumulators; their reservoirs draw
            # priorities from persistent named streams, so the whole
            # run is reproducible from the root seed.
            multi = state.classes is not None and state.classes.multi_class
            interval_stream = IntervalAccumulatorSet.create(
                rng_for=lambda role: state.rngs.get(f"estimator-{role}"),
                class_names=state.classes.names if multi else None,
            )
        # The chunk/stream kwargs are only passed when engaged, so the
        # default path keeps the historical call signature (tests stub
        # the simulator with positional-compatible fakes).
        sim_kwargs: Dict[str, object] = {}
        if cfg.chunk_requests is not None:
            sim_kwargs["chunk_requests"] = cfg.chunk_requests
        if interval_stream is not None:
            sim_kwargs["stream_into"] = interval_stream
        if state.threshold_feed is not None:
            # Adaptive policies: the kernel reads the tuned threshold
            # from the shared feed and pushes this window's own tail
            # observation back into it — closing the loop per window.
            sim_kwargs["threshold_feed"] = state.threshold_feed
        outcome = runner_mod.simulate_service_interval(
            state.service.topology,
            state.policy,
            rate,
            cfg.interval_s,
            dists,
            state.request_rng,
            classes=state.classes,
            **sim_kwargs,
        )
        if interval >= cfg.warmup_intervals and outcome.n_requests:
            label = f"interval {interval} pooled component latencies"
            if interval_stream is not None:
                state.per_interval_p99.append(
                    interval_stream.component_pool.summary(label=label).p99
                )
                state.per_interval_mean.append(interval_stream.overall.mean)
                state.run_stream = (
                    interval_stream
                    if state.run_stream is None
                    else state.run_stream.merge(interval_stream)
                )
            else:
                pooled = outcome.pooled_component_latencies()
                state.component_acc.add(pooled)
                state.overall_acc.add(outcome.request_latencies)
                if state.classes is not None and state.classes.multi_class:
                    for name, lats in outcome.per_class_latencies().items():
                        state.per_class_accs.setdefault(
                            name, LatencyAccumulator()
                        ).add(lats)
                # Shared metric kernel: nearest-rank, never interpolated
                # (must match the pooled LatencySummary convention).
                state.per_interval_p99.append(percentile(pooled, 99, label=label))
                state.per_interval_mean.append(
                    float(outcome.request_latencies.mean())
                )
            if state.per_interval_duplicate_load is not None:
                state.per_interval_duplicate_load.append(
                    outcome.duplicate_load
                )
            state.n_requests += outcome.n_requests
            if self.live:
                self.monitor.record_window(
                    state.per_interval_p99[-1],
                    state.per_interval_mean[-1],
                    outcome.n_requests,
                )
                if self.history_limit is not None:
                    del state.per_interval_p99[: -self.history_limit]
                    del state.per_interval_mean[: -self.history_limit]
                    if state.per_interval_duplicate_load is not None:
                        del state.per_interval_duplicate_load[
                            : -self.history_limit
                        ]
        # Replay decides between windows (never after the last); a live
        # stream has no last window and decides after every one.
        if self.decide.active and (
            self.live or interval + 1 < cfg.n_intervals
        ):
            t0 = time.perf_counter()
            state.warmup_set = self.control_step(interval, outcome)
            dt = time.perf_counter() - t0
            state.scheduling_time_s += dt
            self.last_decision_latency_s = dt
            state.n_migrations = state.executor.enforced
        if self.live and self.predict.retrain_every:
            self.predict.observe_truth(state.monitor, dists)
            if self.predict.retrain_due():
                refreshed = self.predict.refresh()
                if refreshed is not None:
                    self.decide.rebind_predictor(refreshed)
        self.windows_completed += 1
        return outcome

    def control_step(self, interval: int, outcome) -> Set[str]:
        """One full monitor → predict → decide → act pass."""
        snapshot = self.monitor.observe(interval, outcome)
        self.last_snapshot = snapshot
        inputs = self.predict.inputs(snapshot)
        decision = self.decide.decide(inputs)
        return self.actuate.apply(decision)

    # ------------------------------------------------------------------
    # live policy switching
    # ------------------------------------------------------------------
    def switch_policy(self, policy) -> None:
        """Swap the active routing policy between windows (live serve).

        Re-derives everything the policy determines: the components'
        induced demand (:meth:`ExperimentRunner._apply_induced_load`),
        the predict phase's duplicate-load model, a fresh adaptive
        threshold feed (stale tail estimates from the old policy must
        not seed the new one), and the chunk-fallback flag.  Callers
        synchronise with the window loop (the service layer holds its
        compute lock), so the swap is only ever observed at a window
        boundary.  Scheduling policies cannot be switched in or out:
        their predictor/scheduler/executor stack is built in ``setup``.
        """
        state = self.state
        if policy.schedules or state.policy.schedules:
            raise ControlPlaneError(
                f"cannot switch between scheduling and routing policies "
                f"mid-run ({state.policy.name!r} -> {policy.name!r}); "
                f"scheduling runs are configured at setup"
            )
        expected_part = None
        if state.classes is not None:
            expected_part = {
                name: float(p)
                for name, p in zip(
                    state.classes.group_names,
                    state.classes.expected_group_participation(),
                )
            }
        self.runner._apply_induced_load(state.service, policy, expected_part)
        state.policy = policy
        state.threshold_feed = (
            ReissueThresholdFeed() if policy.adapts_threshold else None
        )
        state.chunk_fallback = state.chunk_fallback or (
            self.config.chunk_requests is not None
            and not routing_kernel_for(policy).supports_chunking
        )
        self.monitor.threshold_feed = state.threshold_feed
        self.predict.induced_load = policy.induced_load()

    # ------------------------------------------------------------------
    # the composed run + reduction
    # ------------------------------------------------------------------
    def run(self):
        """Replay all configured windows and reduce — the batch run."""
        for interval in range(self.config.n_intervals):
            self.run_window(interval)
        return self.collect()

    def collect(self):
        """Reduce the recorded windows into a ``PolicyResult``.

        Both summary modes flow through the same
        :class:`~repro.sim.estimators.LatencyAccumulator` seam; the
        exact mode's reduction is bit-identical to the historical
        pool-then-summarise code, and a streamed run records its
        provenance in ``PolicyResult.summary_mode``.
        """
        cfg = self.config
        state = self.state
        streaming = state.summary_mode == "streaming"
        measured = (
            state.run_stream is not None
            if streaming
            else state.component_acc.n_batches > 0
        )
        if not measured:
            raise ExperimentError(
                f"no measured intervals produced requests "
                f"({state.policy.name} @ {cfg.arrival_rate:g} req/s, "
                f"seed {cfg.seed})"
            )
        run_label = f"{state.policy.name} @ {cfg.arrival_rate:g} req/s"
        if streaming:
            component_acc = state.run_stream.component_pool
            overall_acc = state.run_stream.overall
            class_accs = state.run_stream.per_class or {}
        else:
            component_acc = state.component_acc
            overall_acc = state.overall_acc
            class_accs = state.per_class_accs
        per_class: Optional[Dict[str, LatencySummary]] = None
        if class_accs:
            per_class = {
                name: acc.summary(
                    label=f"{run_label} class {name!r} latencies"
                )
                for name, acc in class_accs.items()
                if acc.n
            }
        return runner_mod.PolicyResult(
            policy_name=state.policy.name,
            arrival_rate=cfg.arrival_rate,
            component_latency=component_acc.summary(
                label=f"{run_label} component latencies"
            ),
            overall_latency=overall_acc.summary(
                label=f"{run_label} overall latencies"
            ),
            per_interval_component_p99=state.per_interval_p99,
            per_interval_overall_mean=state.per_interval_mean,
            n_requests=state.n_requests,
            n_migrations=state.n_migrations,
            scheduling_time_s=state.scheduling_time_s,
            wall_time_s=time.perf_counter() - state.t_wall,
            per_class=per_class,
            summary_mode="streaming" if streaming else None,
            chunk_fallback=state.chunk_fallback,
            per_interval_duplicate_load=state.per_interval_duplicate_load,
        )

    # ------------------------------------------------------------------
    # introspection (the service layer's /status)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-serialisable progress digest."""
        state = self.state
        last_decision = self.decide.last_outcome
        return {
            "active_policy": state.policy.name,
            "adaptive_threshold_s": self.monitor.adaptive_threshold_s(),
            "windows_completed": self.windows_completed,
            "n_requests": state.n_requests,
            "n_decisions": self.decide.n_decisions,
            "n_migrations": self.actuate.enforced,
            "n_retrains": self.predict.n_retrains,
            "last_window_p99_s": (
                state.per_interval_p99[-1] if state.per_interval_p99 else None
            ),
            "last_window_mean_s": (
                state.per_interval_mean[-1] if state.per_interval_mean else None
            ),
            "last_decision_latency_s": self.last_decision_latency_s,
            "last_decision": (
                None if last_decision is None else last_decision.summary()
            ),
            "sim_time_s": state.engine.now,
        }
