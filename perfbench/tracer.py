"""Span tracing for the benchmark, installed from outside the program.

Nothing in ``src/`` is instrumented: :func:`install` replaces public
methods and module attributes of the ``repro`` package with wrappers that
record a span per call (name, start, end, parent span, thread).  Spans are
kept in memory and written as JSON lines when the session ends
(:meth:`Tracer.dump`); the parent process aggregates them into per-layer
busy time, self time and call counts (:func:`aggregate`).

Re-entrant calls into a layer that is already open on the same thread
(a routing kernel delegating to another kernel's ``route_group``) are
not recorded twice: only the outermost call of a layer gets a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: Every span layer, in report order.  Each gets ``<name>_s`` (busy time
#: of its outermost calls), ``<name>_self_s`` and ``<name>_calls``.
SPAN_LAYERS = (
    "import.repro",
    "model.training.train",
    "controlplane.predict.refresh",
    "sim.runner.setup",
    "sim.runner.service_dists",
    "sim.queue_sim.simulate",
    "baselines.routing.route",
    "simcore.lindley.waits",
    "controlplane.loop.window",
    "controlplane.monitor.observe",
    "controlplane.predict.inputs",
    "controlplane.decide.decide",
    "controlplane.actuate",
    "model.matrix.build",
    "model.matrix.a2_update",
    "scheduler.pcs.schedule",
    "scheduler.hierarchical.schedule",
    "controlplane.service.status_payload",
    "controlplane.loop.summary",
)

#: Layers wrapped with a counter only: the call is too small and too
#: frequent for a span to leave its timing intact.
COUNT_LAYERS = ("model.predictor.predict_mean_service",)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans = []  # (id, parent, name, start, end, thread)
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (the import span)."""
        self.spans.append(
            (next(self._ids), None, name, start, end, threading.get_ident())
        )

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each outermost call records a span.

        ``on_result(args, kwargs, result, outermost)`` runs after every
        call, nested or not, to accumulate layer counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[1] == name for frame in stack):
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, kwargs, result, False)
                return result
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )
            if on_result is not None:
                on_result(args, kwargs, result, True)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls, without a span."""
        counts = self.counts
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span, then one line of counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps({"counts": dict(self.counts), "sums": dict(self.sums)})
                + "\n"
            )


def _patch(owner, attr: str, wrap) -> None:
    setattr(owner, attr, wrap(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer of the ``repro`` package."""
    from repro.baselines import routing
    from repro.controlplane import phases
    from repro.controlplane.loop import ControlLoop
    from repro.controlplane.service import LiveControlPlane
    from repro.model import predictor
    from repro.model.matrix import PerformanceMatrix
    from repro.scheduler.hierarchical import HierarchicalScheduler
    from repro.scheduler.pcs import PCSScheduler
    from repro.sim import runner
    from repro.simcore import lindley

    sums = tracer.sums

    def span(name, on_result=None):
        return lambda fn: tracer.span(name, fn, on_result)

    def simulated(args, kwargs, outcome, outermost):
        sums["sim.queue_sim.simulate.requests"] += outcome.n_requests

    def routed(args, kwargs, result, outermost):
        if outermost:
            sums["route.subrequests"] += len(args[1])

    def routed_outcome(args, kwargs, outcome, outermost):
        routed(args, kwargs, outcome, outermost)
        sums["route.duplicates"] += outcome.duplicates

    def waited(args, kwargs, result, outermost):
        sums["simcore.lindley.waits.jobs"] += len(args[0])

    def actuated(args, kwargs, moved, outermost):
        sums["actuate.decided"] += args[1].n_migrations
        sums["actuate.enforced"] += len(moved)

    def scheduled(args, kwargs, outcome, outermost):
        sums["scheduler.pcs.schedule.analysis_s"] += outcome.analysis_time_s
        sums["scheduler.pcs.schedule.search_s"] += outcome.search_time_s
        sums["scheduler.pcs.schedule.migrations"] += outcome.n_migrations

    runner_cls = runner.ExperimentRunner
    _patch(runner_cls, "trained_predictor", span("model.training.train"))
    _patch(runner_cls, "setup", span("sim.runner.setup"))
    _patch(runner_cls, "_service_distributions", span("sim.runner.service_dists"))
    # The control loop calls the simulator through this module attribute.
    _patch(
        runner,
        "simulate_service_interval",
        span("sim.queue_sim.simulate", simulated),
    )

    kernels, seen = [routing.RoutingKernel], set()
    while kernels:
        cls = kernels.pop()
        if cls in seen:
            continue
        seen.add(cls)
        kernels.extend(cls.__subclasses__())
        if "route_group_outcome" in cls.__dict__:
            _patch(
                cls,
                "route_group_outcome",
                span("baselines.routing.route", routed_outcome),
            )
        fn = cls.__dict__.get("route_group")
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            _patch(cls, "route_group", span("baselines.routing.route", routed))

    # Kernels import the Lindley scan by name; the chunked scan calls the
    # module global.  Both names point at one wrapper.
    waits = tracer.span("simcore.lindley.waits", lindley.lindley_waits, waited)
    lindley.lindley_waits = waits
    routing.lindley_waits = waits

    _patch(ControlLoop, "compute_window", span("controlplane.loop.window"))
    _patch(ControlLoop, "summary", span("controlplane.loop.summary"))
    _patch(phases.MonitorPhase, "observe", span("controlplane.monitor.observe"))
    _patch(phases.PredictPhase, "inputs", span("controlplane.predict.inputs"))
    _patch(phases.PredictPhase, "refresh", span("controlplane.predict.refresh"))
    _patch(phases.DecidePhase, "decide", span("controlplane.decide.decide"))
    _patch(phases.ActuatePhase, "apply", span("controlplane.actuate", actuated))
    _patch(PerformanceMatrix, "build", span("model.matrix.build"))
    _patch(
        PerformanceMatrix, "algorithm2_update", span("model.matrix.a2_update")
    )
    _patch(PCSScheduler, "schedule", span("scheduler.pcs.schedule", scheduled))
    _patch(
        HierarchicalScheduler, "schedule", span("scheduler.hierarchical.schedule")
    )
    _patch(
        LiveControlPlane,
        "status_payload",
        span("controlplane.service.status_payload"),
    )
    for cls in (predictor.TrainedPredictor, predictor.OraclePredictor):
        _patch(
            cls,
            "predict_mean_service",
            lambda fn: tracer.counter("model.predictor.predict_mean_service", fn),
        )


def load(paths):
    """Read the span files of several sessions."""
    spans, counts, sums = [], defaultdict(int), defaultdict(float)
    for n, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines[:-1]:
            span = json.loads(line)
            span["id"] = (n, span["id"])
            if span["parent"] is not None:
                span["parent"] = (n, span["parent"])
            spans.append(span)
        tail = json.loads(lines[-1])
        for key, value in tail["counts"].items():
            counts[key] += value
        for key, value in tail["sums"].items():
            sums[key] += value
    return spans, counts, sums


def aggregate(spans, counts, sums):
    """Per-layer metrics (name -> value) from the spans of traced sessions."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    busy, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span in spans:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        self_time[span["name"]] += duration - child_time[span["id"]]
        calls[span["name"]] += 1
    out = {}
    for name in SPAN_LAYERS:
        out[name + "_s"] = busy[name]
        out[name + "_self_s"] = self_time[name]
        out[name + "_calls"] = calls[name]
    for name in COUNT_LAYERS:
        out[name + "_calls"] = counts[name + "_calls"]
    out["sim.queue_sim.simulate.requests"] = sums["sim.queue_sim.simulate.requests"]
    out["simcore.lindley.waits.jobs"] = sums["simcore.lindley.waits.jobs"]
    sub = sums["route.subrequests"]
    out["baselines.routing.route.duplicate_load"] = (
        (sub + sums["route.duplicates"]) / sub if sub else 0.0
    )
    decided = sums["actuate.decided"]
    out["controlplane.actuate.enforced_ratio"] = (
        sums["actuate.enforced"] / decided if decided else 0.0
    )
    for key in ("analysis_s", "search_s", "migrations"):
        name = "scheduler.pcs.schedule." + key
        out[name] = sums[name]
    out["controlplane.service.status_payload.lock_wait_s"] = max(
        0.0,
        busy["controlplane.service.status_payload"]
        - busy["controlplane.loop.summary"],
    )
    return out
