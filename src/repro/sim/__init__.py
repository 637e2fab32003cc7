"""Full-system simulation harness.

- :mod:`repro.sim.metrics` — latency summaries (mean, tail percentiles)
  in the paper's two report currencies: pooled 99th-percentile
  *component* latency and mean *overall service* latency.
- :mod:`repro.sim.queue_sim` — the vectorised per-interval sample-path
  simulator: exact Lindley queues per component, with the Basic, RED-k
  (two-pass imperfect cancellation) and RI-p (conditional reissue)
  routing mechanics; Basic routing also runs chunked (bit-identical)
  or fully streamed for 10⁶–10⁷-request intervals in O(chunk) memory.
- :mod:`repro.sim.estimators` — the streaming latency-estimation layer
  behind those large runs: a mergeable seeded bottom-k reservoir plus
  a Chan running mean behind one ``LatencyAccumulator`` seam, with a
  documented rank-error contract.
- :mod:`repro.sim.des_service` — a fine-grained event-driven reference
  simulator used to bound the vectorised path's stage-alignment
  approximation in integration tests.
- :mod:`repro.sim.profiling` — the §VI-B profiling runs that produce
  predictor training data.
- :mod:`repro.sim.runner` — the interval loop tying everything
  together: batch churn → monitoring → prediction → scheduling →
  request simulation (the Fig. 6 engine).
- :mod:`repro.sim.sweep` — parallel sweep execution: policies × rates ×
  seeds grids fanned out over pluggable execution backends, with an
  on-disk JSON memo (plus a human-readable ``manifest.json``) so
  interrupted sweeps resume (bit-identical to the serial path for any
  backend or worker count).
- :mod:`repro.sim.backends` — the execution backends behind the sweep:
  serial (inline — no spawn import cost, warm predictor memo) and
  process (spawn workers, one point per task), plus the rule that
  picks between them and the distributed spool.
- :mod:`repro.sim.aggregate` — the shared seed-level reduction:
  mean/std/min/max plus Student-t and nearest-rank bootstrap confidence
  intervals over every reported metric, grouped per (policy, rate).

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "LatencySummary": "metrics",
        "percentile": "metrics",
        "pool": "metrics",
        "summarize": "metrics",
        "IntervalOutcome": "queue_sim",
        "simulate_service_interval": "queue_sim",
        "LatencyAccumulator": "estimators",
        "ReservoirSampler": "estimators",
        "IntervalAccumulatorSet": "estimators",
        "RunnerConfig": "runner",
        "PolicyResult": "runner",
        "ExperimentRunner": "runner",
        "SweepSpec": "sweep",
        "SweepResult": "sweep",
        "SweepCache": "sweep",
        "ParallelSweepRunner": "sweep",
        "parallel_map": "backends",
        "ExecutionBackend": "backends",
        "SerialBackend": "backends",
        "ProcessBackend": "backends",
        "AggregateConfig": "aggregate",
        "MetricStats": "aggregate",
        "SeedAggregate": "aggregate",
        "SweepSummary": "aggregate",
        "flatten_metrics": "aggregate",
    },
)
