"""The interval loop: batch churn → monitor → predict → schedule → serve.

One :class:`ExperimentRunner` evaluates one policy on one arrival rate
for one *scenario* (:mod:`repro.scenarios` — the Nutch-like search
service by default, selected by ``RunnerConfig.scenario``).

Since the control-plane refactor the loop body lives in
:class:`repro.controlplane.loop.ControlLoop` — four named phases
(monitor → predict → decide → act) driven by a clock seam — and this
module's phase methods *delegate* to it:

:meth:`ExperimentRunner.setup`
    build the cluster, deploy the scenario's service, start the Poisson
    batch-job churn (the interference source), create the monitor and —
    for scheduling policies — the predictor/scheduler/executor stack;
    pre-warm the churn to its M/G/∞ equilibrium.  Returns the
    :class:`RunState` the other phases thread through.

:meth:`ExperimentRunner.run_interval`
    one scheduling interval, delegated to the state's control loop on a
    virtual clock: advance the event engine, derive every component's
    *true* current service distribution, simulate the interval's
    requests with the policy's routing kernel
    (:mod:`repro.sim.queue_sim`), record latencies, and — for PCS —
    run the monitor/predict/decide/actuate phases.

:meth:`ExperimentRunner.collect`
    reduce the recorded intervals into a :class:`PolicyResult` (the
    control loop's reduction).

The batch replay is the control loop's virtual-clock degenerate case
and stays **bit-identical** on :meth:`PolicyResult.metrics_dict` to
the pre-refactor inline loop (golden-pinned).  Identical seeds produce
identical churn and arrival patterns across policies, so Fig. 6's
comparisons are paired.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.baselines.policies import PCSPolicy, Policy, routing_kernel_for
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeCapacity
from repro.errors import ConfigurationError, ExperimentError
from repro.interference.ground_truth import InterferenceModel, default_interference_model
from repro.model.predictor import LatencyPredictor, OraclePredictor
from repro.monitoring.monitor import MonitorConfig, OnlineMonitor
from repro.monitoring.streaming import ReissueThresholdFeed
from repro.rng import RngRegistry
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.migration import MigrationCostModel, MigrationExecutor
from repro.scheduler.pcs import PCSScheduler
from repro.scenarios import ScenarioSpec, get_scenario
from repro.service.nutch import NutchConfig
from repro.service.topology import ResolvedClassMix
from repro.sim.estimators import IntervalAccumulatorSet, LatencyAccumulator
from repro.sim.metrics import LatencySummary
from repro.sim.profiling import ProfilingConfig, train_predictor_for_service

# simulate_service_interval must stay a *module attribute*: the control
# loop invokes it as `runner_mod.simulate_service_interval`, preserving
# the seam tests monkeypatch here.
from repro.sim.queue_sim import IntervalOutcome, simulate_service_interval
from repro.simcore.engine import SimulationEngine
from repro.workloads.generator import BatchJobGenerator, GeneratorConfig
from repro.workloads.traces import arrival_profile_names, arrival_rate_multipliers

__all__ = ["RunnerConfig", "PolicyResult", "RunState", "ExperimentRunner"]


@dataclass(frozen=True)
class RunnerConfig:
    """Shape of one Fig. 6-style experiment."""

    n_nodes: int = 30
    machine_slots: int = 16
    arrival_rate: float = 100.0
    interval_s: float = 60.0
    n_intervals: int = 8
    warmup_intervals: int = 2
    seed: int = 0
    #: Which registered workload scenario to run (:mod:`repro.scenarios`).
    scenario: str = "nutch-search"
    #: Generic shape multiplier consumed by scenario builders that
    #: define scaled shapes; the ``nutch-search`` scenario's shape
    #: comes from :attr:`nutch` instead and ignores this.
    scale: float = 1.0
    #: Shape of the ``nutch-search`` scenario's service (ignored by the
    #: other built-in scenarios).
    nutch: NutchConfig = field(default_factory=NutchConfig)
    generator: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(
            jobs_per_node_per_s=0.01, max_batch_jobs_per_node=3
        )
    )
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    interference_noise: float = 0.02
    churn_prewarm_s: float = 300.0
    deployment: str = "random"
    profiling: ProfilingConfig = field(default_factory=ProfilingConfig)
    n_profiling_conditions: int = 60
    migration_cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    #: Arrival-rate trace profile (:mod:`repro.workloads.traces`):
    #: every interval's rate is ``arrival_rate`` times the profile's
    #: per-interval multiplier.  ``"stationary"`` multiplies by exactly
    #: 1.0 — bit-identical to the pre-profile runner.
    trace_profile: str = "stationary"
    #: Optional ``((name, weight), ...)`` re-weighting of the
    #: scenario's declared request classes (the CLI's ``--classes``).
    #: ``None`` keeps the scenario's own mix weights; a weight of 0
    #: drops that class from the run.  Stored canonically as a tuple of
    #: ``(str, float)`` pairs so sweep manifests hash it stably.
    class_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Streamed runs simulate each interval in windows of about this
    #: many requests, carrying queue backlog across them; exact
    #: summaries ignore it.  The contract is stated once, in
    #: :mod:`repro.sim.queue_sim`'s module docstring.
    chunk_requests: Optional[int] = None
    #: How latency samples are reduced to summaries: ``"exact"`` stores
    #: every sample (nearest-rank percentiles, the golden-pinned path),
    #: ``"streaming"`` uses O(reservoir)-memory estimators
    #: (:mod:`repro.sim.estimators`), and ``"auto"`` — the default —
    #: picks streaming only above :attr:`streaming_threshold` expected
    #: requests per interval, so every existing configuration stays on
    #: the exact path.
    summary_mode: str = "auto"
    #: ``auto`` switches to streaming summaries when the expected
    #: per-interval request count (rate × interval × peak trace
    #: multiplier) exceeds this.
    streaming_threshold: int = 1_000_000
    #: Record the realized duplicate load (extra executed copies per
    #: request, per measured interval) on the result
    #: (:attr:`PolicyResult.per_interval_duplicate_load`).  Off by
    #: default and omitted from sweep digests while off
    #: (``__digest_default_omit__``), so every pre-existing cache
    #: entry, golden pin and spool payload is byte-identical.
    record_induced_load: bool = False

    #: See :func:`repro.sim.sweep._canonical`: fields held at these
    #: values are left out of cache digests and spool payloads.
    __digest_default_omit__ = {"record_induced_load": False}

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ExperimentError("n_nodes must be >= 1")
        if self.arrival_rate <= 0:
            raise ExperimentError("arrival_rate must be positive")
        # interval_s / n_intervals get the named ConfigurationError
        # (a ValueError, still catchable as ReproError): a nonpositive
        # window would otherwise surface as a deep numpy empty-array
        # failure inside the loop.
        if not math.isfinite(self.interval_s) or self.interval_s <= 0:
            raise ConfigurationError(
                f"RunnerConfig.interval_s must be a positive finite "
                f"number of seconds, got {self.interval_s!r}"
            )
        if self.n_intervals < 1:
            raise ConfigurationError(
                f"RunnerConfig.n_intervals must be >= 1, got "
                f"{self.n_intervals!r}"
            )
        if not 0 <= self.warmup_intervals < self.n_intervals:
            raise ExperimentError(
                "need 0 <= warmup_intervals < n_intervals "
                f"(got {self.warmup_intervals} vs {self.n_intervals})"
            )
        if self.interference_noise < 0:
            raise ExperimentError("interference_noise must be >= 0")
        if self.churn_prewarm_s < 0:
            raise ExperimentError("churn_prewarm_s must be >= 0")
        if not self.scenario:
            raise ExperimentError("scenario name must be non-empty")
        if self.scale <= 0:
            raise ExperimentError("scale must be positive")
        if self.trace_profile not in arrival_profile_names():
            raise ExperimentError(
                f"unknown trace profile {self.trace_profile!r} "
                f"(registered: {', '.join(arrival_profile_names())})"
            )
        if self.chunk_requests is not None and self.chunk_requests < 1:
            raise ExperimentError(
                f"chunk_requests must be >= 1, got {self.chunk_requests}"
            )
        if self.summary_mode not in ("auto", "exact", "streaming"):
            raise ExperimentError(
                f"summary_mode must be 'auto', 'exact' or 'streaming', "
                f"got {self.summary_mode!r}"
            )
        if self.streaming_threshold < 1:
            raise ExperimentError(
                f"streaming_threshold must be >= 1, got "
                f"{self.streaming_threshold}"
            )
        if self.class_mix is not None:
            try:
                canon = tuple(
                    (str(name), float(weight))
                    for name, weight in self.class_mix
                )
            except (TypeError, ValueError) as exc:
                raise ExperimentError(
                    f"class_mix must be (name, weight) pairs, got "
                    f"{self.class_mix!r}"
                ) from exc
            if not canon:
                raise ExperimentError(
                    "class_mix must name at least one class (or be None)"
                )
            seen = set()
            for name, weight in canon:
                if not name:
                    raise ExperimentError("class_mix names must be non-empty")
                if name in seen:
                    raise ExperimentError(
                        f"class_mix names class {name!r} twice"
                    )
                seen.add(name)
                if weight < 0:
                    raise ExperimentError(
                        f"class_mix weight for {name!r} must be >= 0"
                    )
            object.__setattr__(self, "class_mix", canon)


#: :class:`PolicyResult`'s optional provenance fields, in
#: serialisation order: field -> (inert value, encode, decode).
#: ``to_dict`` writes a field only when it differs from its inert
#: value, so a result that never set one serialises (and digests)
#: byte-identically to one from before the field existed;
#: ``from_dict`` restores the inert value for an absent key.
_PROVENANCE_CODEC = {
    "per_class": (
        None,
        lambda v: {name: s.to_dict() for name, s in v.items()},
        lambda v: {
            str(name): LatencySummary.from_dict(s) for name, s in v.items()
        },
    ),
    "summary_mode": (None, lambda v: v, str),
    "chunk_fallback": (False, lambda v: True, bool),
    "per_interval_duplicate_load": (
        None,
        list,
        lambda v: [float(x) for x in v],
    ),
}


@dataclass
class PolicyResult:
    """Aggregated outcome of one (policy, arrival rate) run."""

    policy_name: str
    arrival_rate: float
    component_latency: LatencySummary
    overall_latency: LatencySummary
    per_interval_component_p99: List[float]
    per_interval_overall_mean: List[float]
    n_requests: int
    n_migrations: int
    scheduling_time_s: float
    wall_time_s: float
    #: Per-request-class overall-latency summaries, in class order —
    #: present only on mixed-class runs.  ``None`` on single-class runs
    #: keeps :meth:`metrics_dict` byte-identical to pre-class results
    #: (the golden pins).
    per_class: Optional[Dict[str, LatencySummary]] = None
    #: Estimator provenance: ``"streaming"`` when the summaries came
    #: from the O(reservoir) estimator layer, ``None`` on the exact
    #: path.  Serialised (and hence digested) only when set, so every
    #: exact-mode cache entry and golden pin is byte-identical to
    #: before this field existed — and a streamed result can never be
    #: mistaken for an exact one.
    summary_mode: Optional[str] = None
    #: Chunking provenance: ``True`` when ``chunk_requests`` was set
    #: but this policy's routing kernel cannot chunk (redundancy /
    #: reissue / hedging carry cross-request duplicate state), so
    #: every interval ran as one window.  Serialised only when
    #: set — same digest-stability pattern as :attr:`summary_mode` —
    #: and surfaced by :meth:`render` so the fallback is visible in
    #: sweep/quick output instead of saying nothing.
    chunk_fallback: bool = False
    #: Realized duplicate load per measured interval — extra executed
    #: copies per request (redundancy copies that escaped cancellation,
    #: reissued/hedged secondaries), the measured counterpart of the
    #: policy's :class:`~repro.baselines.policies.InducedLoad`
    #: prediction.  Recorded only under
    #: ``RunnerConfig.record_induced_load`` and serialised only when
    #: present — same digest-stability pattern as :attr:`summary_mode`.
    per_interval_duplicate_load: Optional[List[float]] = None

    @property
    def component_p99_s(self) -> float:
        """Metric 1: pooled 99th-percentile component latency."""
        return self.component_latency.p99

    @property
    def overall_mean_s(self) -> float:
        """Metric 2: mean overall service latency."""
        return self.overall_latency.mean

    @property
    def duplicate_load(self) -> Optional[float]:
        """Mean realized duplicates per request over measured intervals
        (``None`` unless the run recorded induced load)."""
        if self.per_interval_duplicate_load is None:
            return None
        vals = self.per_interval_duplicate_load
        return sum(vals) / len(vals) if vals else 0.0

    def render(self) -> str:
        """One line in a Fig. 6-style table."""
        line = (
            f"{self.policy_name:>7s} @ {self.arrival_rate:7.1f} req/s | "
            f"component p99 = {self.component_p99_s * 1e3:8.2f} ms | "
            f"overall mean = {self.overall_mean_s * 1e3:8.2f} ms | "
            f"migrations = {self.n_migrations}"
        )
        if self.chunk_fallback:
            line += " | chunking: monolithic fallback"
        if self.duplicate_load is not None:
            line += f" | dup load = {self.duplicate_load:.3f}/req"
        return line

    def metrics_dict(self) -> dict:
        """Every *deterministic* field — :meth:`to_dict` minus the
        measured wall-clock timings.  Two runs of the same (config,
        policy) point must agree on this exactly, whatever the worker
        count or host; it is the byte-identity the sweep tests pin.
        """
        d = self.to_dict()
        del d["scheduling_time_s"], d["wall_time_s"]
        return d

    def to_dict(self) -> dict:
        """JSON-serialisable form used by the on-disk sweep cache.

        Floats round-trip exactly (``json`` serialises them via
        ``repr``, the shortest exact representation), so a cache hit
        reproduces the original result byte-for-byte.
        """
        d = {
            "policy_name": self.policy_name,
            "arrival_rate": self.arrival_rate,
            "component_latency": self.component_latency.to_dict(),
            "overall_latency": self.overall_latency.to_dict(),
            "per_interval_component_p99": list(self.per_interval_component_p99),
            "per_interval_overall_mean": list(self.per_interval_overall_mean),
            "n_requests": self.n_requests,
            "n_migrations": self.n_migrations,
            "scheduling_time_s": self.scheduling_time_s,
            "wall_time_s": self.wall_time_s,
        }
        for name, (inert, encode, _) in _PROVENANCE_CODEC.items():
            value = getattr(self, name)
            if value != inert:
                d[name] = encode(value)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "PolicyResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            policy_name=str(d["policy_name"]),
            arrival_rate=float(d["arrival_rate"]),
            component_latency=LatencySummary.from_dict(d["component_latency"]),
            overall_latency=LatencySummary.from_dict(d["overall_latency"]),
            per_interval_component_p99=[
                float(x) for x in d["per_interval_component_p99"]
            ],
            per_interval_overall_mean=[
                float(x) for x in d["per_interval_overall_mean"]
            ],
            n_requests=int(d["n_requests"]),
            n_migrations=int(d["n_migrations"]),
            scheduling_time_s=float(d["scheduling_time_s"]),
            wall_time_s=float(d["wall_time_s"]),
            **{
                name: inert if d.get(name) is None else decode(d[name])
                for name, (inert, _, decode) in _PROVENANCE_CODEC.items()
            },
        )


@dataclass
class RunState:
    """Everything one policy evaluation threads between phases.

    Built by :meth:`ExperimentRunner.setup`, advanced interval by
    interval by :meth:`ExperimentRunner.run_interval`, reduced by
    :meth:`ExperimentRunner.collect`.
    """

    policy: Policy
    rngs: RngRegistry
    engine: SimulationEngine
    cluster: Cluster
    service: object  # OnlineService (duck-typed to avoid a layering import)
    monitor: OnlineMonitor
    scheduler: Optional[object]
    executor: Optional[MigrationExecutor]
    drift_rng: np.random.Generator
    request_rng: np.random.Generator
    t_wall: float
    #: Resolved request-class mix (None on single-class runs — the
    #: exact pre-class code path).
    classes: Optional[ResolvedClassMix] = None
    #: Per-interval arrival-rate multipliers from the trace profile
    #: (all exactly 1.0 under "stationary").
    rate_multipliers: Optional[np.ndarray] = None
    warmup_set: Set[str] = field(default_factory=set)
    #: Resolved latency-reduction mode for this run ("exact" or
    #: "streaming" — the config's "auto" is resolved in setup from the
    #: expected per-interval request count).
    summary_mode: str = "exact"
    #: ``chunk_requests`` was requested but this policy's routing
    #: kernel cannot chunk, so every interval runs as one window
    #: (recorded on the result as provenance).
    chunk_fallback: bool = False
    #: Exact mode: every sample flows through these store-everything
    #: accumulators (bit-identical to the historical pool+summarize).
    component_acc: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    overall_acc: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    #: name -> per-class overall-latency accumulator (mixed-class only).
    per_class_accs: Dict[str, LatencyAccumulator] = field(default_factory=dict)
    #: Streaming mode: the run-level accumulator set (the first measured
    #: interval's set, with later intervals merged in).
    run_stream: Optional[IntervalAccumulatorSet] = None
    per_interval_p99: List[float] = field(default_factory=list)
    per_interval_mean: List[float] = field(default_factory=list)
    #: Realized duplicate load of each measured interval (recorded only
    #: under ``RunnerConfig.record_induced_load``; ``None`` otherwise —
    #: the exact pre-feature reduction).
    per_interval_duplicate_load: Optional[List[float]] = None
    #: The streaming-quantile feed behind an adaptive policy's kernel
    #: (:class:`repro.monitoring.streaming.ReissueThresholdFeed`),
    #: created in setup only when ``policy.adapts_threshold`` and
    #: threaded into every interval by the control loop.  It *is* the
    #: adaptive state — persisting it here is what makes the timer
    #: learn across windows.
    threshold_feed: Optional[object] = None
    n_requests: int = 0
    n_migrations: int = 0
    scheduling_time_s: float = 0.0
    #: The state's :class:`~repro.controlplane.loop.ControlLoop`,
    #: created lazily on first use so the phase objects (and their
    #: decision counters) persist across ``run_interval`` calls.
    control_loop: Optional[object] = None


class ExperimentRunner:
    """Evaluates policies under one :class:`RunnerConfig`.

    The (expensive) predictor training is shared across ``run`` calls:
    train once, evaluate all six policies against the same model, as
    the paper does.
    """

    def __init__(
        self,
        config: RunnerConfig,
        trained: Optional[LatencyPredictor] = None,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        self.config = config
        self.scenario = scenario or get_scenario(config.scenario)
        self.interference = default_interference_model(config.interference_noise)
        # Training is deterministic given the config seed, so a caller
        # that already holds the trained predictor for this seed (e.g. a
        # sweep worker evaluating several policies) may inject it to
        # skip retraining without changing any result.
        self._trained: Optional[LatencyPredictor] = trained

    @property
    def trained(self) -> Optional[LatencyPredictor]:
        """The trained predictor, if training has happened (or was injected)."""
        return self._trained

    def _build_service(self):
        """A fresh instance of the scenario's service for this config."""
        return self.scenario.build_service(self.config)

    # ------------------------------------------------------------------
    # predictor
    # ------------------------------------------------------------------
    def trained_predictor(self) -> LatencyPredictor:
        """Train (once) the Eq. 1 per-class models from profiling runs."""
        if self._trained is None:
            cfg = self.config
            rng = RngRegistry(cfg.seed).get("profiling")
            service = self._build_service()
            self._trained = train_predictor_for_service(
                service,
                self.interference,
                rng,
                config=cfg.profiling,
                n_mixed_conditions=cfg.n_profiling_conditions,
            )
        return self._trained

    def oracle_predictor(self) -> OraclePredictor:
        """Ground-truth predictor for the oracle ablation."""
        service = self._build_service()
        reps = {cls: service.representative(cls) for cls in service.classes()}
        return OraclePredictor(self.interference, reps)

    # ------------------------------------------------------------------
    # phase 1: setup
    # ------------------------------------------------------------------
    def setup(self, policy: Policy) -> RunState:
        """Deploy the scenario, start the churn, build the PCS stack."""
        cfg = self.config
        t_wall = time.perf_counter()
        rngs = RngRegistry(cfg.seed)
        engine = SimulationEngine()
        cluster = Cluster.homogeneous(
            cfg.n_nodes, NodeCapacity(machine_slots=cfg.machine_slots)
        )
        service = self._build_service()
        service.deploy(cluster, cfg.deployment, rng=rngs.get("deploy"))
        components = service.components

        # Resolve the scenario's request classes (optionally re-weighted
        # by the config's class_mix).  None — no classes, or the exact
        # degenerate single class — keeps every downstream consumer on
        # the pre-class code path.
        classes = service.topology.resolve_classes(
            self.scenario.request_classes,
            None if cfg.class_mix is None else dict(cfg.class_mix),
        )
        expected_part = None
        if classes is not None:
            expected_part = {
                name: float(p)
                for name, p in zip(
                    classes.group_names,
                    classes.expected_group_participation(),
                )
            }

        # Serving requests consumes resources: set every component's
        # effective demand from the policy's executed-copy load.  This
        # is what makes redundancy expensive cluster-wide.
        self._apply_induced_load(service, policy, expected_part)

        generator = BatchJobGenerator(cfg.generator, rngs.get("batch-churn"))
        generator.start(engine, cluster)

        monitor = OnlineMonitor(
            cfg.monitor, cluster, components, rngs.get("monitor")
        )
        scheduler = None
        executor = None
        if policy.schedules:
            assert isinstance(policy, PCSPolicy)
            predictor = (
                self.oracle_predictor()
                if policy.use_oracle
                else self.trained_predictor()
            )
            if policy.hierarchical_group_size:
                scheduler = HierarchicalScheduler(
                    predictor,
                    policy.scheduler_config,
                    group_size=policy.hierarchical_group_size,
                )
            else:
                scheduler = PCSScheduler(predictor, policy.scheduler_config)
            executor = MigrationExecutor(cluster, components, cfg.migration_cost)

        # Let the batch churn reach its M/G/infinity equilibrium before
        # the first measured interval — otherwise early intervals see an
        # artificially empty cluster.
        engine.run_until(cfg.churn_prewarm_s)

        multipliers = arrival_rate_multipliers(cfg.trace_profile, cfg.n_intervals)
        # Resolve "auto": stream only when an interval is expected to
        # produce more requests than the threshold — every historical
        # configuration sits far below it and stays exact.
        summary_mode = cfg.summary_mode
        if summary_mode == "auto":
            expected_peak = (
                cfg.arrival_rate * cfg.interval_s * float(np.max(multipliers))
            )
            summary_mode = (
                "streaming"
                if expected_peak > cfg.streaming_threshold
                else "exact"
            )

        return RunState(
            policy=policy,
            rngs=rngs,
            engine=engine,
            cluster=cluster,
            service=service,
            monitor=monitor,
            scheduler=scheduler,
            executor=executor,
            drift_rng=rngs.get("interference-drift"),
            request_rng=rngs.get("requests"),
            t_wall=t_wall,
            classes=classes,
            rate_multipliers=multipliers,
            summary_mode=summary_mode,
            # Chunking was asked for but this policy's kernel cannot
            # honour it (queue_sim runs one window); record
            # the fallback so results say so instead of nothing.
            chunk_fallback=(
                cfg.chunk_requests is not None
                and not routing_kernel_for(policy).supports_chunking
            ),
            per_interval_duplicate_load=(
                [] if cfg.record_induced_load else None
            ),
            threshold_feed=(
                ReissueThresholdFeed() if policy.adapts_threshold else None
            ),
        )

    def _apply_induced_load(
        self,
        service,
        policy: Policy,
        expected_part: Optional[Dict[str, float]],
    ) -> None:
        """Set every component's demand from the policy's induced load.

        Per group: the (class-weighted) participation share of the
        request stream, split over the group's replicas, times the
        policy's *group-capped* executed-copy multiplier
        (:meth:`~repro.baselines.policies.InducedLoad.group_multiplier`
        — a RED-5 sub-request on a 2-replica group executes at most
        twice, and a 1-replica group sees no duplication at all,
        matching the kernels' fallbacks).  On groups with at least
        ``copies`` replicas the multiplier equals the legacy scalar
        exactly, so pre-existing scenario × policy sample paths are
        bit-identical.  Shared by :meth:`setup` and live policy
        switching (:meth:`~repro.controlplane.loop.ControlLoop
        .switch_policy`).
        """
        cfg = self.config
        induced = policy.induced_load()
        for comp in service.components:
            group = service.topology.stages[comp.stage_index].groups[
                comp.group_index
            ]
            participation = (
                group.participation
                if expected_part is None
                else expected_part[group.name]
            )
            comp.set_load(
                participation
                * induced.group_multiplier(group.n_replicas)
                * cfg.arrival_rate
                / group.n_replicas
            )

    # ------------------------------------------------------------------
    # the control loop (phases 2 and 3 delegate to it)
    # ------------------------------------------------------------------
    def control_loop(self, state: RunState, **kwargs):
        """The state's :class:`~repro.controlplane.loop.ControlLoop`.

        Created lazily (and cached on the state) so repeated
        ``run_interval`` calls drive the *same* phase objects; the
        default is the virtual-clock batch replay.  Keyword arguments
        (``clock``, ``live``, ...) are honoured only on first creation.
        """
        if state.control_loop is None:
            # Imported lazily: the control plane sits *above* this
            # module in the layering (it imports the runner, not the
            # other way around at import time).
            from repro.controlplane.loop import ControlLoop

            state.control_loop = ControlLoop(self, state, **kwargs)
        return state.control_loop

    def run_interval(self, state: RunState, interval: int) -> IntervalOutcome:
        """Advance churn, serve one interval, record, maybe reschedule.

        Delegates to the control loop's virtual-clock window — the
        statement-for-statement equivalent of the historical inline
        body (bit-identical on ``metrics_dict()``).
        """
        return self.control_loop(state).run_window(interval)

    def collect(self, state: RunState) -> PolicyResult:
        """Reduce the recorded intervals into a :class:`PolicyResult`.

        Delegates to the control loop's reduction.  Both summary modes
        flow through the same
        :class:`~repro.sim.estimators.LatencyAccumulator` seam; the
        exact mode's reduction is bit-identical to the historical
        pool-then-summarise code, and a streamed run records its
        provenance in :attr:`PolicyResult.summary_mode`.
        """
        return self.control_loop(state).collect()

    # ------------------------------------------------------------------
    # the composed loop
    # ------------------------------------------------------------------
    def run(self, policy: Policy) -> PolicyResult:
        """Evaluate one policy; deterministic given the config seed."""
        state = self.setup(policy)
        return self.control_loop(state).run()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _service_distributions(
        self, cluster, components, drift_rng, warmup_set: Set[str]
    ) -> Dict[str, object]:
        """True per-component service distributions for this interval."""
        cfg = self.config
        dists = {}
        warm_frac = min(
            1.0, cfg.migration_cost.warmup_duration_s / cfg.interval_s
        )
        for comp in components:
            truth_u = cluster.contention_for(comp)
            infl = self.interference.noisy_inflation(comp.cls, truth_u, drift_rng)
            if comp.name in warmup_set:
                infl *= 1.0 + (cfg.migration_cost.warmup_penalty - 1.0) * warm_frac
            dists[comp.name] = comp.base_service.scaled(infl)
        return dists

    @staticmethod
    def _global_group_ids(service) -> np.ndarray:
        """Non-decreasing global replica-group id per component."""
        ids = []
        next_id = 0
        for stage in service.topology.stages:
            for group in stage.groups:
                ids.extend([next_id] * group.n_replicas)
                next_id += 1
        return np.asarray(ids, dtype=np.int64)
