"""The four control-plane phases: monitor → predict → decide → act.

Each phase is the named, separately-drivable form of a body that used
to be inlined in the runner's interval loop; together they are one PCS
control step.  The decomposition is *statement-preserving*:
the monitor phase performs exactly the RNG draws (node windows, in
cluster order) and the predict phase exactly the float arithmetic of
the pre-refactor code, so driving them in sequence is bit-identical to
the historical inline body — the golden pins enforce this.

Live-mode extras (the gauge feed and the rolling retrain) are strictly
opt-in: a replay-constructed phase set performs no additional RNG
draws and no additional arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set

import numpy as np

from repro.baselines.policies import InducedLoad
from repro.errors import ControlPlaneError
from repro.model.matrix import MatrixInputs
from repro.model.predictor import LatencyPredictor, TrainedPredictor
from repro.model.training import TrainingSet, train_combined_model
from repro.monitoring.monitor import OnlineMonitor
from repro.monitoring.samples import FrozenSampleWindow
from repro.monitoring.streaming import ReissueThresholdFeed, RollingGauge
from repro.scheduler.migration import MigrationExecutor
from repro.scheduler.pcs import SchedulingOutcome
from repro.service.topology import ResolvedClassMix

__all__ = [
    "MonitorSnapshot",
    "MonitorPhase",
    "PredictPhase",
    "DecidePhase",
    "ActuatePhase",
]

#: Fewest rolling observations per component class before a live
#: retrain is attempted (Eq. 1 fits four contention features plus an
#: intercept; fewer pairs than this would fit noise).
MIN_RETRAIN_SAMPLES = 8


@dataclass(frozen=True)
class MonitorSnapshot:
    """What one monitoring window hands to the predict phase.

    Immutable by construction: the windows are frozen views
    (:meth:`~repro.monitoring.monitor.OnlineMonitor.snapshot`) and the
    node matrix is the one freshly drawn array — later monitor activity
    cannot mutate a snapshot already taken.
    """

    #: Zero-based index of the window that produced this snapshot.
    interval: int
    #: Requests the window actually served.
    n_requests: int
    #: Arrival rate estimated from the window's own request count —
    #: the paper's log-profiling (counting a Poisson stream).
    service_arrival_rate: float
    #: ``(n_nodes, 4)`` noisy windowed node-total contention (Table
    #: III's ``U_nj``), rows in cluster-node order.
    node_totals: np.ndarray
    #: Frozen per-component sampling windows at snapshot time.
    windows: Mapping[str, FrozenSampleWindow]


class MonitorPhase:
    """Phase 1: read the monitored state of the world.

    Wraps :class:`~repro.monitoring.monitor.OnlineMonitor` (the noisy
    two-cadence contention windows) and, in live mode, a
    :class:`~repro.monitoring.streaming.RollingGauge` of incremental
    per-window latency summaries.  The replay path constructs this
    phase without a gauge, so it draws exactly the monitor RNG the
    historical inline code drew — nothing more.
    """

    def __init__(
        self,
        monitor: OnlineMonitor,
        cluster,
        interval_s: float,
        gauge: Optional[RollingGauge] = None,
        threshold_feed: Optional[ReissueThresholdFeed] = None,
    ) -> None:
        self.monitor = monitor
        self.cluster = cluster
        self.interval_s = float(interval_s)
        self.gauge = gauge
        #: Streaming reissue-threshold estimate shared with the run's
        #: adaptive routing kernel (None for fixed-threshold policies).
        #: The kernel writes per-window tail observations into it during
        #: simulation; the monitor phase owns it so the control plane
        #: can report the currently tuned threshold.
        self.threshold_feed = threshold_feed

    def observe(self, interval: int, outcome) -> MonitorSnapshot:
        """One windowed observation of every node and component.

        The node-window draws consume the monitor's named RNG stream in
        cluster-node order — the exact sequence the pre-refactor inline
        scheduling step consumed.
        """
        lam_service = outcome.n_requests / self.interval_s
        node_totals = np.stack(
            [
                self.monitor.observe_node_window(node, self.interval_s).as_array()
                for node in self.cluster.nodes
            ]
        )
        return MonitorSnapshot(
            interval=interval,
            n_requests=outcome.n_requests,
            service_arrival_rate=lam_service,
            node_totals=node_totals,
            windows=self.monitor.snapshot(),
        )

    def record_window(self, p99: float, mean: float, n: int) -> None:
        """Feed one completed window's latency summary to the gauge
        (no-op without one — the replay path)."""
        if self.gauge is not None and n:
            self.gauge.observe_window(p99, mean, n)

    def adaptive_threshold_s(self) -> Optional[float]:
        """The routing kernel's currently tuned reissue/hedge threshold
        — ``None`` for fixed-threshold policies or before the feed has
        warmed up."""
        if self.threshold_feed is None:
            return None
        return self.threshold_feed.current_threshold_s()


class PredictPhase:
    """Phase 2: turn monitored state into performance-matrix inputs.

    Owns the Eq. 1 predictor's *refresh* seam: in live mode it
    accumulates rolling (contention, mean service time) pairs per
    component class via :class:`~repro.model.training.TrainingSet` and
    periodically refits :func:`~repro.model.training.train_combined_model`,
    handing the new :class:`~repro.model.predictor.TrainedPredictor` to
    the decide phase.  In replay mode (``retrain_every=0``) it is a
    pure function of the snapshot.
    """

    def __init__(
        self,
        service,
        cluster,
        classes: Optional[ResolvedClassMix],
        interval_s: float,
        service_slots: int,
        group_ids: np.ndarray,
        retrain_every: int = 0,
        training_window: int = 256,
        induced_load: Optional[InducedLoad] = None,
    ) -> None:
        if retrain_every < 0:
            raise ControlPlaneError(
                f"retrain_every must be >= 0, got {retrain_every}"
            )
        self.service = service
        self.cluster = cluster
        self.classes = classes
        self.interval_s = float(interval_s)
        self.service_slots = int(service_slots)
        self.group_ids = group_ids
        #: Duplicate-load model of the active routing policy; the
        #: predicted per-replica arrival rates are inflated by its
        #: group-capped multiplier so Algorithm 1 sees the load the
        #: policy actually induces.  ``None`` keeps the historical
        #: policy-blind expression bit-for-bit.
        self.induced_load = induced_load
        #: Refit cadence in windows; 0 disables the rolling retrain.
        self.retrain_every = int(retrain_every)
        self._training: Dict[object, TrainingSet] = {}
        self._training_window = int(training_window)
        self._windows_observed = 0
        self.n_retrains = 0

    def inputs(self, snapshot: MonitorSnapshot) -> MatrixInputs:
        """Build Algorithm 1's inputs from one monitor snapshot."""
        service = self.service
        classes = self.classes
        components = service.components
        lam_service = snapshot.service_arrival_rate
        expected_part = None
        if classes is not None:
            expected_part = {
                name: float(p)
                for name, p in zip(
                    classes.group_names,
                    classes.expected_group_participation(),
                )
            }
        lam = np.empty(len(components))
        for idx, comp in enumerate(components):
            group = service.topology.stages[comp.stage_index].groups[
                comp.group_index
            ]
            # Optional groups receive only their participation share
            # (exactly lam_service / n_replicas on chain topologies);
            # under a class mix, the mix-weighted expected share.
            participation = (
                group.participation
                if expected_part is None
                else expected_part[group.name]
            )
            if self.induced_load is None:
                lam[idx] = participation * lam_service / group.n_replicas
            else:
                # Redundancy/reissue executes extra copies: each replica
                # sees the group-capped multiple of its nominal share.
                lam[idx] = (
                    participation
                    * self.induced_load.group_multiplier(group.n_replicas)
                    * lam_service
                    / group.n_replicas
                )
        topology = service.topology
        assignment = np.array(self.cluster.placement_indices(components))
        # The starting placement may fill a node past service_slots (up
        # to its machine slots); such a node keeps its current count as
        # its limit, so it takes no new component but may shed some.
        node_limits = np.maximum(
            self.service_slots,
            np.bincount(assignment, minlength=len(self.cluster)),
        )
        return MatrixInputs(
            stage_of=np.array([c.stage_index for c in components]),
            classes=[c.cls for c in components],
            demands=np.stack([c.demand.as_array() for c in components]),
            assignment=assignment,
            node_totals=snapshot.node_totals,
            arrival_rates=lam,
            node_limits=node_limits,
            group_of=self.group_ids,
            # DAG topologies weight stragglers by critical-path
            # membership; None keeps the exact chain-sum objective.
            stage_predecessors=(
                None if topology.is_chain else topology.predecessor_indices
            ),
            # A class mix turns the objective into the mix-weighted
            # average of per-class critical paths (chain sums stay
            # chain sums, scaled by each class's stage participation).
            class_weights=None if classes is None else classes.weights,
            class_stage_participation=(
                None if classes is None else classes.stage_participation
            ),
            # Heavy classes work every stage they visit service_scale×
            # longer (the simulators already apply this); folding the
            # same multiplier into the objective keeps the predictor
            # honest about where a mixed workload's latency comes from.
            class_service_scales=(
                None if classes is None else classes.service_scales
            ),
        )

    # ------------------------------------------------------------------
    # rolling retrain (live mode only)
    # ------------------------------------------------------------------
    def observe_truth(
        self, monitor: OnlineMonitor, dists: Mapping[str, object]
    ) -> None:
        """Record one window's (contention, mean service time) pair per
        component class — a live deployment's log-profiling.

        The contention reading comes through the noisy monitor (never
        ground truth directly); the mean service time is the window's
        realized per-class service distribution mean, what averaging a
        window's worth of request logs estimates.
        """
        if not self.retrain_every:
            return
        for cls in self.service.classes():
            rep = self.service.representative(cls)
            contention = monitor.observe_window(rep, self.interval_s)
            self._training.setdefault(
                cls, TrainingSet(max_samples=self._training_window)
            ).add(contention, dists[rep.name].mean)
        self._windows_observed += 1

    def retrain_due(self) -> bool:
        """Whether enough fresh windows accumulated for a refit."""
        return bool(
            self.retrain_every
            and self._windows_observed
            and self._windows_observed % self.retrain_every == 0
        )

    def refresh(self) -> Optional[TrainedPredictor]:
        """Refit Eq. 1 on the rolling windows; ``None`` until every
        class has enough observations."""
        if not self._training:
            return None
        if any(
            len(ts) < MIN_RETRAIN_SAMPLES for ts in self._training.values()
        ):
            return None
        models, scvs = {}, {}
        for cls, training in self._training.items():
            models[cls], scvs[cls] = train_combined_model(training)
        self.n_retrains += 1
        return TrainedPredictor(models, scvs)


class DecidePhase:
    """Phase 3: run the scheduling policy (Algorithm 1) on the inputs."""

    def __init__(self, scheduler) -> None:
        #: A PCS/Hierarchical scheduler, or None for non-scheduling
        #: policies (the phase is then inert).
        self.scheduler = scheduler
        self.n_decisions = 0
        self.last_outcome: Optional[SchedulingOutcome] = None

    @property
    def active(self) -> bool:
        """Whether this run's policy schedules at all."""
        return self.scheduler is not None

    def decide(self, inputs: MatrixInputs) -> SchedulingOutcome:
        """One scheduling decision (mutates ``inputs`` to the final
        allocation, as :meth:`PCSScheduler.schedule` documents)."""
        if self.scheduler is None:
            raise ControlPlaneError(
                "decide phase is inert: this policy does not schedule"
            )
        outcome = self.scheduler.schedule(inputs)
        self.n_decisions += 1
        self.last_outcome = outcome
        return outcome

    def rebind_predictor(self, predictor: LatencyPredictor) -> None:
        """Swap in a freshly retrained predictor (live mode).

        Both scheduler shapes are covered: ``PCSScheduler`` holds the
        predictor directly, ``HierarchicalScheduler`` inside its inner
        scheduler.  The swap takes effect at the next decision — a
        decision never sees a mid-flight predictor change.
        """
        if self.scheduler is None:
            return
        if hasattr(self.scheduler, "predictor"):
            self.scheduler.predictor = predictor
        elif hasattr(self.scheduler, "_inner"):
            self.scheduler._inner.predictor = predictor
        else:  # pragma: no cover - no known scheduler shape lacks both
            raise ControlPlaneError(
                f"cannot rebind predictor on {type(self.scheduler).__name__}"
            )


class ActuatePhase:
    """Phase 4: enforce the decided migrations on the cluster."""

    def __init__(self, executor: Optional[MigrationExecutor]) -> None:
        self.executor = executor
        #: component name -> destination node of the last actuation.
        self.last_moved: Dict[str, object] = {}

    def apply(self, outcome: SchedulingOutcome) -> Set[str]:
        """Enforce ``outcome``; returns the warm-up set (the components
        that physically moved and pay the migration penalty next
        window)."""
        if self.executor is None:
            raise ControlPlaneError(
                "actuate phase is inert: this policy does not schedule"
            )
        moved = self.executor.enforce(outcome)
        self.last_moved = dict(moved)
        return set(moved)

    @property
    def enforced(self) -> int:
        """Total migrations enforced across the run."""
        return 0 if self.executor is None else self.executor.enforced
