"""The four control-plane phases, driven against a real small world."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.policies import BasicPolicy
from repro.controlplane.loop import ControlLoop
from repro.controlplane.phases import (
    ActuatePhase,
    DecidePhase,
    MonitorPhase,
    PredictPhase,
)
from repro.errors import ControlPlaneError
from repro.experiments.fig6 import paper_pcs_policy
from repro.scenarios import get_scenario
from repro.scheduler.pcs import PCSScheduler
from repro.sim.runner import ExperimentRunner


def _runner(**overrides):
    kwargs = dict(
        n_nodes=6, arrival_rate=30.0, interval_s=8.0, n_intervals=3,
        warmup_intervals=1, seed=0, n_profiling_conditions=6, scale=0.2,
    )
    kwargs.update(overrides)
    return ExperimentRunner(
        get_scenario("fanout-feed").runner_config(**kwargs)
    )


@pytest.fixture(scope="module")
def pcs_world():
    """A PCS world advanced through its first window (so the phases
    have a real outcome to chew on)."""
    runner = _runner()
    state = runner.setup(paper_pcs_policy())
    loop = ControlLoop(runner, state)
    outcome = loop.run_window(0)
    return runner, state, loop, outcome


class TestMonitorPhase:
    def test_observe_builds_full_snapshot(self, pcs_world):
        runner, state, loop, outcome = pcs_world
        snap = loop.monitor.observe(0, outcome)
        assert snap.interval == 0
        assert snap.n_requests == outcome.n_requests
        assert snap.service_arrival_rate == pytest.approx(
            outcome.n_requests / runner.config.interval_s
        )
        assert snap.node_totals.shape == (len(state.cluster.nodes), 4)

    def test_snapshot_is_immutable(self, pcs_world):
        _, _, loop, outcome = pcs_world
        snap = loop.monitor.observe(0, outcome)
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.interval = 7

    def test_replay_monitor_has_no_gauge(self, pcs_world):
        _, _, loop, _ = pcs_world
        assert loop.monitor.gauge is None
        # Feeding a gauge-less monitor is a silent no-op (replay path).
        loop.monitor.record_window(0.1, 0.05, 100)


class TestPredictPhase:
    def test_inputs_shapes(self, pcs_world):
        runner, state, loop, outcome = pcs_world
        snap = loop.monitor.observe(0, outcome)
        inputs = loop.predict.inputs(snap)
        n = len(state.service.components)
        assert inputs.demands.shape == (n, 4)
        assert inputs.arrival_rates.shape == (n,)
        assert (inputs.arrival_rates >= 0).all()
        assert inputs.node_totals.shape == snap.node_totals.shape

    def test_overfull_node_keeps_its_count_as_limit(self, pcs_world):
        # A starting placement may put more components on a node than
        # service_slots allows.  That node's limit is its current count
        # (so it takes no new component), every other node keeps
        # service_slots, and a PCS decision never grows the full node.
        runner, state, loop, outcome = pcs_world
        counts = np.bincount(
            state.cluster.placement_indices(state.service.components),
            minlength=len(state.cluster),
        )
        full = int(np.argmax(counts))
        slots = int(np.sort(counts)[-2])
        assert counts[full] > slots  # exactly one node is over the limit
        phase = PredictPhase(
            state.service, state.cluster, state.classes,
            runner.config.interval_s, slots, loop.predict.group_ids,
        )
        inputs = phase.inputs(loop.monitor.observe(0, outcome))
        assert inputs.node_limits[full] == counts[full]
        others = np.arange(len(state.cluster)) != full
        assert (inputs.node_limits[others] == slots).all()
        decision = PCSScheduler(
            state.scheduler.predictor, paper_pcs_policy().scheduler_config
        ).schedule(inputs)
        assert np.sum(decision.assignment == full) <= counts[full]
        assert (
            np.bincount(decision.assignment, minlength=len(state.cluster))
            <= inputs.node_limits
        ).all()

    def test_limits_are_service_slots_without_an_overfull_node(
        self, pcs_world
    ):
        # Where no node starts past service_slots, every limit stays
        # service_slots: the over-full rule changes no other decision.
        runner, state, loop, outcome = pcs_world
        counts = np.bincount(
            state.cluster.placement_indices(state.service.components),
            minlength=len(state.cluster),
        )
        slots = int(counts.max())
        phase = PredictPhase(
            state.service, state.cluster, state.classes,
            runner.config.interval_s, slots, loop.predict.group_ids,
        )
        inputs = phase.inputs(loop.monitor.observe(0, outcome))
        assert (inputs.node_limits == slots).all()

    def test_overfull_starting_placement_runs_end_to_end(self, capsys):
        # Regression: this seed's random placement fills a node past
        # service_slots, which used to abort the PCS run in its first
        # decision with "current assignment already exceeds node_limits".
        from repro.cli import main

        assert main(
            ["quick", "--scenario", "fanout-feed", "--seed", "2404",
             "--rate", "40"]
        ) == 0
        assert "PCS" in capsys.readouterr().out

    def test_retrain_disabled_in_replay(self, pcs_world):
        _, _, loop, _ = pcs_world
        assert loop.predict.retrain_every == 0
        assert not loop.predict.retrain_due()
        assert loop.predict.refresh() is None

    def test_negative_retrain_cadence_rejected(self, pcs_world):
        runner, state, _, _ = pcs_world
        with pytest.raises(ControlPlaneError):
            PredictPhase(
                state.service, state.cluster, state.classes, 8.0, 4,
                np.zeros(1, dtype=int), retrain_every=-1,
            )


class TestDecidePhase:
    def test_counts_decisions(self, pcs_world):
        _, _, loop, outcome = pcs_world
        # run_window(0) already fired one decision (interval 0 of 3).
        assert loop.decide.active
        assert loop.decide.n_decisions == 1
        assert loop.decide.last_outcome is not None
        summary = loop.decide.last_outcome.summary()
        assert set(summary) >= {
            "n_migrations", "initial_overall_s", "final_overall_s",
            "total_time_s",
        }

    def test_inert_phase_raises(self):
        phase = DecidePhase(None)
        assert not phase.active
        with pytest.raises(ControlPlaneError, match="inert"):
            phase.decide(None)

    def test_rebind_pcs_scheduler(self, pcs_world):
        _, state, loop, _ = pcs_world
        scheduler = loop.decide.scheduler
        inner = (
            scheduler._inner if hasattr(scheduler, "_inner") else scheduler
        )
        old = inner.predictor
        sentinel = object()
        loop.decide.rebind_predictor(sentinel)
        try:
            assert inner.predictor is sentinel
        finally:
            loop.decide.rebind_predictor(old)

    def test_rebind_on_inert_phase_is_noop(self):
        DecidePhase(None).rebind_predictor(object())


class TestActuatePhase:
    def test_inert_phase_raises(self):
        phase = ActuatePhase(None)
        with pytest.raises(ControlPlaneError, match="inert"):
            phase.apply(None)
        assert phase.enforced == 0

    def test_tracks_enforced_total(self, pcs_world):
        _, state, loop, _ = pcs_world
        assert loop.actuate.enforced == state.executor.enforced


class TestNonSchedulingPolicy:
    def test_basic_policy_builds_inert_phases(self):
        runner = _runner()
        state = runner.setup(BasicPolicy())
        loop = ControlLoop(runner, state)
        assert not loop.decide.active
        assert loop.actuate.executor is None
