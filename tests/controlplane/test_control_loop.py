"""The composed loop: replay identity across every built-in scenario,
plus the live-mode behaviours the batch path must never exhibit."""

import pytest

from repro.baselines.policies import BasicPolicy
from repro.controlplane import ControlLoop, VirtualClock, WallClock
from repro.errors import ControlPlaneError
from repro.experiments.fig6 import paper_pcs_policy
from repro.scenarios import get_scenario, scenario_names
from repro.sim.runner import ExperimentRunner

#: Per-scenario shape shrink so the full identity matrix stays quick.
SCALES = {
    "nutch-search": 1.0,
    "pipeline-deep": 0.5,
    "fanout-feed": 0.2,
    "diamond-search": 0.5,
    "branchy-api": 0.5,
    "mixed-frontend": 0.5,
}


def _runner(scenario, **overrides):
    kwargs = dict(
        n_nodes=8, arrival_rate=30.0, interval_s=8.0, n_intervals=3,
        warmup_intervals=1, seed=0, n_profiling_conditions=6,
        scale=SCALES[scenario],
    )
    if scenario == "nutch-search":
        from repro.service.nutch import NutchConfig

        kwargs["nutch"] = NutchConfig(
            n_search_groups=3, replicas_per_group=2,
            n_segmenters=1, n_aggregators=1,
        )
    kwargs.update(overrides)
    return ExperimentRunner(get_scenario(scenario).runner_config(**kwargs))


class TestReplayIdentity:
    """The refactor's acceptance bar: an explicitly constructed
    ControlLoop on a VirtualClock is byte-identical to
    ``ExperimentRunner.run`` for all six built-in scenarios."""

    def test_scale_table_covers_the_catalog(self):
        assert sorted(SCALES) == scenario_names()

    @pytest.mark.parametrize("scenario", sorted(SCALES))
    def test_loop_matches_runner_bit_for_bit(self, scenario):
        baseline = _runner(scenario).run(BasicPolicy())
        runner = _runner(scenario)
        state = runner.setup(BasicPolicy())
        loop = ControlLoop(runner, state, clock=VirtualClock(state.engine))
        assert loop.run().metrics_dict() == baseline.metrics_dict()

    def test_identity_holds_with_pcs_decisions(self):
        scenario = "fanout-feed"
        baseline = _runner(scenario).run(paper_pcs_policy())
        runner = _runner(scenario)
        state = runner.setup(paper_pcs_policy())
        loop = ControlLoop(runner, state, clock=VirtualClock(state.engine))
        result = loop.run()
        assert result.metrics_dict() == baseline.metrics_dict()
        assert result.n_migrations == baseline.n_migrations
        assert loop.decide.n_decisions == runner.config.n_intervals - 1

    def test_window_end_time(self):
        runner = _runner("fanout-feed")
        state = runner.setup(BasicPolicy())
        loop = ControlLoop(runner, state)
        cfg = runner.config
        assert loop.window_end_time(0) == cfg.churn_prewarm_s + cfg.interval_s
        assert loop.window_end_time(2) == (
            cfg.churn_prewarm_s + 3 * cfg.interval_s
        )

    def test_runner_facade_reuses_one_loop(self):
        runner = _runner("fanout-feed")
        state = runner.setup(BasicPolicy())
        loop = runner.control_loop(state)
        assert runner.control_loop(state) is loop

    def test_async_window_equals_sync(self):
        import asyncio

        baseline = _runner("fanout-feed").run(BasicPolicy())
        runner = _runner("fanout-feed")
        state = runner.setup(BasicPolicy())
        loop = ControlLoop(runner, state, clock=VirtualClock(state.engine))

        async def drive():
            for interval in range(runner.config.n_intervals):
                await loop.run_window_async(interval)

        asyncio.run(drive())
        assert loop.collect().metrics_dict() == baseline.metrics_dict()


class TestLiveMode:
    def _live_loop(self, policy=None, **kwargs):
        runner = _runner(
            "fanout-feed", warmup_intervals=0, summary_mode="streaming",
            trace_profile="burst", n_intervals=4,
        )
        state = runner.setup(policy if policy is not None else paper_pcs_policy())
        defaults = dict(live=True, history_limit=3)
        defaults.update(kwargs)
        return runner, state, ControlLoop(runner, state, **defaults)

    def test_decides_after_every_window(self):
        runner, state, loop = self._live_loop()
        for interval in range(4):
            loop.run_window(interval)
        # Replay skips the post-final decision; a live stream has no
        # final window and decides after every one.
        assert loop.decide.n_decisions == 4
        assert loop.windows_completed == 4

    def test_gauge_engaged_and_history_bounded(self):
        runner, state, loop = self._live_loop()
        for interval in range(5):
            loop.run_window(interval)
        assert loop.monitor.gauge is not None
        assert loop.monitor.gauge.windows == 5
        assert len(state.per_interval_p99) <= 3
        assert len(state.per_interval_mean) <= 3

    def test_windows_run_past_the_trace_cycle(self):
        # Interval 5 of a 4-window cycle replays the profile cyclically
        # instead of raising (the replay path would IndexError).
        runner, state, loop = self._live_loop()
        for interval in range(6):
            loop.run_window(interval)
        assert loop.windows_completed == 6

    def test_rolling_retrain_rebinds_predictor(self):
        runner, state, loop = self._live_loop(retrain_every=2)
        scheduler = loop.decide.scheduler
        inner = (
            scheduler._inner if hasattr(scheduler, "_inner") else scheduler
        )
        before = inner.predictor
        # MIN_RETRAIN_SAMPLES=8 per class; cadence 2 → first refresh
        # lands on window 8.
        for interval in range(9):
            loop.run_window(interval)
        assert loop.predict.n_retrains >= 1
        assert inner.predictor is not before

    def test_summary_is_json_shaped(self):
        import json

        runner, state, loop = self._live_loop()
        loop.run_window(0)
        summary = loop.summary()
        json.dumps(summary)  # must be serialisable as-is
        assert summary["windows_completed"] == 1
        assert summary["n_decisions"] == 1
        assert summary["n_requests"] > 0
        assert summary["last_window_p99_s"] > 0
        assert summary["last_decision"] is not None

    def test_bad_history_limit_rejected(self):
        runner = _runner("fanout-feed")
        state = runner.setup(BasicPolicy())
        with pytest.raises(ControlPlaneError, match="history_limit"):
            ControlLoop(runner, state, history_limit=0)


@pytest.mark.tier2
class TestLiveWindowsOnWallClock:
    """24 live fanout-feed windows on a wall clock dilated until pacing
    costs nothing: the hot path of ``repro serve``."""

    N_WINDOWS = 24

    def _runner(self, summary_mode):
        return _runner(
            "fanout-feed", arrival_rate=40.0, n_intervals=self.N_WINDOWS,
            warmup_intervals=0, n_profiling_conditions=8, scale=0.5,
            trace_profile="burst", summary_mode=summary_mode,
        )

    def test_every_window_decides_within_the_window(self):
        # The batch replay of the same seeded world serves requests.
        assert self._runner("exact").run(paper_pcs_policy()).n_requests > 0

        runner = self._runner("streaming")
        state = runner.setup(paper_pcs_policy())
        clock = WallClock(origin=runner.config.churn_prewarm_s, dilation=1e6)
        loop = ControlLoop(
            runner, state, clock=clock, live=True,
            history_limit=self.N_WINDOWS,
        )
        latencies = []
        for window in range(self.N_WINDOWS):
            loop.run_window(window)
            latencies.append(loop.last_decision_latency_s)
        assert loop.decide.n_decisions == self.N_WINDOWS
        assert all(lat is not None for lat in latencies)
        # The decision pass is a small fraction of an 8 s window.
        assert max(latencies) < runner.config.interval_s
