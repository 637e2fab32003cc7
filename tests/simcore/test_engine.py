"""Unit tests for the simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.simcore.engine import SimulationEngine


class TestClockAndScheduling:
    def test_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_custom_start_time(self):
        assert SimulationEngine(start_time=42.0).now == 42.0

    def test_schedule_negative_delay_rejected(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        eng = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(9.0, lambda: None)

    def test_zero_delay_event_fires_at_now(self):
        eng = SimulationEngine(start_time=5.0)
        seen = []
        eng.schedule(0.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.0]


class TestRun:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine()
        order = []
        eng.schedule(3.0, lambda: order.append("late"))
        eng.schedule(1.0, lambda: order.append("early"))
        eng.schedule(2.0, lambda: order.append("mid"))
        fired = eng.run()
        assert fired == 3
        assert order == ["early", "mid", "late"]
        assert eng.now == 3.0

    def test_callbacks_can_schedule_more_events(self):
        eng = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(eng.now)
            if len(ticks) < 5:
                eng.schedule(1.0, tick)

        eng.schedule(1.0, tick)
        eng.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_max_events_bounds_run(self):
        eng = SimulationEngine()
        for i in range(10):
            eng.schedule(float(i + 1), lambda: None)
        assert eng.run(max_events=4) == 4
        assert eng.pending == 6

    def test_run_until_stops_clock_at_target(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule(1.0, lambda: seen.append(1))
        eng.schedule(5.0, lambda: seen.append(5))
        fired = eng.run_until(3.0)
        assert fired == 1
        assert seen == [1]
        assert eng.now == 3.0
        # The t=5 event still fires on a later run.
        eng.run_until(10.0)
        assert seen == [1, 5]
        assert eng.now == 10.0

    def test_run_until_includes_boundary_events(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule(2.0, lambda: seen.append("boundary"))
        eng.run_until(2.0)
        assert seen == ["boundary"]

    def test_run_until_backwards_rejected(self):
        eng = SimulationEngine()
        eng.run_until(5.0)
        with pytest.raises(SimulationError):
            eng.run_until(4.0)

    def test_events_fired_counter(self):
        eng = SimulationEngine()
        for _ in range(3):
            eng.schedule(1.0, lambda: None)
        assert eng.run() == 3


class TestReset:
    def test_reset_clears_state(self):
        eng = SimulationEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        eng.schedule(9.0, lambda: None)
        eng.reset()
        assert eng.now == 0.0
        assert eng.pending == 0
        assert eng.run() == 0


class TestDispatchDetails:
    def test_step_on_idle_engine_returns_false(self):
        eng = SimulationEngine()
        assert eng.step() is False
        assert eng.now == 0.0

    def test_cancelled_event_neither_fires_nor_counts(self):
        eng = SimulationEngine()
        seen = []
        event = eng.schedule(1.0, lambda: seen.append("cancelled"))
        eng.schedule(2.0, lambda: seen.append("kept"))
        event.cancel()
        assert eng.pending == 1
        assert eng.run() == 1
        assert seen == ["kept"]

    def test_schedule_returns_labelled_event(self):
        eng = SimulationEngine(start_time=1.0)
        event = eng.schedule(2.5, lambda: None, label="arrival")
        assert (event.time, event.label) == (3.5, "arrival")

    def test_run_until_on_empty_queue_advances_clock(self):
        eng = SimulationEngine()
        assert eng.run_until(7.5) == 0
        assert eng.now == 7.5

    def test_zero_delay_follow_up_fires_within_run_until(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule(
            1.0, lambda: eng.schedule(0.0, lambda: seen.append(eng.now))
        )
        assert eng.run_until(1.0) == 2
        assert seen == [1.0]


class TestReentrancy:
    def test_run_from_callback_rejected(self):
        eng = SimulationEngine()
        eng.schedule(1.0, eng.run)
        with pytest.raises(SimulationError, match="re-entrant"):
            eng.run()

    def test_run_until_from_callback_rejected(self):
        eng = SimulationEngine()
        eng.schedule(1.0, lambda: eng.run_until(5.0))
        with pytest.raises(SimulationError, match="re-entrant"):
            eng.run_until(2.0)

    def test_engine_usable_after_callback_raises(self):
        eng = SimulationEngine()

        def boom():
            raise RuntimeError("boom")

        eng.schedule(1.0, boom)
        eng.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.now == 1.0
        assert eng.run() == 1  # not stuck in the running state
        assert eng.now == 2.0
