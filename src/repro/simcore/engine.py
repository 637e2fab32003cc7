"""The discrete-event simulation engine.

A thin, deterministic driver over :class:`repro.simcore.events.EventQueue`:
it owns the virtual clock, fires events in time order, and schedules
callbacks after a delay (``schedule(delay, fn)``) or at an absolute
time (``schedule_at(time, fn)``).  The batch-job generator's arrivals
and departures are its events.

The engine never advances past events it has not fired, so callbacks can
schedule further events freely, including at the current instant.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.simcore.events import Event, EventQueue

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Virtual clock plus event dispatch.

    Examples
    --------
    >>> eng = SimulationEngine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return self._queue.live_count()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        return self._queue.push(Event(time=float(time), callback=callback, label=label))

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest event.  Returns False when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - guarded by schedule_at
            raise SimulationError("event queue yielded an event in the past")
        self._now = event.time
        event.callback()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        fired = 0
        try:
            while max_events is None or fired < max_events:
                if not self.step():
                    break
                fired += 1
        finally:
            self._running = False
        return fired

    def run_until(self, time: float) -> int:
        """Fire every event with ``event.time <= time``; clock ends at ``time``.

        Returns the number of events fired by this call.
        """
        if time < self._now:
            raise SimulationError(
                f"run_until target t={time:.6f} is before now={self._now:.6f}"
            )
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        fired = 0
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > time:
                    break
                self.step()
                fired += 1
            self._now = float(time)
        finally:
            self._running = False
        return fired

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        self._queue.clear()
        self._now = float(start_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.3f}, pending={self.pending})"
        )
