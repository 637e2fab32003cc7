"""The control loop's clock seam: virtual (replay) vs wall (live).

Both clocks speak **simulation time** — the loop always asks "advance
to sim time ``t``", never "sleep N seconds" — so the loop body is
identical in both modes and the batch replay stays the degenerate case:

:class:`VirtualClock`
    wraps the run's :class:`~repro.simcore.engine.SimulationEngine`;
    ``advance_to`` runs the engine to the target and returns
    immediately.  Seeded and deterministic — the existing replay,
    bit-identical.

:class:`WallClock`
    a linear map between sim time and the host's monotonic clock:
    ``sim = origin + (monotonic - t0) * dilation``.  ``advance_to``
    blocks (``wait_until`` awaits) until the wall reaches the target;
    the *environment* (engine, churn) is then advanced separately by
    the loop, so a live service replays the same seeded world, just
    paced against real time.  ``dilation`` is sim seconds per wall
    second — large values fast-forward a live session (benchmarks, CI).
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod
from typing import Optional

from repro.errors import ControlPlaneError
from repro.simcore.engine import SimulationEngine

__all__ = ["Clock", "VirtualClock", "WallClock"]


class Clock(ABC):
    """When the control loop may compute the next window."""

    #: The simulation engine this clock *drives*, if any.  The loop
    #: advances the environment itself when the clock doesn't.
    engine: Optional[SimulationEngine] = None

    @abstractmethod
    def now(self) -> float:
        """Current simulation time."""

    @abstractmethod
    def advance_to(self, sim_time: float) -> None:
        """Block until the clock reaches ``sim_time`` (no-op if past)."""

    async def wait_until(self, sim_time: float) -> None:
        """Async variant; the default delegates to :meth:`advance_to`
        (instantaneous for a virtual clock)."""
        self.advance_to(sim_time)


class VirtualClock(Clock):
    """Deterministic replay time: the engine's clock, advanced eagerly."""

    def __init__(self, engine: SimulationEngine) -> None:
        self.engine = engine

    def now(self) -> float:
        return self.engine.now

    def advance_to(self, sim_time: float) -> None:
        """Fire every event up to ``sim_time`` and land the clock there.

        Exactly the replay loop's historical ``engine.run_until`` call;
        asking for a time already reached is a no-op.
        """
        if sim_time > self.engine.now:
            self.engine.run_until(sim_time)


class WallClock(Clock):
    """Real time, linearly mapped onto simulation time."""

    def __init__(self, origin: float = 0.0, dilation: float = 1.0) -> None:
        if dilation <= 0:
            raise ControlPlaneError(
                f"dilation must be positive, got {dilation}"
            )
        #: Sim time corresponding to the instant this clock was built
        #: (a live run starts its wall at the end of the churn prewarm).
        self.origin = float(origin)
        #: Sim seconds per wall second.
        self.dilation = float(dilation)
        self._t0 = _time.monotonic()
        self.engine = None

    def now(self) -> float:
        return self.origin + (_time.monotonic() - self._t0) * self.dilation

    def _delay_s(self, sim_time: float) -> float:
        return (sim_time - self.now()) / self.dilation

    def advance_to(self, sim_time: float) -> None:
        delay = self._delay_s(sim_time)
        if delay > 0:
            _time.sleep(delay)

    async def wait_until(self, sim_time: float) -> None:
        import asyncio  # only the live service awaits; batch runs never do

        delay = self._delay_s(sim_time)
        if delay > 0:
            await asyncio.sleep(delay)
