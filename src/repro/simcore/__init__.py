"""Discrete-event simulation substrate.

This subpackage provides the machinery every higher layer builds on:

- :mod:`repro.simcore.events` — the event record and the time-ordered
  event queue (binary heap with deterministic FIFO tie-breaking).
- :mod:`repro.simcore.engine` — the simulation engine: a virtual clock
  with ``schedule``/``schedule_at`` and ``run_until``/``run``; its
  events are the batch-job generator's arrivals and departures.
- :mod:`repro.simcore.distributions` — service-time / interarrival
  distributions with analytic moments (mean, variance, squared
  coefficient of variation) needed by the M/G/1 model of paper Eq. 2.
- :mod:`repro.simcore.lindley` — the FIFO single-server queue sample
  path (Lindley recursion), as a legible pure-Python reference and as
  the NumPy-vectorised production kernel.
"""

from repro.simcore.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    LogNormal,
    Pareto,
)
from repro.simcore.engine import SimulationEngine
from repro.simcore.events import Event, EventQueue
from repro.simcore.lindley import (
    lindley_waits,
    lindley_waits_reference,
    sojourn_times,
)

__all__ = [
    "Event",
    "EventQueue",
    "SimulationEngine",
    "Distribution",
    "Deterministic",
    "Exponential",
    "LogNormal",
    "Pareto",
    "lindley_waits",
    "lindley_waits_reference",
    "sojourn_times",
]
