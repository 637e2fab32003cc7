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

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Event": "events",
        "EventQueue": "events",
        "SimulationEngine": "engine",
        "Distribution": "distributions",
        "Deterministic": "distributions",
        "Exponential": "distributions",
        "LogNormal": "distributions",
        "Pareto": "distributions",
        "lindley_waits": "lindley",
        "lindley_waits_reference": "lindley",
        "sojourn_times": "lindley",
    },
)
