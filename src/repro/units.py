"""Unit conventions and conversion helpers.

The simulator uses **seconds** for every time quantity and **megabytes**
for every data quantity internally; these helpers exist so that call
sites can state their units explicitly instead of sprinkling magic
constants.  All helpers are trivially vectorised: they accept floats or
NumPy arrays and return the same shape.

Conventions
-----------
time
    seconds (``float``); helper: :func:`ms`.
data
    megabytes (``float``); helpers: :func:`mb`, :func:`gb`.
rates
    requests/second, megabytes/second.
"""

from __future__ import annotations

MS_PER_S = 1_000.0
MB_PER_GB = 1024.0


def ms(value):
    """Convert milliseconds to seconds (``ms(10)`` → ``0.01``)."""
    return value / MS_PER_S


def mb(value):
    """Identity helper so call sites can write ``mb(500)`` explicitly."""
    return float(value)


def gb(value):
    """Convert gigabytes to megabytes (``gb(2)`` → ``2048.0``)."""
    return value * MB_PER_GB
