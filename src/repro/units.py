"""Unit conventions and conversion helpers.

The simulator uses **seconds** for every time quantity and **megabytes**
for every data quantity internally; these helpers exist so that call
sites can state their units explicitly instead of sprinkling magic
constants.  All helpers are trivially vectorised: they accept floats or
NumPy arrays and return the same shape.

Conventions
-----------
time
    seconds (``float``); helpers: :func:`ms`, :func:`us`, :func:`hours`.
data
    megabytes (``float``); helpers: :func:`kb`, :func:`mb`, :func:`gb`.
rates
    requests/second, megabytes/second.
"""

from __future__ import annotations

MS_PER_S = 1_000.0
US_PER_S = 1_000_000.0
S_PER_HOUR = 3_600.0

MB_PER_KB = 1.0 / 1024.0
MB_PER_GB = 1024.0


def ms(value):
    """Convert milliseconds to seconds (``ms(10)`` → ``0.01``)."""
    return value / MS_PER_S


def us(value):
    """Convert microseconds to seconds."""
    return value / US_PER_S


def hours(value):
    """Convert hours to seconds."""
    return value * S_PER_HOUR


def kb(value):
    """Convert kilobytes to megabytes."""
    return value * MB_PER_KB


def mb(value):
    """Identity helper so call sites can write ``mb(500)`` explicitly."""
    return float(value)


def gb(value):
    """Convert gigabytes to megabytes (``gb(2)`` → ``2048.0``)."""
    return value * MB_PER_GB
