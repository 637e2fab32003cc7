"""FIFO single-server queue sample paths via the Lindley recursion.

The waiting time of request *n* in a work-conserving FIFO single-server
queue obeys Lindley's recursion::

    W_0 = w0                      (initial backlog at the first arrival)
    W_n = max(0, W_{n-1} + S_{n-1} - A_n)

where ``S`` are service times and ``A_n`` the interarrival gap before
request *n*.  Unrolling the recursion turns it into a running maximum of
prefix sums — with ``D_n = S_{n-1} - A_n`` and ``C_n = D_1 + … + D_n``::

    W_n = C_n - min(-w0, C_1, …, C_n)

which NumPy evaluates in O(n) with ``cumsum`` + ``minimum.accumulate``
and **no Python-level loop**.  This is the production kernel: the
routing kernels in :mod:`repro.baselines.routing` call it for every
replica's queue in every interval :mod:`repro.sim.queue_sim`
simulates.  The legible loop form is kept as
:func:`lindley_waits_reference` and property-tested against the
vectorised form (see ``tests/simcore/test_lindley.py``).

This exactness matters: the queueing behaviour (Eq. 2 of the paper and
everything downstream of it) is reproduced from first principles, not
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "lindley_waits",
    "lindley_waits_chunked",
    "LindleyCarry",
    "lindley_waits_reference",
    "sojourn_times",
    "fifo_departures",
    "busy_fraction",
]


def _validate(arrival_times: np.ndarray, service_times: np.ndarray) -> None:
    if arrival_times.ndim != 1 or service_times.ndim != 1:
        raise SimulationError("arrival_times and service_times must be 1-D")
    if arrival_times.shape != service_times.shape:
        raise SimulationError(
            f"shape mismatch: {arrival_times.shape} arrivals vs "
            f"{service_times.shape} services"
        )
    if arrival_times.size and np.any(np.diff(arrival_times) < 0):
        raise SimulationError("arrival_times must be non-decreasing")
    if np.any(service_times < 0):
        raise SimulationError("service_times must be non-negative")


def lindley_waits(
    arrival_times,
    service_times,
    initial_work: float = 0.0,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Waiting times (time in queue, excluding service) for each request.

    Parameters
    ----------
    arrival_times:
        Non-decreasing absolute arrival instants, shape ``(n,)``.
    service_times:
        Non-negative service demands, shape ``(n,)``.
    initial_work:
        Unfinished work already in the server when the first request
        arrives (seconds).  Lets interval simulations carry queue
        backlog across scheduling-interval boundaries.
    validate:
        Disable input checking in hot loops that already guarantee it.

    Returns
    -------
    numpy.ndarray
        ``W`` with ``W[i]`` = queueing delay of request ``i``.
    """
    t = np.asarray(arrival_times, dtype=np.float64)
    s = np.asarray(service_times, dtype=np.float64)
    if validate:
        _validate(t, s)
        if initial_work < 0:
            raise SimulationError(f"initial_work must be >= 0, got {initial_work}")
    n = t.size
    waits = np.empty(n, dtype=np.float64)
    if n == 0:
        return waits
    waits[0] = initial_work
    if n == 1:
        return waits
    # D_n = S_{n-1} - A_n for n = 1..n-1 ; C = prefix sums of D.
    drift = s[:-1] - np.diff(t)
    c = np.cumsum(drift)
    # prefix_min[j] = min(-w0, C_1, ..., C_j)  (j = 1..n-1)
    prefix = np.empty(n, dtype=np.float64)
    prefix[0] = -float(initial_work)
    prefix[1:] = c
    np.minimum.accumulate(prefix, out=prefix)
    waits[1:] = c - prefix[1:]
    return waits


@dataclass
class LindleyCarry:
    """Queue state threaded across chunk boundaries — **bit-exactly**.

    A naive carry (resume with ``initial_work = last wait + service``)
    re-associates the floating-point prefix sums and drifts off the
    monolithic sample path in the last bits.  Instead we carry exactly
    the four scalars the unrolled recursion needs —

    - ``cumsum``: the drift prefix sum ``C`` at the last processed
      request (``0.0`` right after the first request, whose ``C_0`` is
      defined as zero),
    - ``prefix_min``: ``min(-w0, C_1, …, C_last)``,
    - ``last_arrival`` / ``last_service``: the boundary request's
      arrival instant and service demand (they parameterise the next
      chunk's first drift term)

    — and replay the *same* float operations: ``np.cumsum`` seeded by
    prepending ``cumsum`` (cumsum is strictly sequential, so the
    additions associate identically), ``np.minimum.accumulate`` seeded
    with ``prefix_min`` (min is exact), and the boundary drift computed
    as ``last_service - (t[0] - last_arrival)`` — the very expression
    the monolithic ``np.diff`` path evaluates.  Chunked waits are
    therefore bit-for-bit the monolithic waits for any chunking
    (property-tested in ``tests/simcore/test_lindley.py``).
    """

    cumsum: float
    prefix_min: float
    last_arrival: float
    last_service: float


def lindley_waits_chunked(
    arrival_times,
    service_times,
    carry: Optional[LindleyCarry] = None,
    initial_work: float = 0.0,
    *,
    validate: bool = True,
) -> Tuple[np.ndarray, Optional[LindleyCarry]]:
    """One chunk of the Lindley recursion, resumable across chunks.

    The first chunk of a stream passes ``carry=None`` (and optionally
    ``initial_work``, exactly as :func:`lindley_waits`); every later
    chunk passes the carry returned by the previous call.  Returns
    ``(waits, new_carry)``; concatenating the per-chunk waits is
    bit-identical to one :func:`lindley_waits` call over the whole
    stream.  An empty chunk returns the carry unchanged.
    """
    t = np.asarray(arrival_times, dtype=np.float64)
    s = np.asarray(service_times, dtype=np.float64)
    if validate:
        _validate(t, s)
        if carry is None and initial_work < 0:
            raise SimulationError(
                f"initial_work must be >= 0, got {initial_work}"
            )
        if carry is not None and t.size and t[0] < carry.last_arrival:
            raise SimulationError(
                "chunk arrivals must continue the carried stream "
                f"(first arrival {t[0]} < carried {carry.last_arrival})"
            )
    n = t.size
    if n == 0:
        return np.empty(0, dtype=np.float64), carry
    if carry is None:
        waits = lindley_waits(t, s, initial_work, validate=False)
        if n == 1:
            new = LindleyCarry(0.0, -float(initial_work), float(t[0]), float(s[0]))
            return waits, new
        # Recover C_last / prefix_min from the same intermediates the
        # monolithic kernel computes (recomputed here; the kernel stays
        # a single straight-line fast path).
        drift = s[:-1] - np.diff(t)
        c = np.cumsum(drift)
        prefix = np.empty(n, dtype=np.float64)
        prefix[0] = -float(initial_work)
        prefix[1:] = c
        np.minimum.accumulate(prefix, out=prefix)
        return waits, LindleyCarry(
            float(c[-1]), float(prefix[-1]), float(t[-1]), float(s[-1])
        )
    # Continuation: first drift spans the chunk boundary.
    boundary = carry.last_service - (t[0] - carry.last_arrival)
    if n == 1:
        drift = np.array([boundary], dtype=np.float64)
    else:
        drift = np.empty(n, dtype=np.float64)
        drift[0] = boundary
        drift[1:] = s[:-1] - np.diff(t)
    # Seeded cumsum: prepend the carried prefix sum so the sequential
    # additions replay the monolithic order exactly.
    c = np.cumsum(np.concatenate([[carry.cumsum], drift]))[1:]
    prefix = np.concatenate([[carry.prefix_min], c])
    np.minimum.accumulate(prefix, out=prefix)
    waits = c - prefix[1:]
    return waits, LindleyCarry(
        float(c[-1]), float(prefix[-1]), float(t[-1]), float(s[-1])
    )


def lindley_waits_reference(
    arrival_times, service_times, initial_work: float = 0.0
) -> np.ndarray:
    """Pure-Python Lindley recursion — the specification for tests.

    Mirrors the recursion as written in queueing textbooks, one request
    at a time.  O(n) but with Python-level overhead; never used on the
    hot path.
    """
    t = np.asarray(arrival_times, dtype=np.float64)
    s = np.asarray(service_times, dtype=np.float64)
    _validate(t, s)
    if initial_work < 0:
        raise SimulationError(f"initial_work must be >= 0, got {initial_work}")
    n = t.size
    waits = np.empty(n, dtype=np.float64)
    if n == 0:
        return waits
    w = float(initial_work)
    waits[0] = w
    for i in range(1, n):
        w = max(0.0, w + float(s[i - 1]) - (float(t[i]) - float(t[i - 1])))
        waits[i] = w
    return waits


def sojourn_times(
    arrival_times, service_times, initial_work: float = 0.0, *, validate: bool = True
) -> np.ndarray:
    """Per-request latency = queueing delay + own service time.

    This is the component *latency* ``l`` in the paper's terminology
    ("request response time including both the request queueing delay
    and the time of being processed", §I).
    """
    s = np.asarray(service_times, dtype=np.float64)
    return (
        lindley_waits(arrival_times, s, initial_work, validate=validate) + s
    )


def fifo_departures(
    arrival_times, service_times, initial_work: float = 0.0
) -> np.ndarray:
    """Absolute departure instants ``t + W + S`` for each request."""
    t = np.asarray(arrival_times, dtype=np.float64)
    s = np.asarray(service_times, dtype=np.float64)
    return t + lindley_waits(t, s, initial_work) + s


def busy_fraction(
    arrival_times, service_times, horizon: float, initial_work: float = 0.0
) -> float:
    """Fraction of ``[first arrival, first arrival + horizon]`` the server is busy.

    A sample-path utilisation estimate used in tests to cross-check the
    analytic ``rho = lambda / mu``.
    """
    t = np.asarray(arrival_times, dtype=np.float64)
    s = np.asarray(service_times, dtype=np.float64)
    if horizon <= 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    if t.size == 0:
        return 0.0
    end = t[0] + horizon
    dep = fifo_departures(t, s, initial_work)
    starts = dep - s
    busy = np.clip(np.minimum(dep, end) - np.clip(starts, t[0], end), 0.0, None)
    return float(busy.sum() / horizon)
