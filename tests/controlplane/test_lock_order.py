"""The control plane's lock serves readers and windows in arrival order.

``/status``, ``/metrics`` and ``POST /policy`` wait on the lock each
window's compute holds.  With windows back to back, the next window asks
for it moments after the last one let it go, so a lock that grants
whoever asks first can make a request wait out several windows.  These
tests pin the first-come, first-served contract: on the lock itself,
and on a live session whose window compute is held open.

Waiters are put in line one at a time: each thread is started only once
the one before it is queued (``_FifoLock._waiters``), so the arrival
order is known.
"""

import asyncio
import contextlib
import functools
import signal
import sys
import threading
import time

import pytest

from repro.controlplane.loop import ControlLoop
from repro.controlplane.service import LiveControlPlane, ServeConfig, _FifoLock

#: Threads in line at once, and how many times a line forms.
WAITERS = 8
ROUNDS = 25
#: Lock turns per thread in the contention test.
TURNS = 500


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for the lock's line")
        time.sleep(0.001)


def _line_up(lock, target):
    """Start a thread running ``target`` and return once it is in line."""
    before = len(lock._waiters)
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    _wait_until(lambda: len(lock._waiters) == before + 1)
    return thread


def _joined(threads):
    for thread in threads:
        thread.join(10)
    return not any(thread.is_alive() for thread in threads)


def _free(lock):
    """The lock can still be taken (it is not wedged)."""
    taken = threading.Event()

    def take():
        with lock:
            taken.set()

    threading.Thread(target=take, daemon=True).start()
    return taken.wait(10)


class TestArrivalOrder:
    def test_waiters_take_the_lock_in_the_order_they_lined_up(self):
        lock = _FifoLock()
        order = []

        def take(i):
            with lock:
                order.append(i)

        lock.acquire()
        for _ in range(ROUNDS):
            threads = [
                _line_up(lock, functools.partial(take, i))
                for i in range(WAITERS)
            ]
            # A holder that lets go and asks again at once goes to the
            # back of the line, as the next window's compute does.
            lock.release()
            lock.acquire()
            assert order == list(range(WAITERS))
            assert _joined(threads)
            order.clear()
        lock.release()
        assert _free(lock)

    def test_one_holder_at_a_time_under_contention(self):
        """More threads than cores, a thread switch invited inside every
        turn: a lost update or a second holder shows in the counts."""
        lock = _FifoLock()
        count, inside, overlaps = [0], [0], []

        def work():
            for _ in range(TURNS):
                with lock:
                    inside[0] += 1
                    if inside[0] != 1:
                        overlaps.append(inside[0])
                    value = count[0]
                    time.sleep(0)
                    count[0] = value + 1
                    inside[0] -= 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, daemon=True)
                for _ in range(WAITERS)
            ]
            for thread in threads:
                thread.start()
            assert _joined(threads)
        finally:
            sys.setswitchinterval(previous)
        assert overlaps == []
        assert count[0] == WAITERS * TURNS
        assert not lock._waiters
        assert _free(lock)

    def test_release_of_an_unlocked_lock_raises(self):
        with pytest.raises(RuntimeError, match="unlocked"):
            _FifoLock().release()


class _Interrupted(Exception):
    pass


@contextlib.contextmanager
def _sigusr1_raises(before_raise=lambda: None):
    def handler(signum, frame):
        before_raise()
        raise _Interrupted

    previous = signal.signal(signal.SIGUSR1, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGUSR1, previous)


def _interrupt_main_once_in_line(lock, n_waiting, then_line_up):
    """Once the main thread's wait makes ``n_waiting`` waiters, line up
    ``then_line_up`` behind it and signal the main thread."""
    main = threading.main_thread().ident
    behind = []

    def run():
        _wait_until(lambda: len(lock._waiters) == n_waiting)
        behind.append(_line_up(lock, then_line_up))
        time.sleep(0.05)  # the main thread is blocked in its wait by now
        signal.pthread_kill(main, signal.SIGUSR1)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    return helper, behind


@pytest.mark.skipif(
    not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill"
)
class TestInterruptedWait:
    """A wait that raises (here: a signal handler's exception in the
    main thread) gives up its place instead of wedging the line.  The
    lock has no owner, so the main thread can hold it and line up too."""

    def test_a_waiter_whose_wait_raises_leaves_the_line(self):
        lock = _FifoLock()
        order = []

        def take(i):
            with lock:
                order.append(i)

        lock.acquire()
        first = _line_up(lock, functools.partial(take, 0))
        helper, behind = _interrupt_main_once_in_line(
            lock, 2, functools.partial(take, 2)
        )
        with _sigusr1_raises(), pytest.raises(_Interrupted):
            lock.acquire()
        assert _joined([helper])
        assert len(lock._waiters) == 2
        lock.release()
        assert _joined([first, *behind])
        assert order == [0, 2]
        assert _free(lock)

    def test_a_waiter_interrupted_after_the_hand_over_passes_it_on(self):
        lock = _FifoLock()
        order = []

        def take(i):
            with lock:
                order.append(i)

        lock.acquire()
        helper, behind = _interrupt_main_once_in_line(
            lock, 1, functools.partial(take, 1)
        )
        # The handler's release hands the lock to the main thread, first
        # in line, whose wait then raises anyway.
        with _sigusr1_raises(before_raise=lock.release), pytest.raises(
            _Interrupted
        ):
            lock.acquire()
        assert _joined([helper, *behind])
        assert order == [1]
        assert _free(lock)


class TestWindowBoundary:
    """A ``status_payload()`` and a ``switch_policy()`` call made while
    window *w* computes both run before window *w* + 1's compute.

    Each window in ``HELD`` blocks its compute on an event until both
    calls are in line for the lock.  Each call reports
    ``windows_completed`` from inside the lock, so reading exactly
    *w* + 1 shows that it ran after window *w* and before window *w* + 1.
    The windows between the held ones run back to back.
    """

    HELD = (1, 3, 5, 7, 9, 11)
    POLICIES = ("RI-90", "Basic")
    CONFIG = ServeConfig(
        scenario="fanout-feed", policy="Basic", arrival_rate=25.0,
        window_s=4.0, seed=0, port=0, dilation=1e6,
        max_windows=HELD[-1] + 2, n_profiling_conditions=6, scale=0.2,
        n_nodes=6,
    )

    def test_calls_made_during_a_window_run_before_the_next(
        self, monkeypatch
    ):
        compute_window = ControlLoop.compute_window
        held = {w: threading.Event() for w in self.HELD}
        gates = {w: threading.Event() for w in self.HELD}

        def held_open(loop, window):
            if window in gates:
                held[window].set()
                gates[window].wait(30)
            return compute_window(loop, window)

        monkeypatch.setattr(ControlLoop, "compute_window", held_open)
        plane = LiveControlPlane(self.CONFIG)
        session = threading.Thread(
            target=lambda: asyncio.run(plane.run()), daemon=True
        )
        session.start()
        seen = []
        try:
            assert plane.ready.wait(30), "HTTP surface never bound"
            for n, window in enumerate(self.HELD):
                assert held[window].wait(60), f"window {window} never started"
                policy = self.POLICIES[n % 2]
                replies = {}
                readers = [
                    _line_up(
                        plane._lock,
                        lambda: replies.update(status=plane.status_payload()),
                    ),
                    _line_up(
                        plane._lock,
                        lambda: replies.update(
                            policy=plane.switch_policy(policy)
                        ),
                    ),
                ]
                gates[window].set()
                assert _joined(readers)
                seen.append(
                    (
                        replies["status"]["loop"]["windows_completed"],
                        replies["policy"]["windows_completed"],
                        replies["policy"]["active_policy"],
                    )
                )
        finally:
            for gate in gates.values():
                gate.set()
            plane.request_shutdown()
            session.join(30)
        assert not session.is_alive()
        assert seen == [
            (w + 1, w + 1, self.POLICIES[n % 2])
            for n, w in enumerate(self.HELD)
        ]
