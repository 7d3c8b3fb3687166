"""The single monotonic clock source behind every wall measurement.

Budgets (:class:`repro.chase.checkpoint.Budget`), chaos delays, and the
trace/stats timers all read time through this module instead of calling
:mod:`time` directly.  That buys one thing: a test can :func:`set_clock` a
:class:`FakeClock` and drive wall-clock budgets and injected delays
*synchronously* — no sleeping, no flaky margins — while production code
keeps the real monotonic clock.

``monotonic()`` is the budget/deadline time base; ``perf_counter()`` the
high-resolution span/stats time base; ``sleep()`` the only blocking wait.
The module-level functions delegate to the current clock, so swapping the
clock re-routes every caller at once.
"""

from __future__ import annotations

import time


class Clock:
    """The real clock: thin delegation to :mod:`time`."""

    def monotonic(self) -> float:
        return time.monotonic()

    def perf_counter(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class FakeClock(Clock):
    """A manually advanced clock for tests.

    ``sleep`` advances the clock instead of blocking (and records every
    requested duration in :attr:`slept`), so code that waits — budget
    deadlines, chaos ``delay_seconds`` — runs instantly
    under test while still observing time pass.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        #: Every ``sleep`` duration requested, in order.
        self.slept: list = []

    def monotonic(self) -> float:
        return self.now

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without anyone having slept."""
        self.now += seconds


_CLOCK: Clock = Clock()


def get_clock() -> Clock:
    return _CLOCK


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` process-wide; returns the previous one.

    Tests should restore the previous clock in a ``finally`` (or use the
    ``fake_clock`` fixture pattern in ``tests/obs/``).
    """
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock
    return previous


def monotonic() -> float:
    """Monotonic seconds from the current clock (the budget time base)."""
    return _CLOCK.monotonic()


def perf_counter() -> float:
    """High-resolution seconds from the current clock (the span time base)."""
    return _CLOCK.perf_counter()


def sleep(seconds: float) -> None:
    """Wait on the current clock (a no-op fast-forward under FakeClock)."""
    _CLOCK.sleep(seconds)
