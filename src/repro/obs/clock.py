"""The single monotonic clock source behind every wall measurement.

Budgets (:class:`repro.chase.checkpoint.Budget`) and the trace/stats
timers all read time through this module instead of calling :mod:`time`
directly.  That buys one thing: a test can :func:`set_clock` a
:class:`FakeClock` and drive wall-clock budgets *synchronously* — no
sleeping, no flaky margins — while production code keeps the real
monotonic clock.

``monotonic()`` is the budget/deadline time base; ``perf_counter()`` the
high-resolution span/stats time base.  The module-level functions delegate
to the current clock, so swapping the clock re-routes every caller at once.
"""

from __future__ import annotations

import time


class Clock:
    """The real clock: thin delegation to :mod:`time`."""

    def monotonic(self) -> float:
        return time.monotonic()

    def perf_counter(self) -> float:
        return time.perf_counter()


class FakeClock(Clock):
    """A manually advanced clock for tests.

    Time moves only through :meth:`advance`, so a budget deadline passes
    the instant a test says it does.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def monotonic(self) -> float:
        return self.now

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward."""
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
