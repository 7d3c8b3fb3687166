"""Fixtures for the observability suite: swap in a FakeClock, restore after."""

import pytest

from repro.obs import clock


@pytest.fixture
def fake_clock():
    """Install a FakeClock process-wide for one test; restore on exit."""
    fake = clock.FakeClock()
    previous = clock.set_clock(fake)
    try:
        yield fake
    finally:
        clock.set_clock(previous)
