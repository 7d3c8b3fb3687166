"""The injectable obs clock: real delegation and FakeClock semantics."""

import time

from repro.obs import clock
from repro.obs.clock import Clock, FakeClock


class TestRealClock:
    def test_monotonic_tracks_time(self):
        real = Clock()
        a = real.monotonic()
        b = real.monotonic()
        assert b >= a

    def test_perf_counter_tracks_time(self):
        real = Clock()
        a = real.perf_counter()
        b = real.perf_counter()
        assert b >= a

    def test_module_functions_use_installed_clock(self):
        # The default clock is the real one: readings are close to time's.
        assert abs(clock.monotonic() - time.monotonic()) < 5.0


class TestFakeClock:
    def test_starts_at_given_time(self):
        fake = FakeClock(start=100.0)
        assert fake.monotonic() == 100.0
        assert fake.perf_counter() == 100.0

    def test_advance_moves_both_time_bases(self):
        fake = FakeClock()
        fake.advance(2.5)
        assert fake.monotonic() == 2.5
        assert fake.perf_counter() == 2.5


class TestInstallation:
    def test_set_clock_returns_previous_and_reroutes(self, fake_clock):
        fake_clock.advance(42.0)
        assert clock.monotonic() == 42.0
        assert clock.perf_counter() == 42.0

    def test_restore_goes_back_to_real_time(self):
        fake = FakeClock()
        previous = clock.set_clock(fake)
        clock.set_clock(previous)
        assert abs(clock.monotonic() - time.monotonic()) < 5.0
