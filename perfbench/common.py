"""Shared pieces of the perfbench workloads: the outcome and statistics.

A workload module exposes four functions, used by ``run.py``:

* ``build_inputs(name, seed)`` makes the workload's inputs as plain data.
  It is benchmark code: the program only ever sees what it returns.
* ``setup(inputs, trace)`` turns the inputs into program state (parsing,
  instance construction, server boot).  It is what ``setup_s`` times.
* ``measure(state, inputs, seconds, trace)`` runs operations for about
  ``seconds`` seconds, checking every answer, and returns an
  :class:`Outcome`.
* ``teardown(state)`` releases what ``setup`` started.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

#: Seconds one calibration probe takes on the reference host: a 2-vCPU
#: Intel Xeon container in its slower, contended state.
REFERENCE_PROBE_SECONDS = 0.003


def _probe_once() -> int:
    total = 0
    for _ in range(12):
        table = {}
        for i in range(1000):
            table[i] = (i, str(i))
        total += sum(len(value[1]) for value in table.values())
    return total


class HostSpeed:
    """How fast the host runs Python now, as a factor against the reference.

    The shared host this benchmark was built on switches between two core
    speeds about 1.5x apart, for seconds to minutes at a time, whatever
    runs on it; raw timings of identical runs then differ by a third.  So a
    run probes the host with a fixed pure-Python loop (no program code)
    between slices of work, and scales each slice's times by ``factor()``:
    they read as they would on the reference host.  The probe never runs
    program code, so a slower program still reads slower.
    """

    def __init__(self):
        self.last = self.probe()
        self.factors: List[float] = []

    @staticmethod
    def probe() -> float:
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            _probe_once()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    def factor(self) -> float:
        """The factor for the slice since the previous call (or creation)."""
        now = self.probe()
        factor = REFERENCE_PROBE_SECONDS / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


class Outcome:
    """What one measured run produced, at reference host speed.

    ``latencies`` holds one time per completed operation, in seconds.
    ``windows`` holds the throughput of each slice of the run (a pass over
    the inputs, or a second of traffic); the reported throughput is
    their median.  A failed operation is counted in ``failed`` and never in
    ``latencies``.  ``layers`` maps per-layer metric names to raw values
    (trace runs only), and ``speed`` is the run's median host factor.
    """

    def __init__(self):
        self.latencies: List[float] = []
        self.windows: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.layers: Dict[str, float] = {}
        self.speed = 1.0
        #: Set by workloads whose program runs in another process.
        self.peak_rss_mb = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def add_slice(self, latencies: List[float], busy_seconds: float, factor: float) -> None:
        """Record one slice's raw latencies, measured at host ``factor``."""
        self.latencies.extend(latency * factor for latency in latencies)
        if latencies and busy_seconds > 0:
            self.windows.append(len(latencies) / (busy_seconds * factor))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p50_p90(values: List[float]) -> tuple:
    """Median and 90th percentile (inclusive linear interpolation)."""
    if len(values) < 2:
        return median(values), median(values)
    return median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
