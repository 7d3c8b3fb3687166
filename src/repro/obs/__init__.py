"""Zero-dependency observability: spans, stats, clocks, logging.

The telemetry substrate every execution layer reports through (ROADMAP:
chase-as-a-service p99s).  Four small modules, all stdlib-only:

* :mod:`repro.obs.trace` — ``span("round.discover")``-style tracing that
  emits Chrome trace-event JSON (``CHASE_TRACE=path`` or
  ``benchmarks/harness.py --trace``), loadable in ``chrome://tracing`` /
  Perfetto;
* :mod:`repro.obs.stats` — :class:`ChaseStats`, the per-run aggregate
  report and the only counter sink (rounds, trigger accounting, cache hit
  rate, delta sizes, budget cuts, the apply/discovery phase split),
  attached to a run or a service rather than installed process-wide;
* :mod:`repro.obs.clock` — the single monotonic clock source
  (:class:`FakeClock` injectable for tests, so budget/timer tests never
  sleep);
* :mod:`repro.obs.log` — the shared ``repro.<pkg>.<mod>`` logger factory
  and the structured-event helper.

``python -m repro.obs.report BENCH_chase.json`` (or ``make stats``) prints
the per-workload stats summary recorded by the bench harness.  The full
glossary lives in ``docs/OBSERVABILITY.md``.
"""

from repro.obs.clock import Clock, FakeClock, get_clock, monotonic, set_clock
from repro.obs.log import get_logger, log_event
from repro.obs.stats import ChaseStats
from repro.obs.trace import span, start_trace, stop_trace, tracing, validate_trace

__all__ = [
    "ChaseStats",
    "Clock",
    "FakeClock",
    "get_clock",
    "get_logger",
    "log_event",
    "monotonic",
    "set_clock",
    "span",
    "start_trace",
    "stop_trace",
    "tracing",
    "validate_trace",
]
