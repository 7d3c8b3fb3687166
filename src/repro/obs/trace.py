"""Span tracing in Chrome trace-event JSON.

``span("round.discover")`` brackets a block; when tracing is on, each span
becomes one complete event (``"ph": "X"``) in the Chrome trace-event
format, so ``CHASE_TRACE=out.json make bench-quick`` yields a file that
loads directly in ``chrome://tracing`` or https://ui.perfetto.dev.  When
tracing is off — the default — ``span()`` returns a shared no-op context
manager after one module-flag read, so the instrumented paths stay free.

Span names used across the engine (glossary in ``docs/OBSERVABILITY.md``):

====================  =====================================================
``chase.run``         one whole chase entry-point call
``round.apply``       one round's application sweep over the pending batch
``round.discover``    one round's (serial or pooled) discovery pass
``round.plan``        cutting the (tgd, pivot) × delta grid into tasks
``round.exec``        draining the worker pool for one round
``round.merge``       max-merging worker rows back into trigger order
``decider.suspect``   one divergence-suspect chase + pump hunt
``checkpoint.capture``/``checkpoint.restore``  snapshot round-trips
====================  =====================================================

Activation: :func:`start_trace`/:func:`stop_trace`, the harness ``--trace``
flag, or ``CHASE_TRACE=path`` in the environment (flushed via ``atexit``).
Events buffer in memory (a chase emits a few spans per *round*, not per
trigger) and write as ``{"traceEvents": [...]}`` on stop.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import threading
from typing import List, Optional

from repro.obs import clock

#: Environment switch: a path here starts tracing at import and flushes
#: the file at interpreter exit.
TRACE_ENV = "CHASE_TRACE"

#: Module-level hot-path guard: :func:`span` and :func:`instant` check this
#: flag first, so disabled tracing is one global read per call site.
TRACING = False

_EVENTS: List[dict] = []
_LOCK = threading.Lock()
_PATH: Optional[str] = None
_EPOCH = 0.0
_ATEXIT_REGISTERED = False


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: one complete ("ph": "X") trace event on exit."""

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: Optional[dict]):
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = clock.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = clock.perf_counter()
        event = {
            "name": self.name,
            "ph": "X",
            "ts": round((self._start - _EPOCH) * 1e6, 3),
            "dur": round((end - self._start) * 1e6, 3),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.args:
            event["args"] = self.args
        with _LOCK:
            _EVENTS.append(event)


def span(name: str, **args):
    """Bracket a block as a named span (no-op unless tracing is on)."""
    if not TRACING:
        return _NULL_SPAN
    return _Span(name, args or None)


def instant(name: str, **args) -> None:
    """Record a zero-duration marker event (budget cuts, injected faults)."""
    if not TRACING:
        return
    event = {
        "name": name,
        "ph": "i",
        "s": "p",
        "ts": round((clock.perf_counter() - _EPOCH) * 1e6, 3),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    if args:
        event["args"] = args
    with _LOCK:
        _EVENTS.append(event)


def tracing() -> bool:
    return TRACING


@contextlib.contextmanager
def suspended():
    """Pause tracing for a block, keeping the buffer and target path.

    The wall-clock-gated benchmarks wrap their *timed* sections in this so
    a ``--trace`` harness run still gates the shipping (untraced)
    configuration — span emission inside a timed pair would contaminate a
    single-digit-percent ratio with lock and allocation jitter.
    """
    global TRACING
    with _LOCK:
        was = TRACING
        TRACING = False
    try:
        yield
    finally:
        with _LOCK:
            TRACING = was


def start_trace(path: str) -> None:
    """Begin buffering spans, to be written to ``path`` by :func:`stop_trace`.

    Starting while already tracing re-targets the path and keeps the
    buffered events (last ``start_trace`` wins).
    """
    global TRACING, _PATH, _EPOCH
    with _LOCK:
        if not TRACING:
            _EVENTS.clear()
            _EPOCH = clock.perf_counter()
        _PATH = str(path)
        TRACING = True


def stop_trace() -> Optional[str]:
    """Write the buffered trace and disable tracing; returns the path.

    Idempotent: a second call (or the atexit flush after a manual stop)
    returns None without touching the file.
    """
    global TRACING, _PATH
    with _LOCK:
        if not TRACING:
            return None
        TRACING = False
        path, _PATH = _PATH, None
        events = list(_EVENTS)
        _EVENTS.clear()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle, indent=1)
        handle.write("\n")
    return path


def validate_trace(document) -> List[str]:
    """Problems that make ``document`` an invalid Chrome trace (else ``[]``).

    Checks the trace-event schema this writer targets: a top-level
    ``traceEvents`` list (the JSON-array form is also accepted) whose
    entries carry ``name``/``ph``/``ts``/``pid``/``tid``, with a
    non-negative ``dur`` on complete (``"X"``) events.
    """
    problems: List[str] = []
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            return ["traceEvents is missing or not a list"]
    elif isinstance(document, list):
        events = document
    else:
        return [f"trace must be an object or array, got {type(document).__name__}"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for field, kinds in (
            ("name", str),
            ("ph", str),
            ("ts", (int, float)),
            ("pid", int),
            ("tid", int),
        ):
            if not isinstance(event.get(field), kinds):
                problems.append(f"event {index} has a missing or bad {field!r}")
        if event.get("ph") == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event {index} is complete but has bad 'dur'")
    return problems


def _flush_at_exit() -> None:
    stop_trace()


def init_from_env(environ=None) -> None:
    """Apply ``CHASE_TRACE`` (called at import; tests call it directly)."""
    global _ATEXIT_REGISTERED
    environ = os.environ if environ is None else environ
    path = environ.get(TRACE_ENV)
    if path:
        start_trace(path)
        if not _ATEXIT_REGISTERED:
            atexit.register(_flush_at_exit)
            _ATEXIT_REGISTERED = True


init_from_env()
