"""Parallel trigger discovery over a per-round fork pool.

Semi-naive trigger discovery (:func:`repro.chase.trigger.seminaive_triggers`)
is embarrassingly parallel: the ``(tgd, pivot)`` × delta grid decomposes
into independent match tasks whose only shared inputs — the TGD set, the
instance's term-position indexes, and the round's delta — are read-only for
the duration of a round.  :class:`ParallelMatcher` exploits that:

* **Planning** — the grid, walked from the delta's predicates through the
  same predicate table the serial pass uses
  (:attr:`repro.chase.plans.RuleTables.discovery`), is cut into chunk specs
  ``(tgd_index, pivot_index, lo, hi)`` over each pivot's per-predicate
  delta bucket, coalesced into tasks of roughly equal work
  (about :data:`CHUNKS_PER_WORKER` tasks per worker).  Wide deltas are split
  across tasks; narrow ones share a task — both directions keep every
  worker busy.

* **Execution** — tasks run on a ``concurrent.futures``
  ``ProcessPoolExecutor`` built from the ``fork`` start method: the pool is
  created *per round*, after the round's ``(tgds, instance, delta)`` triple
  is parked in a module global, so forked workers inherit the instance and
  its indexes by memory snapshot instead of by pickling.  Each worker runs
  the compiled join plans of :mod:`repro.chase.plans` — the serial pass's
  kernel — and only the compact ``(tgd_index, values, birth)`` rows they
  emit travel back.  ``workers=1``, a host without ``fork``, and rounds
  below :data:`MIN_PARALLEL_WORK` run the serial
  :func:`repro.chase.plans.discovery_rows` instead; both paths produce the
  same rows.  The path is selected from ``workers`` and the host, never
  configured: the pool's tuning values are module constants.

* **Merging** — chunks partition the pivot hits, and each trigger
  surfaces at exactly one hit, already at its birth.  The merge
  concatenates the rows; :meth:`repro.chase.plans.RuleTables.order` and
  :func:`repro.chase.trigger.triggers_of` — the serial pass's own total
  ``(birth, canonical_key)`` row order and row -> Trigger step — finish
  the list, so it is byte-identical to the serial pass regardless of pool
  scheduling.

* **Recovery** — any failure of a pooled round (the pool breaking, a
  worker raising, a payload :func:`_validate_rows` rejects) is logged once,
  and the round is recomputed by the serial pass, which stays the
  matcher's path for the rest of the run.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.chase.plans import RuleTables, discovery_rows
from repro.chase.trigger import Trigger, triggers_of
from repro.errors import ResultIntegrityError
from repro.obs import clock, trace
from repro.obs.log import get_logger, log_event
from repro.tgds.tgd import TGD

#: The ``pool.fallback`` event (a pooled round failed and the run went
#: serial) is emitted here; tests and operators subscribe by name.
_LOGGER = get_logger(__name__)

#: Rounds whose total pivot-bucket work is below this run serially — the
#: per-round pool cost only pays for itself on wide deltas.  Calibration:
#: a fork-pool round costs ~10-50ms to start and drain while a pivot atom
#: costs ~10-100µs to match, so break-even sits around a few hundred
#: pivot atoms; below it, a many-small-round chase (hundreds of rounds,
#: ~100 pivot atoms each) would pay pool churn per round for sub-ms of
#: matching.  Tests pin it to 0 to force tiny rounds through the pool.
MIN_PARALLEL_WORK = 512

#: Tasks a round is cut into per worker: enough to even out skewed
#: chunks, few enough that per-task overhead stays small.
CHUNKS_PER_WORKER = 4

#: Per-round state handed to forked workers by memory inheritance:
#: ``(tgds, instance, delta)``.  Set immediately before the round's pool is
#: created and cleared after it drains; fork snapshots it into each worker.
#: ``_FORK_LOCK`` serializes the set-fork-drain window so two matchers
#: discovering concurrently from different threads cannot fork each
#: other's round state.
_FORK_STATE: Optional[tuple] = None
_FORK_LOCK = threading.Lock()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _match_chunks(
    tgds: Sequence[TGD], instance: Instance, delta, chunks
) -> List[tuple]:
    """Run one task's chunk specs; returns compact rows.

    The worker body: each chunk binds one ``(tgd, pivot)`` pair to a slice
    of the pivot predicate's delta bucket and runs that pair's generated
    kernel (``plan.match``) — the exact code the serial pass runs.  Bucket
    slices are recomputed from the delta (chunk specs stay index-pairs,
    cheap to ship).  Rows are ``(tgd_index, values, birth)``, ``values``
    the body binding in :attr:`TGD.body_order`.
    """
    buckets: Dict[str, list] = {}
    positions = delta.positions()
    rows: List[tuple] = []
    for tgd_index, pivot_index, lo, hi in chunks:
        plan = tgds[tgd_index].join_plans()[pivot_index]
        bucket = buckets.get(plan.predicate)
        if bucket is None:
            bucket = buckets[plan.predicate] = list(delta.with_predicate(plan.predicate))
        plan.match(bucket[lo:hi], instance, positions, tgd_index, rows)
    return rows


def _discover_task(chunks) -> tuple:
    """Process-pool task entry point: reads the fork-inherited round state.

    Returns the payload ``(rows, busy_seconds)`` — the worker times its own
    matching work so the master can report busy-vs-wall pool efficiency
    without any extra round trips.
    """
    tgds, instance, delta = _FORK_STATE
    start = clock.perf_counter()
    rows = _match_chunks(tgds, instance, delta, chunks)
    return rows, clock.perf_counter() - start


def _unpack_payload(tgds: Sequence[TGD], payload) -> Tuple[List[tuple], float]:
    """Validate one worker payload ``(rows, busy_seconds)``; returns it.

    The payload wrapper is checked here, the rows themselves by
    :func:`_validate_rows` — both raise :class:`ResultIntegrityError`,
    which sends the round to the serial recompute.
    """
    if not (isinstance(payload, tuple) and len(payload) == 2):
        raise ResultIntegrityError(
            f"worker returned {type(payload).__name__}, "
            "expected a (rows, busy_seconds) payload"
        )
    rows, busy = payload
    if not isinstance(busy, (int, float)) or busy < 0:
        raise ResultIntegrityError(f"worker payload has bad busy time {busy!r}")
    _validate_rows(tgds, rows)
    return rows, float(busy)


def _validate_rows(tgds: Sequence[TGD], rows) -> None:
    """Reject malformed worker results before they reach the merge.

    A worker that came back at all usually came back right — but a chaos
    run (or a genuinely corrupted pipe) can hand the master garbage, and a
    bad row would silently poison the ``(birth, canonical_key)`` merge.
    Shape-checks every row: ``(tgd_index, values, birth)`` with a valid TGD
    index and the binding arity that TGD's :attr:`TGD.body_order` demands.
    """
    if not isinstance(rows, list):
        raise ResultIntegrityError(
            f"worker returned {type(rows).__name__}, expected a row list"
        )
    for row in rows:
        if not (isinstance(row, tuple) and len(row) == 3):
            raise ResultIntegrityError(f"malformed worker row {row!r}")
        tgd_index, values, birth = row
        if not (isinstance(tgd_index, int) and 0 <= tgd_index < len(tgds)):
            raise ResultIntegrityError(f"worker row has bad TGD index {tgd_index!r}")
        if not isinstance(birth, int):
            raise ResultIntegrityError(f"worker row has bad birth {birth!r}")
        if not isinstance(values, tuple) or len(values) != len(
            tgds[tgd_index].body_order
        ):
            raise ResultIntegrityError(
                f"worker row binding {values!r} does not match the body "
                f"arity of TGD #{tgd_index}"
            )


class ParallelMatcher:
    """Fan semi-naive discovery batches out over a fork pool.

    Drop-in replacement for the serial discovery pass: ``rows(instance,
    delta)`` returns the rows of the serial
    :func:`repro.chase.plans.discovery_rows` (in some order), computed by
    ``workers`` processes, and ``discover(instance, delta)`` returns
    exactly ``seminaive_triggers(tgds, instance, delta)``.  A
    :class:`repro.chase.engine.ChaseEngine` built with ``workers > 1``
    builds one per run.

    :attr:`backend` is selected, not configured: ``"process"`` for more
    than one worker where the ``fork`` start method exists, else
    ``"serial"``.  A pooled round that fails in any way is recomputed
    serially and pins :attr:`backend` to ``"serial"`` for the rest of the
    run (tasks are pure functions of the round state, so the recomputed
    rows are the rows the pool would have returned).
    """

    def __init__(self, tgds: Sequence[TGD], workers: int = 1):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        #: The rule list's discovery table and ranks, built once for
        #: every round.
        self._tables = RuleTables(self.tgds)
        self.workers = max(1, int(workers))
        self.backend = (
            "process" if self.workers > 1 and _fork_available() else "serial"
        )
        #: Observability counters (tests assert the pool actually ran).
        self.rounds_parallel = 0
        self.rounds_serial = 0
        #: Pooled rounds that failed and were recomputed serially (at most
        #: one per run: the first pins the backend).
        self.backend_fallbacks = 0
        #: Profile counters, folded into :class:`repro.obs.stats.ChaseStats`
        #: by ``absorb_matcher``: summed worker-side task durations, the
        #: master wall spent draining pools, and the wall spent
        #: concatenating the pooled tasks' rows.
        self.busy_seconds = 0.0
        self.pool_wall_seconds = 0.0
        self.merge_seconds = 0.0

    # -- planning ----------------------------------------------------------

    def _plan(self, delta) -> Tuple[List[list], int]:
        """Cut the (tgd, pivot) × delta grid into balanced task lists.

        Returns ``(tasks, total_work)`` where each task is a list of chunk
        specs ``(tgd_index, pivot_index, lo, hi)`` and work is measured in
        pivot atoms.  The pairs come from the delta's predicates through the
        serial pass's predicate table (equal rules after the first dropped).
        """
        table = self._tables.discovery
        pairs = []
        total = 0
        for predicate in delta.predicates():
            size = len(delta.with_predicate(predicate))
            for tgd_index, pivot_index, _ in table.get(predicate, ()):
                pairs.append((tgd_index, pivot_index, size))
                total += size
        if not pairs:
            return [], 0
        slots = self.workers * CHUNKS_PER_WORKER
        target = max(1, -(-total // slots))  # ceil(total / slots)
        tasks: List[list] = []
        current: List[tuple] = []
        load = 0
        for tgd_index, pivot_index, size in pairs:
            lo = 0
            while lo < size:
                take = min(target - load, size - lo)
                current.append((tgd_index, pivot_index, lo, lo + take))
                load += take
                lo += take
                if load >= target:
                    tasks.append(current)
                    current, load = [], 0
        if current:
            tasks.append(current)
        return tasks, total

    # -- execution ---------------------------------------------------------

    def _fetch(self, future, task_index: int):
        """Collect one task result.  The chaos harness overrides this hook
        (:class:`repro.chase.chaos.ChaosMatcher`) to inject failures at the
        exact seam real ones surface through."""
        return future.result()

    def _run_process(self, instance: Instance, delta, tasks) -> List[list]:
        """Run the tasks on a fresh fork pool; their validated row lists.

        Raises whatever the pool, a worker or :func:`_unpack_payload`
        raises; :meth:`rows` turns that into the serial recompute.
        """
        global _FORK_STATE
        # Position buckets are built on first probe; one built in a forked
        # worker dies with it.  Build every position the round's plans may
        # probe here, once, so the workers inherit them.
        pairs = {(chunk[0], chunk[1]): None for task in tasks for chunk in task}
        for tgd_index, pivot_index in pairs:
            for predicate, position in self.tgds[tgd_index].join_plans()[pivot_index].probes:
                instance.index_position(predicate, position)
        context = multiprocessing.get_context("fork")
        results: List[list] = []
        busy = 0.0
        with _FORK_LOCK:
            _FORK_STATE = (self.tgds, instance, delta)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(tasks)), mp_context=context
                ) as pool:
                    futures = [pool.submit(_discover_task, task) for task in tasks]
                    for index, future in enumerate(futures):
                        rows, seconds = _unpack_payload(
                            self.tgds, self._fetch(future, index)
                        )
                        results.append(rows)
                        busy += seconds
            finally:
                _FORK_STATE = None
        self.busy_seconds += busy
        return results

    def discover(self, instance: Instance, delta) -> List[Trigger]:
        """The round's new triggers in ``(birth, canonical_key)`` order.

        Byte-identical to ``seminaive_triggers(self.tgds, instance, delta)``
        on either backend, including after a mid-run fallback.
        """
        rows = self.rows(instance, delta)
        return triggers_of(self.tgds, self._tables.order(rows))

    def rows(self, instance: Instance, delta) -> List[tuple]:
        """The round's discovery rows ``(tgd_index, values, birth)``.

        The same rows as the serial pass over ``self.tgds`` on either
        backend; only their order depends on the task partition, and
        :meth:`repro.chase.plans.RuleTables.order` erases it.
        """
        if not delta:
            return []
        if self.backend == "process":
            with trace.span("round.plan"):
                tasks, total = self._plan(delta)
            if total >= MIN_PARALLEL_WORK and len(tasks) >= 2:
                merged = self._pooled_rows(instance, delta, tasks, total)
                if merged is not None:
                    return merged
        self.rounds_serial += 1
        return discovery_rows(self._tables.discovery, instance, delta)

    def _pooled_rows(self, instance: Instance, delta, tasks, total) -> Optional[List[tuple]]:
        """One round on the pool, merged; None (and the backend pinned to
        ``"serial"``) if the pooled round failed."""
        pool_start = clock.perf_counter()
        try:
            with trace.span("round.exec", tasks=len(tasks), work=total):
                results = self._run_process(instance, delta, tasks)
        except Exception as error:
            log_event(
                _LOGGER,
                logging.WARNING,
                "pool.fallback",
                pool_workers=self.workers,
                pool_error=repr(error),
            )
            self.backend_fallbacks += 1
            self.backend = "serial"
            return None
        self.pool_wall_seconds += clock.perf_counter() - pool_start
        self.rounds_parallel += 1
        # Tasks partition the pivot hits and each trigger surfaces at
        # exactly one hit, so no row repeats another.
        merge_start = clock.perf_counter()
        with trace.span("round.merge", tasks=len(results)):
            merged = [row for rows in results for row in rows]
        self.merge_seconds += clock.perf_counter() - merge_start
        return merged
