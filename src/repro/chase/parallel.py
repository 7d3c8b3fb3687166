"""Parallel trigger discovery over a process pool.

Semi-naive trigger discovery (:func:`repro.chase.trigger.seminaive_triggers`)
is embarrassingly parallel: the ``(tgd, pivot)`` × delta grid decomposes
into independent match tasks whose only shared inputs — the TGD set, the
instance's term-position indexes, and the round's delta — are read-only for
the duration of a round.  :class:`ParallelMatcher` exploits that:

* **Planning** — the grid, walked from the delta's predicates through the
  same predicate table the serial pass uses
  (:func:`repro.chase.plans.discovery_table`), is cut into chunk specs
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
  emit travel back.  A threaded executor (shared memory, no pickling,
  persistent across rounds) is the fallback wherever ``fork`` is
  unavailable or the pool cannot start, and ``workers=1`` (or rounds
  below :data:`MIN_PARALLEL_WORK`) short-circuits to the serial
  :func:`repro.chase.plans.discovery_rows` — all three paths produce the
  same rows.  The path is selected from ``workers`` and the host, never
  configured: the pool's tuning values are module constants.

* **Merging** — chunks partition the pivot hits, and each trigger
  surfaces at exactly one hit, already at its birth.  The merge
  concatenates the rows; :func:`repro.chase.trigger.materialize` and
  :func:`repro.chase.trigger.in_birth_order` — the serial pass's own
  row -> Trigger step and total ``(birth, canonical_key)`` sort — finish
  the list, so it is byte-identical to the serial pass regardless of pool
  scheduling.

The second parallel tier — the deciders' *independent chases* over
divergence-suspect databases — uses :func:`parallel_map`: ordered fan-out
of whole tasks over the same kind of pool, with the same thread/serial
fallback ladder.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.chase.plans import discovery_rows, discovery_table
from repro.chase.trigger import Trigger, in_birth_order, materialize
from repro.errors import ParallelDiscoveryError, ResultIntegrityError
from repro.obs import clock, trace
from repro.obs.log import get_logger
from repro.tgds.tgd import TGD

#: Structured fault/fallback events (worker retries, fresh pools, backend
#: degradation) are emitted here; tests and operators subscribe by name.
_LOGGER = get_logger(__name__)

#: Errors that mean "the pool could not run", triggering the threaded
#: fallback.  OSError covers fork/pipe/resource failures (including
#: PermissionError on fork-restricted hosts); BrokenProcessPool covers
#: workers dying before returning.
_POOL_ERRORS = (OSError, BrokenProcessPool)

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

#: Resubmissions of one failed task before the failure escalates pool-wide
#: (rung 1 of the retry ladder), and the base of their exponential backoff
#: in seconds.
TASK_RETRIES = 2
RETRY_BACKOFF = 0.05

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

    The worker body, shared by every backend: each chunk binds one
    ``(tgd, pivot)`` pair to a slice of the pivot predicate's delta bucket
    and runs that pair's generated kernel (``plan.match``) —
    the exact code the serial pass runs.  Bucket slices are recomputed
    from the delta (chunk specs stay index-pairs, cheap to ship).  Rows are
    ``(tgd_index, values, birth)``, ``values`` the body binding in
    :attr:`TGD.body_order`.
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
    :func:`_validate_rows` — both raise :class:`ResultIntegrityError`, the
    retry ladder's rung-1 trigger.
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
    """Fan semi-naive discovery batches out over a worker pool.

    Drop-in replacement for the serial discovery pass: ``rows(instance,
    delta)`` returns the rows of the serial
    :func:`repro.chase.plans.discovery_rows` (in some order), computed by
    ``workers`` processes (or threads), and ``discover(instance, delta)``
    returns exactly ``seminaive_triggers(tgds, instance, delta)``.  A
    :class:`repro.chase.engine.ChaseEngine` built with ``workers > 1``
    builds one per run.

    :attr:`backend` is selected, not configured: ``"serial"`` for one
    worker, ``"process"`` where the ``fork`` start method exists, else
    ``"thread"``.

    Failures climb a retry ladder before anything run-wide changes:

    1. a task that fails on its own (bad result shape, a worker exception)
       is resubmitted to the same pool up to :data:`TASK_RETRIES` times
       with exponential backoff;
    2. a *pool-level* failure (broken pool, fork/pipe errors) rebuilds the
       pool once and re-runs only the unfinished tasks;
    3. a second pool-level failure logs a structured event and pins the
       matcher to the threaded backend — results are recomputed, never
       half-merged (tasks are pure functions of the round state, so a
       retried chunk is byte-identical to a first-try chunk).
    """

    def __init__(self, tgds: Sequence[TGD], workers: int = 1):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        #: The discovery table of ``tgds``, built at the first discovery.
        self._table = None
        self.workers = max(1, int(workers))
        #: ``"serial"``, ``"process"`` or ``"thread"``; a process pool that
        #: collapses twice pins it to ``"thread"`` for the rest of the run.
        if self.workers == 1:
            self.backend = "serial"
        elif _fork_available():
            self.backend = "process"
        else:
            self.backend = "thread"
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        #: Observability counters (tests assert the pool actually ran).
        self.rounds_parallel = 0
        self.rounds_serial = 0
        #: Fault counters: task resubmissions, pool rebuilds, and runtime
        #: process->thread degradations survived.
        self.chunk_retries = 0
        self.fresh_pools = 0
        self.backend_fallbacks = 0
        #: Profile counters, folded into :class:`repro.obs.stats.ChaseStats`
        #: by ``absorb_matcher``: summed worker-side task durations, the
        #: master wall spent draining pools, and the wall spent
        #: concatenating the pooled tasks' rows.
        self.busy_seconds = 0.0
        self.pool_wall_seconds = 0.0
        self.merge_seconds = 0.0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the persistent threaded pool (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None

    def __enter__(self) -> "ParallelMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- planning ----------------------------------------------------------

    def _discovery_table(self):
        if self._table is None:
            self._table = discovery_table(self.tgds)
        return self._table

    def _plan(self, delta) -> Tuple[List[list], int]:
        """Cut the (tgd, pivot) × delta grid into balanced task lists.

        Returns ``(tasks, total_work)`` where each task is a list of chunk
        specs ``(tgd_index, pivot_index, lo, hi)`` and work is measured in
        pivot atoms.  The pairs come from the delta's predicates through the
        serial pass's predicate table (equal rules after the first dropped).
        The plan is a pure function of (tgds, delta), so every backend — and
        every rerun after a fallback — partitions identically.
        """
        table = self._discovery_table()
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
        global _FORK_STATE
        # Position buckets are built on first probe; one built in a forked
        # worker dies with it.  Build every position the round's plans may
        # probe here, once, so the workers inherit them.
        pairs = {(chunk[0], chunk[1]): None for task in tasks for chunk in task}
        for tgd_index, pivot_index in pairs:
            for predicate, position in self.tgds[tgd_index].join_plans()[pivot_index].probes:
                instance.index_position(predicate, position)
        context = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            _FORK_STATE = (self.tgds, instance, delta)
            try:
                return self._drain_process(context, tasks)
            finally:
                _FORK_STATE = None

    def _drain_process(self, context, tasks) -> List[list]:
        """Run the tasks, surviving one pool collapse (rung 2 of the ladder)."""
        results: List[Optional[list]] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        fresh_pools_left = 1
        while True:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending)), mp_context=context
                ) as pool:
                    self._collect(pool, tasks, results, pending)
                return results
            except _POOL_ERRORS as error:
                pending = [index for index in pending if results[index] is None]
                if fresh_pools_left <= 0 or not pending:
                    raise
                fresh_pools_left -= 1
                self.fresh_pools += 1
                _LOGGER.warning(
                    "process pool collapsed (%r); rerunning %d unfinished "
                    "task(s) on a fresh pool",
                    error,
                    len(pending),
                    extra={
                        "backend": self.backend,
                        "pool_workers": self.workers,
                        "pool_error": repr(error),
                    },
                )

    def _collect(self, pool, tasks, results, pending) -> None:
        """Drain ``pending`` tasks, retrying individual failures in place
        (rung 1: resubmit to the same, still-healthy pool with backoff)."""
        futures = {index: pool.submit(_discover_task, tasks[index]) for index in pending}
        for index in pending:
            attempts = 0
            while True:
                try:
                    payload = self._fetch(futures[index], index)
                    rows, busy = _unpack_payload(self.tgds, payload)
                    self.busy_seconds += busy
                    results[index] = rows
                    break
                except _POOL_ERRORS:
                    raise  # every in-flight future is lost with the pool
                except Exception as error:
                    attempts += 1
                    if attempts > TASK_RETRIES:
                        raise
                    self.chunk_retries += 1
                    _LOGGER.warning(
                        "discovery task %d failed (%r); resubmitting "
                        "(attempt %d/%d)",
                        index,
                        error,
                        attempts,
                        TASK_RETRIES,
                        extra={
                            "backend": self.backend,
                            "pool_workers": self.workers,
                            "pool_error": repr(error),
                        },
                    )
                    clock.sleep(RETRY_BACKOFF * (2 ** (attempts - 1)))
                    futures[index] = pool.submit(_discover_task, tasks[index])

    def _run_threads(self, instance: Instance, delta, tasks) -> List[list]:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="chase-matcher"
            )

        def run(chunks):
            start = clock.perf_counter()
            rows = _match_chunks(self.tgds, instance, delta, chunks)
            return rows, clock.perf_counter() - start

        payloads = list(self._thread_pool.map(run, tasks))
        results = []
        for rows, busy in payloads:
            self.busy_seconds += busy
            results.append(rows)
        return results

    def discover(self, instance: Instance, delta) -> List[Trigger]:
        """The round's new triggers in ``(birth, canonical_key)`` order.

        Byte-identical to ``seminaive_triggers(self.tgds, instance, delta)``
        on every backend, including after a mid-run fallback.
        """
        return in_birth_order(materialize(self.tgds, self.rows(instance, delta)))

    def rows(self, instance: Instance, delta) -> List[tuple]:
        """The round's discovery rows ``(tgd_index, values, birth)``.

        The same rows as the serial pass over ``self.tgds`` on every
        backend; only their order depends on the task partition, and
        :func:`repro.chase.trigger.in_birth_order` erases it.
        """
        if not delta:
            return []
        if self.backend == "serial":
            self.rounds_serial += 1
            return discovery_rows(self._discovery_table(), instance, delta)
        with trace.span("round.plan"):
            tasks, total = self._plan(delta)
        if not tasks:
            self.rounds_serial += 1
            return []
        if total < MIN_PARALLEL_WORK or len(tasks) < 2:
            self.rounds_serial += 1
            return discovery_rows(self._discovery_table(), instance, delta)
        results: Optional[List[list]] = None
        pool_start = clock.perf_counter()
        with trace.span("round.exec", tasks=len(tasks), work=total):
            if self.backend == "process":
                try:
                    results = self._run_process(instance, delta, tasks)
                except Exception as error:
                    # The ladder's last rung: retries and the fresh pool are
                    # spent (or the failure is not pool-shaped at all) — pin
                    # the run to threads and recompute the round from scratch.
                    _LOGGER.warning(
                        "process pool unavailable (%r); "
                        "falling back to threaded discovery",
                        error,
                        extra={
                            "backend": "process",
                            "pool_workers": self.workers,
                            "pool_error": repr(error),
                        },
                    )
                    self.backend_fallbacks += 1
                    self.backend = "thread"
            if results is None:
                try:
                    results = self._run_threads(instance, delta, tasks)
                except Exception as error:
                    raise ParallelDiscoveryError(
                        f"threaded discovery fallback failed: {error!r}"
                    ) from error
        self.pool_wall_seconds += clock.perf_counter() - pool_start
        self.rounds_parallel += 1
        # Tasks partition the pivot hits and each trigger surfaces at
        # exactly one hit, so no row repeats another.
        merge_start = clock.perf_counter()
        with trace.span("round.merge", tasks=len(results)):
            merged = [row for rows in results for row in rows]
        self.merge_seconds += clock.perf_counter() - merge_start
        return merged


def parallel_map(fn, payloads, workers: int = 1) -> list:
    """Map ``fn`` over ``payloads`` on a pool; results in payload order.

    The deciders' tier: each payload is one *independent chase* (a
    divergence-suspect database plus its search parameters), so tasks ship
    whole and results come back pickled — no shared state.  Result order
    follows payload order regardless of completion order, which is what
    keeps parallel verdicts identical to serial ones (the caller scans
    results front to back, exactly like the serial loop).

    Fallback ladder: ``workers<=1`` / single payload → plain loop; ``fork``
    missing or the pool failing to start → threads.
    ``fn`` must be a module-level function for the process path.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    if _fork_available():
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads)), mp_context=context
            ) as pool:
                return list(pool.map(fn, payloads))
        except _POOL_ERRORS as error:
            _LOGGER.warning(
                "process pool unavailable (%r); falling back to threaded map",
                error,
                extra={
                    "backend": "process",
                    "pool_workers": workers,
                    "pool_error": repr(error),
                },
            )
    with ThreadPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))
