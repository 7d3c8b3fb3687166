"""Parallel trigger discovery: the master plus a forked child per extra worker.

Semi-naive trigger discovery (:func:`repro.chase.trigger.seminaive_triggers`)
is embarrassingly parallel: the ``(tgd, pivot)`` × delta grid decomposes
into independent match tasks whose only shared inputs — the TGD set, the
instance's term-position indexes, and the round's delta — are read-only for
the duration of a round.  :class:`ParallelMatcher` exploits that:

* **Planning** — the grid, walked from the delta's predicates through the
  same predicate table the serial pass uses
  (:attr:`repro.chase.plans.RuleTables.discovery`), is cut into chunk specs
  ``(tgd_index, pivot_index, lo, hi)``, one slice of each pivot's
  per-predicate delta bucket per worker, and dealt to one task per worker
  so that every task gets an even share of every pair.

* **Execution** — the master forks one child for every task but the
  first, which it matches itself meanwhile.  A child inherits the round's
  ``(tgds, instance, delta)`` by memory snapshot, nothing is pickled
  inward, runs the serial pass's compiled join plans
  (:mod:`repro.chase.plans`) over its chunks, writes one pickled
  ``(rows, busy_seconds)`` payload to its pipe and leaves through
  ``os._exit``.  The master reads every pipe and reaps every child before
  the round returns.  ``workers=1``, a host without ``fork`` and rounds
  below :data:`MIN_PARALLEL_WORK` run the serial
  :func:`repro.chase.plans.discovery_rows`, which yields the same rows.

* **Merging** — chunks partition the pivot hits, and each trigger
  surfaces at exactly one hit, already at its birth.  The merge
  concatenates the rows; the serial pass's own ``(birth, canonical_key)``
  order (:meth:`repro.chase.plans.RuleTables.order`) and row -> Trigger
  step (:func:`repro.chase.trigger.triggers_of`) finish the list, so it is
  byte-identical to the serial pass.

* **Recovery** — any failure of a pooled round (a fork or pipe
  ``OSError``, a task raising, a child exiting non-zero, a short or
  unpicklable payload, a payload :func:`_validate_rows` rejects) is
  logged once, and the round is recomputed by the serial pass, which
  stays the matcher's path for the rest of the run.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
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
#: per-round fork cost only pays for itself on wide deltas.  Calibration
#: (2-CPU container, Python 3.11): forking and reaping a round of empty
#: tasks costs 1.9 ms at 2 workers and 4.7 ms at 4, and copy-on-write faults
#: about double a forked task's matching time.  ``parallel_join`` at
#: workers=2 (about 56n pivot atoms) reads 0.72x/0.82x/0.87x of serial at
#: n=32/64/128 (medians of 15 and 25 alternating serial/pooled pairs), so
#: break-even there lies above 7,000 pivot atoms; the value stays because
#: the harness's parallel gate is defined at n=64.  Tests pin it to 0 to
#: force tiny rounds through the pool.
MIN_PARALLEL_WORK = 512

#: Held while a round forks and the master matches its own task, never
#: while it waits on its children.  A fork in another thread copies what
#: this one holds: an open pipe write end, whose reader then sees EOF only
#: when that child exits, or mid-read of an sqlite instance the library's
#: mutexes, and that child hangs opening its connection.
_FORK_LOCK = threading.Lock()


def _fork_available() -> bool:
    return hasattr(os, "fork")


def _match_chunks(tgds: Sequence[TGD], instance: Instance, delta, chunks) -> List[tuple]:
    """Run one task's chunk specs; returns compact rows.

    Each chunk binds one ``(tgd, pivot)`` pair to a slice of the pivot
    predicate's delta bucket and runs that pair's generated kernel
    (``plan.match``) — the exact code the serial pass runs.  Rows are
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


def _fork_task(tgds: Sequence[TGD], instance: Instance, delta, chunks) -> Tuple[int, int]:
    """Fork one child that matches ``chunks``; returns ``(pid, read_fd)``.

    The child leaves through ``os._exit`` (status 1 and no payload if
    anything raised), so it runs no exit handler or inherited finalizer.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            start = clock.perf_counter()
            rows = _match_chunks(tgds, instance, delta, chunks)
            payload = (rows, clock.perf_counter() - start)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


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

    A child that came back at all usually came back right — but a corrupted
    payload would silently poison the ``(birth, canonical_key)`` merge.
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
    """Fan semi-naive discovery batches out over forked children.

    Drop-in replacement for the serial discovery pass: ``rows(instance,
    delta)`` returns the rows of the serial
    :func:`repro.chase.plans.discovery_rows` (in some order), computed by
    ``workers`` processes (the master and its children), and
    ``discover(instance, delta)`` exactly ``seminaive_triggers(tgds,
    instance, delta)``.  A :class:`repro.chase.engine.ChaseEngine` with
    ``workers > 1`` builds one per run.

    :attr:`backend` is selected, not configured: ``"process"`` for more
    than one worker where ``os.fork`` exists, else ``"serial"``.  A pooled
    round that fails in any way is recomputed serially (tasks are pure
    functions of the round state) and pins :attr:`backend` to
    ``"serial"`` for the rest of the run.
    """

    def __init__(self, tgds: Sequence[TGD], workers: int = 1):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        #: The rule list's discovery table and ranks, built once for
        #: every round.
        self._tables = RuleTables.of(self.tgds)
        self.workers = max(1, int(workers))
        self.backend = "process" if self.workers > 1 and _fork_available() else "serial"
        #: Observability counters (tests assert the pool actually ran).
        self.rounds_parallel = 0
        self.rounds_serial = 0
        #: Pooled rounds that failed and were recomputed serially (at most
        #: one per run: the first pins the backend).
        self.backend_fallbacks = 0
        #: Profile counters, folded into :class:`repro.obs.stats.ChaseStats`
        #: by ``absorb_matcher``: summed task durations, the master wall
        #: spent on pooled rounds, and the wall spent concatenating rows.
        self.busy_seconds = 0.0
        self.pool_wall_seconds = 0.0
        self.merge_seconds = 0.0

    # -- planning ----------------------------------------------------------

    def _plan(self, delta) -> Tuple[List[list], int]:
        """Cut the (tgd, pivot) × delta grid into one task per worker.

        Returns ``(tasks, total_work)``: at most ``workers`` lists of chunk
        specs ``(tgd_index, pivot_index, lo, hi)``, work measured in pivot
        atoms.  The pairs come from the delta's predicates through the
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
        # Each pair's bucket is cut into one slice per worker, pair j's
        # first slice going to task j: every task gets an even share of every
        # pair, whatever a pair costs per pivot atom.
        tasks: List[list] = [[] for _ in range(self.workers)]
        for j, (tgd_index, pivot_index, size) in enumerate(pairs):
            for k in range(self.workers):
                lo, hi = size * k // self.workers, size * (k + 1) // self.workers
                if lo < hi:
                    tasks[(j + k) % self.workers].append((tgd_index, pivot_index, lo, hi))
        tasks = [task for task in tasks if task]
        return tasks, total

    # -- execution ---------------------------------------------------------

    def _fetch(self, child: Tuple[int, int], task_index: int):
        """Read child ``(pid, read_fd)``'s payload to EOF and close the pipe.
        The one master-side collection seam, where the tests' fault
        injection hooks in."""
        with open(child[1], "rb") as pipe:
            return pickle.loads(pipe.read())

    def _run_process(self, instance: Instance, delta, tasks) -> List[list]:
        """Run the first task here and each other in a forked child; their
        validated row lists, in task order.

        Raises whatever forking, a task or :func:`_unpack_payload` raises,
        or :class:`ChildProcessError` for a non-zero exit; :meth:`rows`
        turns that into the serial recompute.  Every child is reaped before
        the call returns, and killed first if the round failed.
        """
        # A plan takes the getters of every position it may probe when it
        # starts, and buckets built in a child die with it: build them here,
        # once, so the children inherit them.
        pairs = {(chunk[0], chunk[1]): None for task in tasks for chunk in task}
        for tgd_index, pivot_index in pairs:
            for predicate, position in self.tgds[tgd_index].join_plans()[pivot_index].probes:
                instance.index_position(predicate, position)
        children: List[Tuple[int, int]] = []
        results: List[list] = []
        busy = 0.0
        fetched = 0
        try:
            with _FORK_LOCK:
                for task in tasks[1:]:
                    children.append(_fork_task(self.tgds, instance, delta, task))
                # The master is a worker too: it matches the first task
                # while the children match the rest, one fork fewer.
                start = clock.perf_counter()
                results.append(_match_chunks(self.tgds, instance, delta, tasks[0]))
                busy += clock.perf_counter() - start
            for index, child in enumerate(children, 1):
                fetched += 1  # _fetch closes the pipe, whether or not it raises
                rows, seconds = _unpack_payload(self.tgds, self._fetch(child, index))
                results.append(rows)
                busy += seconds
        finally:
            for _, read_fd in children[fetched:]:
                os.close(read_fd)
            if len(results) < len(tasks):  # the round failed: stop the rest
                for pid, _ in children:
                    os.kill(pid, signal.SIGKILL)
            # Reaped only after every read, so the children exit in parallel.
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
        codes = [os.waitstatus_to_exitcode(status) for status in statuses if status]
        if codes:
            raise ChildProcessError(f"workers exited with status {codes}")
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
            log_event(_LOGGER, logging.WARNING, "pool.fallback",
                      pool_workers=self.workers, pool_error=repr(error))
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
