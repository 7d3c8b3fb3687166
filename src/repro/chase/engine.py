"""The shared incremental chase kernel.

Every chase variant in this repository (restricted, oblivious, the DFS over
derivations, the weakly restricted rounds) bottoms out in the same three
operations: discover triggers, decide activity, apply a trigger.  This
module owns the fast implementations of all three:

* :class:`HeadWitnessIndex` — Definition 3.1 activity in O(few).  A full
  TGD's frontier is its whole head, so its trigger is active iff its
  result atom ``result(σ,h)`` is not in the instance: one membership probe,
  and nothing stored.  For every existential TGD the index records, per
  atom added to the instance whose predicate its head has, the
  frontier-binding tuple the atom witnesses, read off the atom by the
  TGD's compiled :class:`repro.chase.plans.HeadKernel`; such a trigger is
  active iff its frontier tuple is absent.  Because chase steps only ever
  *add* atoms, deactivation is monotone: a hit is permanent, and no entry
  ever needs revalidation or removal.

* :class:`ChaseEngine` — instance + witness cache + a trigger worklist.
  Discovery surfaces every trigger exactly once (the join plans' delta
  limits), so the worklist keeps no seen-set: each discovery batch is
  enqueued in canonical order, and the worklist itself is purely
  insertion-ordered (list position is the monotone insertion counter), so
  no caller ever re-sorts trigger lists with string keys.  ``apply`` adds the
  result atom, feeds the witness cache, and discovers the triggers the new
  atom enables.  :meth:`ChaseEngine.fork` copies an engine's state into
  one that shares nothing mutable with it: the derivation search
  (:func:`repro.chase.restricted.exists_derivation_of_length`) explores
  each alternative step on a fork, so no step is ever reverted.

* One discovery kernel: every trigger the engine enqueues comes from the
  compiled join plans of :mod:`repro.chase.plans`, run over a *delta*:
  the atoms born since a birth the engine noted
  (:meth:`repro.core.instance.Instance.born_since`), which are the
  instance's newest.  A round's batched pass runs them over the atoms the
  round added; seeding, ``apply`` and ``inject_atoms`` over the atoms
  they added (all seed atoms, one result atom, the injected atoms).  No
  delta is recorded anywhere: a birth names where it starts.

* :meth:`ChaseEngine.run_round` — the *semi-naive, set-at-a-time* evaluation
  mode: instead of popping one trigger per step, a round notes the
  instance's next birth, drains the whole pending batch, applies the
  still-active triggers in batch order, reads the atoms born since the
  noted birth off the instance once, and runs one batched discovery pass
  (:meth:`ChaseEngine._discover`) over them.  Discovery results are
  enqueued in ``(birth, canonical)`` order, which replays the
  step-at-a-time engine's enqueue order exactly — round-based and
  step-based runs produce byte-identical instances, verdicts, and
  derivations.

* :meth:`ChaseEngine.drive` — the one round driver: ``run_round`` to a
  fixpoint or the first limit.  ``seminaive_chase``, the semi-naive
  ``oblivious_chase``, and the service's sessions all run on it.  The
  constructor is the one way to build an engine, fresh or resumed from a
  checkpoint; :meth:`ChaseEngine.running` / :meth:`ChaseEngine.close` are
  the shared teardown.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends import make_instance
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.chase.derivation import Derivation
from repro.chase.plans import RuleTables, discovery_rows
from repro.chase.trigger import Trigger, in_canonical_order, triggers_of
from repro.obs import clock, trace
from repro.obs.log import get_logger, log_event
from repro.tgds.tgd import TGD

_LOGGER = get_logger(__name__)


def _bind_rows(triggers: Iterable[Trigger], tgds: Tuple[TGD, ...]) -> List[Trigger]:
    """``triggers`` with each rule swapped for the ``tgds`` rule of its digest.

    Restored checkpoint rows carry unpickled *copies* of the rules.  Bound
    to the caller's own rule objects, the head-witness lookup takes its
    identity fast path and every row shares its rule's compiled head
    kernel.  Matching is by digest prefix, as the restore check is; a row
    whose rule matches none keeps its own.
    """
    by_digest: Dict[str, TGD] = {}
    for tgd in tgds:
        by_digest.setdefault(tgd.digest_prefix(), tgd)
    rows = []
    for trigger in triggers:
        tgd = by_digest.get(trigger.tgd.digest_prefix(), trigger.tgd)
        rows.append(trigger if tgd is trigger.tgd else Trigger.from_row(tgd, trigger.values))
    return rows


class HeadWitnessIndex:
    """Is a trigger's head already witnessed (the trigger inactive)?

    A full TGD's frontier is its whole head, so ``result(σ,h)`` is the one
    atom that can witness its trigger: ``witnessed`` tests it against the
    instance, and the index keeps nothing for the rule.

    For an existential TGD, ``note(atom)`` extracts the unique frontier
    tuple the atom witnesses (if the head matches at all) and records it;
    ``witnessed(trigger)`` is then a set lookup — the indexed replacement
    for the repeated ``satisfies_head`` scans.  The owner notes every atom
    it adds.

    Correctness: a candidate atom matches ``head(σ)`` under a partial
    frontier binding ``h|fr(σ)`` iff it matches under the empty binding
    *and* its extracted frontier tuple equals the trigger's, because every
    frontier position pins the candidate's term directly and the remaining
    (existential) positions only carry internal consistency constraints.
    """

    def __init__(self, tables: RuleTables, instance: Instance):
        #: The owner's routing (:class:`repro.chase.plans.RuleTables`):
        #: ``head predicate -> ((index, kernel), ...)`` over the existential
        #: rules, equal TGDs under the index of the first, whose witnessed
        #: set they share.
        self._routes = tables.heads
        self._firsts = tables.firsts
        self._sets = {
            index: set() for routes in self._routes.values() for index, _ in routes
        }
        #: The instance's membership container: what witnesses a full rule.
        self._atoms = instance.membership()
        #: Telemetry: probes answered / probes answered "already witnessed"
        #: (a hit deactivates a trigger — work the cache saved).  Plain
        #: ints, folded into :class:`repro.obs.stats.ChaseStats` at run end.
        self.lookups = 0
        self.hits = 0
        if self._routes:
            for atom in instance:
                self.note(atom)

    def note(self, atom: Atom) -> None:
        """Record every frontier tuple ``atom`` witnesses."""
        predicate, terms = atom
        sets = self._sets
        for index, kernel in self._routes.get(predicate, ()):
            if len(terms) != kernel.arity:
                continue
            twins = kernel.twins
            if twins is not None and twins[0](terms) != twins[1](terms):
                continue
            sets[index].add(kernel.witness(terms))

    def copy(self, instance: Instance) -> "HeadWitnessIndex":
        """This index over ``instance``, a copy of its own instance: the
        witnessed sets copied, the membership test ``instance``'s, and the
        counters at zero."""
        clone = object.__new__(HeadWitnessIndex)
        clone.__dict__ = dict(self.__dict__)
        clone._sets = {index: set(keys) for index, keys in self._sets.items()}
        clone._atoms = instance.membership()
        clone.lookups = clone.hits = 0
        return clone

    def witnessed(self, trigger: Trigger) -> bool:
        """Is the trigger's head already witnessed (i.e. the trigger inactive)?"""
        self.lookups += 1
        tgd, values = trigger
        kernel = tgd.head_kernel()
        if kernel.suffixes:
            # Existential: its frontier tuple, against the noted ones.
            hit = kernel.frontier(values) in self._sets[self._firsts[tgd]]
        else:
            hit = kernel.result(values) in self._atoms
        if hit:
            self.hits += 1
        return hit


class RoundResult:
    """What one semi-naive :meth:`ChaseEngine.run_round` call did."""

    __slots__ = ("applied", "delta", "discovered", "cut", "reason", "vacuous")

    def __init__(self, applied, delta, discovered, cut, reason=None, vacuous=0):
        #: Triggers applied this call, in application order.  With the
        #: witness cache enabled these are exactly the still-active batch
        #: triggers; without it, every processed batch trigger.
        self.applied = applied
        #: Atoms this call added, in insertion order.  When a cut split a
        #: round across calls, each call reports only its own additions —
        #: the callers' application tallies sum correctly either way.
        self.delta = delta
        #: Triggers the round's batched discovery enqueued, in enqueue order.
        self.discovered = discovered
        #: True iff a budget stopped the round early.  The unprocessed tail
        #: is re-queued in order and the round's start stays noted: the next
        #: ``run_round`` call *continues the same logical round*, so callers
        #: may abort, checkpoint, or simply keep going — nothing is lost.
        self.cut = cut
        #: Which limit cut the round: ``"max_applications"`` /
        #: ``"max_atoms"`` for the legacy per-call caps, a ``"budget:*"``
        #: string for a :class:`repro.chase.checkpoint.Budget`; None when
        #: the round completed.
        self.reason = reason
        #: Batch triggers this call processed but skipped as inactive —
        #: discovered work a head witness made vacuous before application.
        self.vacuous = vacuous

    def __repr__(self) -> str:
        state = f"cut:{self.reason}" if self.cut else "complete"
        return (
            f"RoundResult({state}: {len(self.applied)} applied, "
            f"{len(self.delta)} new atoms, {len(self.discovered)} discovered)"
        )


class ChaseEngine:
    """Instance + head-witness cache + trigger worklist.

    ``pending`` is the insertion-ordered worklist (FIFO pops index 0, LIFO
    the last index — exactly the strategy contract of ``restricted_chase``).
    Discovery batches are enqueued in canonical (:attr:`Trigger.canonical_key`)
    order so derivations are reproducible across runs regardless of hash
    randomization; within the worklist, insertion order is the only
    ordering — no string sorts on the hot path.
    """

    def __init__(
        self,
        database,
        tgds: Sequence[TGD],
        kind: str = "semi_naive",
        resume=None,
        stats=None,
        prune: bool = False,
        backend=None,
    ):
        """An engine over ``database``, or the one ``resume`` suspended.

        ``kind`` names the entry point and is the checkpoint ``kind``.  An
        ``"oblivious"`` engine runs witness-free; every other kind keeps
        the head-witness cache and records its derivation on
        :attr:`derivation`.  ``resume`` is a
        :class:`repro.chase.checkpoint.ChaseCheckpoint` taken by a chase of
        the same kind over the same rule list (``database`` is then
        ignored): the worklist, a cut round's start birth, the round count
        and the derivation log come from it, and the instance indexes and
        the witness cache are rebuilt from its atom list.

        ``prune`` drops from discovery the rules a
        :class:`repro.termination.dependencies.RuleDependencyGraph` proves
        dead for the instance's predicates.  ``stats`` is an optional
        :class:`repro.obs.stats.ChaseStats` sink.  ``backend`` selects the
        instance storage: a name in :data:`repro.backends.BACKENDS`, or
        None for the ``CHASE_BACKEND`` default, then memory.
        None of the three changes a run: results are byte-identical across
        pruning, stats and backends.  :meth:`running` (or
        :meth:`close`) is the matching teardown.
        """
        #: The caller's full rule list: checkpoints and null naming key off it.
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        if resume is not None:
            resume.check(self.tgds, kind)
        self.kind = kind
        #: Strictly passive: an engine with stats attached is byte-identical
        #: to one without (tests/chase/test_obs.py enforces this).
        self.stats = stats
        if stats is not None and not stats.kind:
            stats.kind = kind
        if resume is None:
            if isinstance(database, Instance):
                atoms = database.sorted_atoms()
            else:
                atoms = sorted(database, key=Atom.sort_key)
            self._load(atoms, prune, backend)
            self._discover(0)
            if self.witnesses is not None:
                self.derivation = Derivation(self.instance)
            return
        start = resume.round_start()
        with trace.span("checkpoint.restore", atoms=len(resume.atoms)):
            self._load(resume.atoms, prune, backend)
            self.pending = _bind_rows(resume.pending, self.tgds)
            self._round_start = start
            self.rounds = resume.rounds
            if self.witnesses is not None:
                self.derivation = resume.restore_derivation()
                self.derivation.steps = _bind_rows(self.derivation.steps, self.tgds)
        if stats is not None:
            # The snapshot's worklist enters this run's accounting as
            # discovered work, keeping fired <= discovered on resume.
            stats.triggers_discovered += len(self.pending)
            stats.checkpoints_restored += 1
        log_event(
            _LOGGER,
            logging.INFO,
            "checkpoint.restore",
            kind=kind,
            atoms=len(resume.atoms),
            pending=len(self.pending),
            mid_round=start is not None,
        )

    def _load(self, atoms: Sequence[Atom], prune: bool, backend) -> None:
        """The state both constructor paths share, over ``atoms`` in order."""
        self.instance = make_instance(backend, atoms=atoms)
        #: Discovery runs over the *live* rule subset.  Rules with a body
        #: predicate outside the reachable closure of the instance's
        #: predicates never produce a trigger, so dropping them keeps
        #: discovery byte-identical.  On resume the instance has grown, but
        #: only by heads of live rules, so the closure (hence the subset)
        #: is the fresh engine's.
        self.live: Tuple[TGD, ...] = self.tgds
        if prune:
            # Lazy import: repro.termination sits above the chase layer.
            from repro.termination.dependencies import RuleDependencyGraph

            graph = RuleDependencyGraph(self.tgds)
            self.live = tuple(
                self.tgds[i] for i in graph.live_indices(self.instance.predicates())
            )
        #: The tables of ``live`` (discovery table, rule ranks, witness
        #: routing), kept for every round; shared with the last engine
        #: over the identical rule objects.
        self._tables = RuleTables.of(self.live)
        self.witnesses: Optional[HeadWitnessIndex] = (
            None if self.kind == "oblivious" else HeadWitnessIndex(self._tables, self.instance)
        )
        self.pending: List[Trigger] = []
        #: The first birth of a round in progress: its delta is every atom
        #: born since.  Non-None between a budget cut and the call that
        #: completes the round — the suspended state a checkpoint carries
        #: and ``run_round`` continues from.
        self._round_start: Optional[int] = None
        #: Rounds :meth:`drive` started; a suspended round counts once.
        self.rounds = 0
        #: The derivation log :meth:`drive` appends to (None: oblivious).
        self.derivation: Optional[Derivation] = None

    @contextmanager
    def running(self):
        """Wrap one entry point's run: span, stats wall clock, and teardown.

        The ``chase.run`` span and ``stats.wall_seconds`` cover the body;
        :meth:`close` runs on the way out, a raise included.
        """
        start = clock.perf_counter() if self.stats is not None else 0.0
        try:
            with trace.span("chase.run", kind=self.kind):
                yield self
        finally:
            if self.stats is not None:
                self.stats.wall_seconds += clock.perf_counter() - start
            self.close()

    def close(self) -> None:
        """Fold the engine's counters into its stats."""
        if self.stats is not None:
            self.stats.absorb_engine(self)

    def mid_round(self) -> bool:
        """Is a budget-cut round suspended (start noted, discovery pending)?"""
        return self._round_start is not None

    # -- worklist ----------------------------------------------------------

    def _discover(self, start: int, round_pass: bool = False) -> List[Trigger]:
        """Enqueue the triggers whose body image uses an atom born since
        ``start``: the delta, read off the instance once.

        The engine's one discovery step: rows from the join plans of
        :mod:`repro.chase.plans`, :meth:`RuleTables.order`,
        :func:`triggers_of`, the worklist.
        A round pass enqueues in ``(birth, canonical)`` order; every other
        batch (seeding, ``apply``, ``inject_atoms``) ignores births.
        """
        stats = self.stats
        if stats is not None:
            stamp = clock.perf_counter()
        born = self.instance.born_since(start)
        rows = discovery_rows(self._tables.discovery, self.instance, born)
        if stats is not None:
            joined = clock.perf_counter()
            stats.discover_join_seconds += joined - stamp
        rows = self._tables.order(rows, by_birth=round_pass)
        if stats is not None:
            stamp = clock.perf_counter()
            stats.discover_order_seconds += stamp - joined
        batch = triggers_of(self.live, rows)
        self.pending.extend(batch)
        if stats is not None:
            stats.triggers_discovered += len(batch)
            stats.discover_materialize_seconds += clock.perf_counter() - stamp
        return batch

    def active_pending(self) -> List[Trigger]:
        """The active pending triggers in canonical order (a snapshot)."""
        return in_canonical_order(
            [t for t in self.pending if self.is_active(t)], self._tables
        )

    def _has_active_pending(self) -> bool:
        """Is a pending trigger still active?  (Every one is, witness-free.)"""
        witnesses = self.witnesses
        return witnesses is None or not all(map(witnesses.witnessed, self.pending))

    def take_pending(self) -> List[Trigger]:
        """Drain the worklist (round-based engines consume whole batches)."""
        batch = self.pending
        self.pending = []
        return batch

    # -- activity ----------------------------------------------------------

    def is_active(self, trigger: Trigger) -> bool:
        """Definition 3.1 activity, answered by the head-witness cache."""
        if self.witnesses is None:
            raise RuntimeError("oblivious engines keep no head-witness cache")
        return not self.witnesses.witnessed(trigger)

    # -- application -------------------------------------------------------

    def apply(self, trigger: Trigger) -> bool:
        """Apply a trigger: add its result, feed indexes, discover triggers.

        The caller owns removing the trigger from ``pending`` (engines pop
        by strategy index).  Returns True iff the result atom was new.
        """
        stats = self.stats
        if stats is not None:
            stamp = clock.perf_counter()
        atom = trigger.result()
        instance = self.instance
        start = instance.next_birth()
        added = instance.add(atom)
        if added and self.witnesses is not None:
            self.witnesses.note(atom)
        if stats is not None:
            stats.apply_seconds += clock.perf_counter() - stamp
            stats.record_fired(trigger)
        if added:
            self._discover(start)
        return added

    def fork(self) -> "ChaseEngine":
        """An engine in this one's state that shares nothing mutable with it.

        Its instance is a memory copy (:meth:`Instance.copy`, on either
        backend), its worklist a copy of ``pending``, and its witness sets
        copies bound to the copy's membership test.  It keeps no derivation
        and no stats.  Instances only grow, so a search that wants to try
        another step from this state tries it on a fork.
        """
        # A shallow copy (without copy.copy's reduce protocol, which costs a
        # search more than the instance copy); the mutable parts follow.
        fork = object.__new__(ChaseEngine)
        fork.__dict__ = dict(self.__dict__)
        fork.instance = self.instance.copy()
        if self.witnesses is not None:
            fork.witnesses = self.witnesses.copy(fork.instance)
        fork.pending = list(self.pending)
        fork.derivation = fork.stats = None
        return fork

    # -- external facts ----------------------------------------------------

    def inject_atoms(self, atoms: Iterable[Atom]) -> List[Atom]:
        """Add externally supplied ground atoms and queue their discovery.

        The incremental-resume primitive of the service layer: a finished
        (or budget-suspended) engine absorbs new base facts and the next
        ``run_round`` calls saturate over them — no cold restart.  Returns
        the atoms that were actually new to the instance, in input order.

        At a round boundary the join plans run once over the new atoms as
        a delta, and the triggers they find are enqueued canonically
        sorted, as ``apply`` does for a derived atom.  Mid round (a budget
        cut suspended the round) the atoms are born into the round's delta
        instead, so the round-completing discovery pass covers them —
        either way every trigger touching the new atoms is found exactly
        once.

        Requires the full rule set live: the engine's dependency-pruned
        subset (``prune=True``) is fixed from the *seed* instance's
        predicates, and injected atoms may revive rules that pruning
        proved dead for the seed.  Engines meant to absorb external facts
        must be built with pruning off (``prune=False``).
        """
        if self.live is not self.tgds and len(self.live) != len(self.tgds):
            raise RuntimeError(
                "inject_atoms requires an unpruned engine: the live rule "
                "subset was fixed from the seed instance, and injected "
                "atoms may revive pruned rules (build with prune=False)"
            )
        start = self.instance.next_birth()
        added: List[Atom] = []
        for atom in atoms:
            if not atom.is_ground:
                raise ValueError(f"injected atoms must be ground, got {atom!r}")
            if self.instance.add(atom):
                added.append(atom)
                if self.witnesses is not None:
                    self.witnesses.note(atom)
        if added and not self.mid_round():
            self._discover(start)
        return added

    # -- semi-naive rounds -------------------------------------------------

    def run_round(
        self,
        max_applications: Optional[int] = None,
        max_atoms: Optional[int] = None,
        budget=None,
    ) -> RoundResult:
        """One set-at-a-time chase round over the whole pending batch.

        Notes the instance's next birth, drains the worklist, then (1) walks
        the batch in its enqueue order, re-checking each trigger's activity
        against the head-witness cache *at application time* (earlier
        applications of the same round may deactivate later batch members),
        before any limit, and applying the still-active ones;
        with the cache disabled (oblivious mode) every batch trigger is
        applied and set semantics deduplicates.  The walk inlines the
        witness probe and takes a result memo only if one exists (it stores
        none); a full rule's result atom is built once, for the probe and
        the insert.  (2) The atoms born since the noted birth are the
        round's delta, read off the instance once, and (3) one batched
        semi-naive discovery pass (:meth:`_discover`) over them enqueues the
        next round's triggers in ``(birth, canonical)`` order — the exact
        order the per-application discovery of the step-at-a-time engine
        would have produced, which keeps round-based runs byte-identical to
        step-at-a-time runs.

        ``max_applications`` bounds the applications of this call (the
        caller's per-run step budget); ``max_atoms`` stops once the instance
        outgrows the bound; ``budget`` is an optional
        :class:`repro.chase.checkpoint.Budget` checked before every
        application (wall clock, cumulative applications, absolute atoms).
        A violation re-queues the unprocessed tail in order, skips
        discovery, and sets ``cut`` — but the round's start birth stays
        noted: the engine is suspended, not poisoned.  A later
        ``run_round`` continues the same logical round (its delta runs from
        the same birth), so the eventual discovery pass is byte-identical
        to an uncut round's; :meth:`repro.chase.checkpoint.ChaseCheckpoint.capture` can
        snapshot the suspension for out-of-process resume.
        """
        instance = self.instance
        if self._round_start is None:
            self._round_start = instance.next_birth()
        start = self._round_start
        stats = self.stats
        if stats is not None:
            stats.pending_depths.append(len(self.pending))
            stamp = clock.perf_counter()
        batch = self.take_pending()
        applied: List[Trigger] = []
        added: List[Atom] = []
        vacuous = 0
        cut = False
        reason: Optional[str] = None
        witnesses = self.witnesses
        routes = {}
        if witnesses is not None:
            # HeadWitnessIndex.witnessed, inlined.
            sets, firsts, note = witnesses._sets, witnesses._firsts, witnesses.note
            routes, atoms = witnesses._routes, instance.membership()
        with trace.span("round.apply", batch=len(batch)):
            for index, trigger in enumerate(batch):
                tgd, values = trigger
                kernel = tgd.head_kernel()
                # A memo set earlier (say by the critical chase's nesting
                # monitor) is reused; none is created here.
                atom = trigger._result
                if witnesses is not None:
                    if kernel.suffixes:
                        if kernel.frontier(values) in sets[firsts[tgd]]:
                            vacuous += 1
                            continue
                    else:
                        if atom is None:
                            atom = kernel.result(values)
                        if atom in atoms:
                            vacuous += 1
                            continue
                if max_applications is not None and len(applied) >= max_applications:
                    self.pending = batch[index:] + self.pending
                    cut, reason = True, "max_applications"
                    break
                if budget is not None:
                    reason = budget.exceeded(len(instance))
                    if reason is not None:
                        self.pending = batch[index:] + self.pending
                        cut = True
                        break
                if atom is None:
                    atom = kernel.result(values)
                if instance.add(atom):
                    added.append(atom)
                    if atom[0] in routes:
                        note(atom)
                applied.append(trigger)
                if budget is not None:
                    budget.charge_application()
                if max_atoms is not None and len(instance) > max_atoms:
                    self.pending = batch[index + 1:] + self.pending
                    cut, reason = True, "max_atoms"
                    break
        if witnesses is not None and batch:
            # One probe per trigger the loop reached, a cut one included.
            witnesses.lookups += index + 1
            witnesses.hits += vacuous
        if stats is not None:
            stats.apply_seconds += clock.perf_counter() - stamp
            stats.triggers_vacuous += vacuous
            for trigger in applied:
                stats.record_fired(trigger)
        if cut:
            # The *entry-point loop* records the cut into stats (it may turn
            # a cut into an interrupt, a max-steps return, or a retry; only
            # it knows which) — here the round just reports it.
            trace.instant("round.cut", reason=reason)
            log_event(
                _LOGGER,
                logging.INFO,
                "round.cut",
                reason=reason,
                applied=len(applied),
                requeued=len(self.pending),
                atoms=len(self.instance),
            )
            return RoundResult(
                applied, added, [], cut=True, reason=reason, vacuous=vacuous
            )
        # Every birth since the start went to an atom of the round's delta.
        size = instance.next_birth() - start
        discovered: List[Trigger] = []
        if size:
            # Discover while the round's start is still noted: if discovery
            # raises, the suspended state survives for a retry.
            with trace.span("round.discover", delta=size):
                discovered = self._discover(start, round_pass=True)
        if stats is not None:
            # A cut-then-continued round tallies once, with the *whole*
            # round's delta, at the call that completes it.
            stats.record_round(size)
        self._round_start = None
        return RoundResult(
            applied, added, discovered, cut=False, vacuous=vacuous
        )

    def drive(
        self,
        max_applications: Optional[int] = None,
        max_atoms: Optional[int] = None,
        max_rounds: Optional[int] = None,
        budget=None,
        into: Optional[List[Atom]] = None,
    ) -> Tuple[Optional[str], int, int]:
        """Run :meth:`run_round` to a fixpoint or the first limit.

        Returns ``(reason, applied, added)``: the limit that stopped the
        run (None at a fixpoint), and the triggers applied and atoms added
        by this call.  A caller that needs the added atoms themselves
        passes ``into``, which is extended with each round's delta in
        insertion order, so it never walks the instance to find them;
        without it no atom outlives its round here (a disk-backed
        instance keeps only the current round's delta in memory).
        A limit never raises — the engine stays suspended
        (tail re-queued, a cut round's start noted) and the next call goes
        on from there; what a cut *means* is the caller's business.

        Before every round (and every continuation of a cut one) the checks
        run in a fixed order: the ceilings — ``max_rounds`` (rounds
        started, :attr:`rounds`), ``max_atoms`` (instance size), and
        ``max_applications`` (applications this call; it binds only while
        a pending trigger is active, so a fixpoint reached exactly at the
        cap is reported as one) — then
        ``budget.rounds_exhausted()``, then ``budget.exceeded()``.  Inside a
        round, :meth:`run_round` enforces the same application, atom, and
        budget limits per application.  A round counts when it starts; the
        call that continues a suspended round does not count it again.
        Applied triggers are appended to :attr:`derivation` when the engine
        keeps one.
        """
        if budget is not None:
            budget.start()
        applied = added = 0
        while self.pending or self._round_start is not None:
            starting = self._round_start is None
            if max_rounds is not None and starting and self.rounds >= max_rounds:
                return "max_rounds", applied, added
            if max_atoms is not None and len(self.instance) > max_atoms:
                return "max_atoms", applied, added
            if (
                max_applications is not None
                and applied >= max_applications
                and self._has_active_pending()
            ):
                return "max_applications", applied, added
            if budget is not None:
                if budget.rounds_exhausted():
                    return "budget:rounds", applied, added
                reason = budget.exceeded(len(self.instance))
                if reason is not None:
                    return reason, applied, added
            if starting:
                self.rounds += 1
            result = self.run_round(
                None if max_applications is None else max_applications - applied,
                max_atoms,
                budget,
            )
            applied += len(result.applied)
            added += len(result.delta)
            if into is not None:
                into += result.delta
            if self.derivation is not None:
                self.derivation.steps.extend(result.applied)
            if result.cut:
                return result.reason, applied, added
            if budget is not None:
                budget.charge_round()
        return None, applied, added
