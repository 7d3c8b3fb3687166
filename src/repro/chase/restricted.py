"""The restricted (standard) chase (Section 3.2).

Starting from a database, repeatedly apply *active* triggers until none is
left (termination) or a step bound is hit.  The order in which active
triggers are chosen is a *strategy*; different strategies realize different
derivations — the heart of the paper's ``∀∀`` problem, where *every*
derivation must terminate.

Strategies:

* ``fifo``   — oldest discovered trigger first (level-ish, fair-biased);
* ``lifo``   — newest first (depth-first, divergence-biased);
* ``random`` — uniformly random among pending, seeded;
* ``semi_naive`` — set-at-a-time rounds on :meth:`ChaseEngine.drive`
  (see :func:`seminaive_chase`).  Produces byte-identical results to
  ``fifo`` (same instance, same derivation, same verdict) while paying
  discovery once per round instead of once per application — the
  preferred mode for the deciders' many independent chases;
* a callable ``(pending: list[Trigger], instance) -> index`` for custom
  orders (the caterpillar replayer uses this).

Since atoms are never removed, a trigger deactivated once can never become
active again; the engine exploits this with an incremental worklist and the
head-witness cache of :class:`repro.chase.engine.ChaseEngine` — activity
checks are set lookups, not instance scans.

Byte-identity invariants (the ones CI's equivalence gates enforce): null
names are digest-determined per trigger, worklist batches are enqueued in
``(birth, canonical_key)`` order, and resuming from a checkpoint — guarded
by the TGD digest-prefix identity check — replays the exact run.
``prune=True`` (the default) additionally drops rules the dependency
assessor proves can never fire; pruned and unpruned runs are byte-identical
(same instance, derivation, and worklist orders), see
:mod:`repro.termination.dependencies`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Union

from repro.core.instance import Instance
from repro.chase.checkpoint import Budget, ChaseCheckpoint, interrupt
from repro.chase.derivation import Derivation
from repro.chase.engine import ChaseEngine
from repro.chase.trigger import Trigger, active_triggers_on
from repro.errors import SearchBudgetExceeded
from repro.tgds.tgd import TGD

StrategyFn = Callable[[List[Trigger], Instance], int]

#: Strategies whose trigger choice is a pure function of the worklist —
#: the ones a checkpoint can resume byte-identically.  ``random`` (and
#: arbitrary callables) would need their RNG state carried too, which the
#: checkpoint format deliberately excludes (it is RNG-free).
RESUMABLE_STRATEGIES = ("fifo", "lifo", "semi_naive")


class ChaseResult:
    """Outcome of a chase run."""

    def __init__(
        self,
        instance: Instance,
        derivation: Derivation,
        terminated: bool,
        steps: int,
        rounds: Optional[int] = None,
        stats=None,
    ):
        #: The final (or cut-off) instance.
        self.instance = instance
        #: The recorded derivation.
        self.derivation = derivation
        #: True iff a fixpoint was reached (no active trigger remains).
        self.terminated = terminated
        #: Number of trigger applications performed.
        self.steps = steps
        #: Semi-naive rounds started, a cut one included (None for
        #: step-at-a-time strategies).
        self.rounds = rounds
        #: The :class:`repro.obs.stats.ChaseStats` sink the caller passed
        #: in, echoed back filled (None when the run carried no telemetry).
        self.stats = stats

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "cut off"
        return f"ChaseResult({state} after {self.steps} steps, {len(self.instance)} atoms)"


def _resolve_strategy(
    strategy: Union[str, StrategyFn], seed: Optional[int]
) -> StrategyFn:
    if callable(strategy):
        return strategy
    if strategy == "fifo":
        return lambda pending, instance: 0
    if strategy == "lifo":
        return lambda pending, instance: len(pending) - 1
    if strategy == "random":
        rng = random.Random(seed)
        return lambda pending, instance: rng.randrange(len(pending))
    raise ValueError(f"unknown strategy {strategy!r}")


def restricted_chase(
    database: Optional[Instance],
    tgds: Sequence[TGD],
    strategy: Union[str, StrategyFn] = "fifo",
    max_steps: int = 10_000,
    seed: Optional[int] = None,
    budget: Optional[Budget] = None,
    resume: Optional[ChaseCheckpoint] = None,
    stats=None,
    prune: bool = True,
    backend=None,
) -> ChaseResult:
    """Run one restricted chase derivation.

    Returns a :class:`ChaseResult`; ``terminated`` is False when
    ``max_steps`` applications happened with active triggers remaining
    (the derivation is then a proper prefix).  Stale pending triggers are
    skipped before the cap binds, so a run that reaches its fixpoint at
    exactly ``max_steps`` reports ``terminated``.

    ``budget`` adds a :class:`repro.chase.checkpoint.Budget` envelope on
    top of ``max_steps``: exhaustion raises
    :class:`repro.errors.ChaseInterrupted` carrying the partial instance
    and a :class:`~repro.chase.checkpoint.ChaseCheckpoint`.  ``resume``
    restores such a checkpoint (``database`` is then ignored and may be
    None) and continues byte-identically to an uninterrupted run.  Both
    require a deterministic strategy (:data:`RESUMABLE_STRATEGIES`).

    ``stats`` is an optional :class:`repro.obs.stats.ChaseStats` sink,
    filled during the run and echoed back on ``ChaseResult.stats`` (and on
    the interrupt's checkpoint path the caller's object is already
    populated).  Strictly passive: a run with stats attached is
    byte-identical to one without.

    ``backend`` selects the instance storage backend — ``"memory"``,
    ``"sqlite"``, or None for the ``CHASE_BACKEND`` environment default.
    Results are byte-identical across backends.
    """
    if strategy == "semi_naive":
        return seminaive_chase(
            database,
            tgds,
            max_steps=max_steps,
            budget=budget,
            resume=resume,
            stats=stats,
            prune=prune,
            backend=backend,
        )
    if (budget is not None or resume is not None) and (
        callable(strategy) or strategy not in RESUMABLE_STRATEGIES
    ):
        raise ValueError(
            f"budgets and resume require a deterministic strategy "
            f"{RESUMABLE_STRATEGIES}, got {strategy!r}"
        )
    choose = _resolve_strategy(strategy, seed)
    engine = ChaseEngine(
        database, tgds, f"restricted:{strategy}", resume, stats, prune, backend
    )
    derivation = engine.derivation
    steps = len(derivation)
    if budget is not None:
        budget.start()
    with engine.running():
        while engine.pending:
            # Stale triggers go first: a limit stops the run only while an
            # active trigger is left, so a fixpoint reached exactly at
            # max_steps reports terminated.
            index = choose(engine.pending, engine.instance)
            trigger = engine.pending[index]
            if not engine.is_active(trigger):
                del engine.pending[index]
                if stats is not None:
                    stats.triggers_vacuous += 1
                continue
            if steps >= max_steps:
                return ChaseResult(
                    engine.instance,
                    derivation,
                    terminated=False,
                    steps=steps,
                    stats=stats,
                )
            if budget is not None:
                reason = budget.exceeded(len(engine.instance))
                if reason is not None:
                    interrupt(engine, reason)
            del engine.pending[index]
            engine.apply(trigger)
            derivation.append(trigger)
            steps += 1
            if budget is not None:
                budget.charge_application()
    return ChaseResult(
        engine.instance, derivation, terminated=True, steps=steps, stats=stats
    )


def seminaive_chase(
    database: Optional[Instance],
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
    budget: Optional[Budget] = None,
    resume: Optional[ChaseCheckpoint] = None,
    stats=None,
    prune: bool = True,
    backend=None,
) -> ChaseResult:
    """The set-at-a-time restricted chase (``strategy="semi_naive"``).

    Runs on :meth:`ChaseEngine.drive` (the round loop, its limit checks,
    and its round counting are documented there).  The result — instance,
    derivation, verdict, step count — is byte-identical to
    ``restricted_chase(..., strategy="fifo")``; see the round lifecycle
    notes in ``docs/ARCHITECTURE.md`` for why the orders coincide.
    ``rounds`` counts the rounds started, a round cut by ``max_steps``
    included.

    ``budget`` exhaustion raises :class:`repro.errors.ChaseInterrupted`
    with a resume checkpoint (round-boundary or mid-round); ``resume``
    continues such a checkpoint byte-identically — same instance insertion
    order, same derivation log, same verdict as the uninterrupted run.
    """
    engine = ChaseEngine(
        database, tgds, "semi_naive", resume, stats, prune, backend
    )
    with engine.running():
        reason, _, _ = engine.drive(
            max_applications=max_steps - len(engine.derivation), budget=budget
        )
        if reason not in (None, "max_applications"):
            interrupt(engine, reason)
    return ChaseResult(
        engine.instance,
        engine.derivation,
        terminated=reason is None,
        steps=len(engine.derivation),
        rounds=engine.rounds,
        stats=stats,
    )


def restricted_chase_naive(
    database: Instance,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
) -> ChaseResult:
    """Ablation baseline: re-enumerate *all* active triggers at every step.

    Semantically equivalent to :func:`restricted_chase` with the FIFO
    strategy, but without the incremental worklist or the head-witness
    cache — every step re-matches every TGD body against the whole
    instance and re-scans for head witnesses.  The cost gap between the
    two engines is measured by ``benchmarks/harness.py`` and
    ``benchmarks/bench_ablation_engine.py``.
    """
    instance = Instance(database)
    derivation = Derivation(instance)
    steps = 0
    while steps < max_steps:
        trigger = min(
            active_triggers_on(tgds, instance),
            key=lambda t: t.canonical_key,
            default=None,
        )
        if trigger is None:
            return ChaseResult(instance, derivation, terminated=True, steps=steps)
        instance.add(trigger.result())
        derivation.append(trigger)
        steps += 1
    leftover = next(iter(active_triggers_on(tgds, instance)), None)
    return ChaseResult(instance, derivation, terminated=leftover is None, steps=steps)


def chase_terminates(
    database: Instance,
    tgds: Sequence[TGD],
    strategy: Union[str, StrategyFn] = "fifo",
    max_steps: int = 10_000,
    seed: Optional[int] = None,
) -> bool:
    """Convenience wrapper: did this particular derivation reach a fixpoint?"""
    return restricted_chase(database, tgds, strategy, max_steps, seed).terminated


def exists_derivation_of_length(
    database: Instance,
    tgds: Sequence[TGD],
    length: int,
    max_nodes: int = 200_000,
) -> Optional[Derivation]:
    """Search (DFS over trigger choices) for a derivation with ``length`` steps.

    The ``∃`` side of the ∀∀-problem on a fixed database: is there *some*
    restricted chase derivation this long?  Returns the derivation or None
    when exhaustive search (within ``max_nodes`` explored states) proves
    every derivation is shorter.  Raises ``SearchBudgetExceeded`` when the
    node budget is hit without an answer.

    The DFS runs on a single :class:`ChaseEngine`: each branch applies a
    trigger and, on backtracking, reverts it via the engine's undo token —
    no per-node copies of the atom set or its indexes, and no per-node
    re-enumeration of triggers.
    """
    engine = ChaseEngine(database, tgds)
    budget = [max_nodes]
    # state -> deepest depth at which the state was explored and failed.
    # A revisit at depth k can only succeed if the longest continuation from
    # the state is >= length - k, which a failure at depth k' >= k already
    # rules out; shallower failures rule out nothing, so only the max depth
    # is remembered.  (An active trigger always adds a new atom, so states
    # grow strictly along a path and no path revisits a state.)
    failed_at: dict = {}

    def dfs(steps: List[Trigger]) -> Optional[List[Trigger]]:
        if len(steps) >= length:
            return list(steps)
        if budget[0] <= 0:
            raise SearchBudgetExceeded(
                f"explored {max_nodes} states without an answer"
            )
        budget[0] -= 1
        state = engine.state_key()
        if failed_at.get(state, -1) >= len(steps):
            return None
        for trigger in engine.active_pending():
            index = engine.pending.index(trigger)
            engine.pending.pop(index)
            token = engine.apply(trigger)
            steps.append(trigger)
            found = dfs(steps)
            steps.pop()
            engine.undo(token)
            engine.pending.insert(index, trigger)
            if found is not None:
                return found
        failed_at[state] = max(failed_at.get(state, -1), len(steps))
        return None

    found = dfs([])
    if found is None:
        return None
    return Derivation(Instance(database), found)


def all_derivations_terminate(
    database: Instance,
    tgds: Sequence[TGD],
    max_steps: int,
    max_nodes: int = 200_000,
) -> bool:
    """Do *all* restricted chase derivations from ``database`` terminate

    within ``max_steps``?  True means exhaustively verified; False means a
    derivation with ``max_steps`` steps exists (non-termination suspect);
    raises :class:`SearchBudgetExceeded` when the budget runs out first."""
    return exists_derivation_of_length(database, tgds, max_steps, max_nodes) is None
