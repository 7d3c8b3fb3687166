"""Deciding ``CT_res_∀∀(G)`` — the executable rendering of Theorem 5.1.

The paper reduces the guarded case to MSOL satisfiability over infinite
trees; a practical MSOL-over-infinite-trees solver does not exist, so this
module implements the documented substitution (DESIGN.md §3): a certifying
procedure over exactly the objects the reduction quantifies over.

Termination side (all answers sound):

* syntactic certificates — full TGDs, weak acyclicity, joint acyclicity;
* the critical-database certificate of
  :func:`repro.termination.critical.critical_chase` (a finite
  semi-oblivious chase of ``D*`` bounds every restricted derivation of
  every database).

Non-termination side (all answers carry a replayed witness):

* candidate databases are generated in the spirit of the Treeification
  Theorem — canonical acyclic instantiations of TGD bodies (every
  non-termination witness can be assumed acyclic by Theorem 5.5, and the
  guard-path that drives an infinite derivation starts from some body
  image);
* a divergence-suspect run (cut off at the step bound) is turned into a
  certificate by :func:`find_pump`, which locates a period in the
  derivation — two steps of the same TGD related by a term translation —
  and *replays* the period several more times through the real chase
  engine, validating every repeated trigger as active.  A successful
  replay is returned as evidence; the derivation is extendable round after
  round by construction.

Remaining cases are reported ``UNKNOWN`` honestly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Term
from repro.chase.checkpoint import Budget
from repro.chase.derivation import Derivation, DerivationError
from repro.chase.restricted import restricted_chase
from repro.errors import ChaseInterrupted
from repro.obs import clock, trace
from repro.chase.trigger import Trigger, is_active
from repro.core.homomorphism import is_homomorphism
from repro.termination.critical import critical_verdict
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import terminating_certificate
from repro.tgds.guardedness import check_guarded_set
from repro.tgds.tgd import TGD


def canonical_body_database(tgd: TGD, tag: str = "") -> Database:
    """The body of ``tgd`` frozen with one constant per variable.

    These are the canonical candidate databases of the divergence search:
    if any database makes some trigger of ``σ`` fire into an infinite
    guard path, the generic (most-free) instantiation of ``body(σ)`` is the
    natural first witness to try, and it is acyclic for guarded TGDs (the
    guard atom is a join-tree root for the body).
    """
    freeze = {
        v: Constant(f"k{tag}_{v.name}") for v in sorted(tgd.body_variables(), key=lambda v: v.name)
    }
    return Database(atom.apply(freeze) for atom in tgd.body)


def candidate_databases(tgds: Sequence[TGD]) -> List[Database]:
    """Candidate witnesses: canonical body databases, plus unified variants

    (all body variables collapsed to one constant — the guarded analogue of
    the critical database, restricted to a single body shape)."""
    candidates: List[Database] = []
    for index, tgd in enumerate(tgds):
        candidates.append(canonical_body_database(tgd, tag=str(index)))
        collapse = {v: Constant(f"u{index}") for v in tgd.body_variables()}
        candidates.append(Database(atom.apply(collapse) for atom in tgd.body))
    unique: List[Database] = []
    seen = set()
    for database in candidates:
        key = frozenset(database.atoms())
        if key not in seen:
            seen.add(key)
            unique.append(database)
    return unique


class PumpWitness:
    """A replay-certified periodic derivation."""

    def __init__(
        self,
        database: Instance,
        derivation: Derivation,
        period_start: int,
        period_length: int,
        replays: int,
    ):
        self.database = database
        #: The extended, fully validated derivation (original + replays).
        self.derivation = derivation
        #: Index of the first step of the detected period.
        self.period_start = period_start
        #: Number of steps per period.
        self.period_length = period_length
        #: How many extra periods were replayed and validated.
        self.replays = replays

    def __repr__(self) -> str:
        return (
            f"PumpWitness(period {self.period_length} steps from "
            f"step {self.period_start}, {self.replays} replays validated)"
        )


def _translation_between(earlier: Trigger, later: Trigger) -> Optional[Dict[Term, Term]]:
    """The term map sending ``earlier``'s binding to ``later``'s, if single-valued."""
    if earlier.tgd is not later.tgd and earlier.tgd != later.tgd:
        return None
    translation: Dict[Term, Term] = {}
    for variable in earlier.tgd.body_variables():
        source = earlier.h[variable]
        target = later.h[variable]
        existing = translation.get(source)
        if existing is not None and existing != target:
            return None
        translation[source] = target
    return translation


def find_pump(
    database: Instance,
    tgds: Sequence[TGD],
    derivation: Derivation,
    replays: int = 3,
) -> Optional[PumpWitness]:
    """Detect and replay-certify a period in a divergence-suspect derivation.

    Scans for step pairs ``i < j`` with the same TGD whose bindings are
    related by a term translation φ; then replays steps ``[i, j)`` shifted
    by φ, ``replays`` times, extending φ with the fresh nulls each replayed
    trigger invents.  Each replayed trigger must be an *active* trigger at
    its position — checked against the real instance — so a successful
    replay is a genuine longer derivation, periodic by construction.
    """
    steps = derivation.steps
    for j in range(len(steps) - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if steps[i].tgd != steps[j].tgd:
                continue
            translation = _translation_between(steps[i], steps[j])
            if translation is None:
                continue
            witness = _try_replay(database, tgds, derivation, i, j, translation, replays)
            if witness is not None:
                return witness
    return None


def _try_replay(
    database: Instance,
    tgds: Sequence[TGD],
    derivation: Derivation,
    period_start: int,
    period_end: int,
    translation: Dict[Term, Term],
    replays: int,
) -> Optional[PumpWitness]:
    # Truncate at the period end: the replayed segments continue from there
    # (the original steps past ``period_end`` are exactly the first replay
    # when the pump is real, so nothing is lost).
    instance = derivation.instance_at(period_end)
    extended_steps = list(derivation.steps[:period_end])
    phi = dict(translation)
    period = derivation.steps[period_start:period_end]
    for _ in range(replays):
        for template in period:
            binding = {}
            for variable in template.tgd.body_variables():
                value = template.h[variable]
                binding[variable] = phi.get(value, value)
            trigger = Trigger(template.tgd, binding)
            if not is_homomorphism(
                {v: trigger.h[v] for v in trigger.tgd.body_variables()},
                trigger.tgd.body,
                instance,
            ):
                return None
            if not is_active(trigger, instance):
                return None
            # Extend φ: the template's invented nulls map to the replayed ones.
            old_result = template.result()
            new_result = trigger.result()
            for old_term, new_term in zip(old_result.terms, new_result.terms):
                existing = phi.get(old_term)
                if existing is not None and existing != new_term:
                    return None
                phi[old_term] = new_term
            instance.add(new_result)
            extended_steps.append(trigger)
        # After one full period the translation must map the period onto the
        # replayed period, so the loop continues with the updated φ.
        period = extended_steps[len(extended_steps) - len(period):]
    extended = Derivation(Instance(database), extended_steps)
    try:
        extended.validate(tgds)
    except DerivationError:
        return None
    return PumpWitness(
        database,
        extended,
        period_start,
        period_end - period_start,
        replays,
    )


#: The outcome of a suspect chase that the wall clock cut.
_TIMEOUT = "timeout"


def _suspect_scan(database, tgds, max_steps, replays, remaining):
    """One divergence-suspect chase: chase a candidate database, hunt a pump.

    ``remaining`` is the wall-clock seconds left (None: no wall limit).
    Returns ``(outcome, seconds)``, where ``outcome`` is the
    :class:`PumpWitness` (or None, or the ``"timeout"`` sentinel) and
    ``seconds`` is the chase's own duration for the decider stats.  Two
    strategies run in turn: a divergence-biased LIFO probe, then the
    semi-naive engine (byte-identical to fifo).  The chases are scratch
    state, so they run in memory whatever the process's ``CHASE_BACKEND``
    default says.
    """
    budget = Budget(wall_seconds=remaining) if remaining is not None else None
    start = clock.perf_counter()
    with trace.span("decider.suspect", atoms=len(database)):
        try:
            # semi_naive is byte-identical to fifo but pays trigger discovery
            # once per round — the right mode for this many independent chases.
            outcome = None
            for strategy in ("lifo", "semi_naive"):
                run = restricted_chase(
                    database,
                    tgds,
                    strategy=strategy,
                    max_steps=max_steps,
                    budget=budget,
                    backend="memory",
                )
                if run.terminated:
                    continue
                pump = find_pump(database, tgds, run.derivation, replays=replays)
                if pump is not None:
                    outcome = pump
                    break
        except ChaseInterrupted:
            outcome = _TIMEOUT
    return outcome, clock.perf_counter() - start


def _suspect_outcome(result) -> str:
    if result == _TIMEOUT:
        return "timeout"
    return "none" if result is None else "pump"


def scan_suspects(
    candidates: Sequence[Instance],
    tgds: Sequence[TGD],
    max_steps: int,
    replays: int,
    budget: Optional[Budget] = None,
    stats=None,
) -> Optional[Tuple[Instance, PumpWitness]]:
    """Run the suspect chases in candidate order; return the first pump.

    The scan stops at the first candidate that pumps.  A ``budget`` with
    a wall limit makes the scan interruptible: each suspect chase runs
    against the remaining seconds, and exhaustion raises
    :class:`repro.errors.ChaseInterrupted` whose ``partial`` records how
    many suspect chases completed (``{"completed": n, "total": m}``).

    ``stats`` (a :class:`repro.obs.stats.ChaseStats`) collects one
    ``suspects`` entry per completed suspect chase — candidate index,
    outcome, duration — in candidate order.
    """
    tgd_list = list(tgds)
    candidates = list(candidates)
    if budget is not None:
        budget.start()

    def interrupt(completed: int):
        raise ChaseInterrupted(
            "budget:wall",
            partial={"completed": completed, "total": len(candidates)},
        )

    for index, database in enumerate(candidates):
        remaining = None
        if budget is not None:
            if budget.out_of_time():
                interrupt(index)
            remaining = budget.remaining_seconds()
        pump, seconds = _suspect_scan(database, tgd_list, max_steps, replays, remaining)
        if stats is not None:
            stats.suspects.append(
                {
                    "candidate": index,
                    "outcome": _suspect_outcome(pump),
                    "seconds": round(seconds, 6),
                }
            )
        if pump == _TIMEOUT:
            interrupt(index)
        if pump is not None:
            return database, pump
    return None


def budget_verdict(interrupted: ChaseInterrupted, method: str, total: int) -> Verdict:
    """Render an interrupted decider run as an honest ``TIMEOUT`` verdict.

    A cut inside the critical-database chase comes before any of the
    ``total`` suspect chases, so it reports none of them completed.
    """
    partial = {"completed": 0, "total": total, **interrupted.partial}
    return Verdict(
        Status.TIMEOUT,
        method=method,
        certificate=partial,
        detail=(
            f"budget exhausted ({interrupted.reason}) after "
            f"{partial['completed']}/{partial['total']} suspect chases completed"
        ),
    )


#: Verdict detail text per method family: (pump found, bounded search).
_FAMILY_DETAILS = {
    "guarded": (
        "database {atoms} admits a replay-certified periodic derivation "
        "({period}-step period, {replays} replays validated)",
        "no syntactic certificate applies, the critical-database chase "
        "does not settle, and no candidate database produced a certified "
        "pump within {max_steps} steps",
    ),
    "general": (
        "replay-certified periodic derivation (general TGDs)",
        "CT_res_∀∀ is undecidable for arbitrary TGDs (Theorem 3.6); "
        "no certificate or certified witness found within bounds",
    ),
}


def certify_or_pump(
    tgds: List[TGD],
    family: str,
    max_steps: int,
    replays: int,
    extra_candidates: Optional[Sequence[Instance]] = None,
    budget: Optional[Budget] = None,
    stats=None,
) -> Verdict:
    """Certificate, critical chase, suspect scan, verdict — in that order.

    The shared body of :func:`decide_guarded` (``family="guarded"``) and
    the general-TGD route of :func:`repro.termination.portfolio.decide`
    (``family="general"``): a syntactic certificate settles termination;
    otherwise the critical-database chase may settle it; otherwise the
    suspect scan hunts a replay-certified pump over
    :func:`candidate_databases` plus ``extra_candidates``.  The family
    names the verdict methods (``<family>-replay``,
    ``<family>-bounded-search``, ``<family>-budget``) and picks the detail
    text.  Budget exhaustion in
    either chase becomes a ``TIMEOUT`` verdict.
    """
    if budget is not None:
        budget.start()
    certificate = terminating_certificate(tgds)
    if certificate is not None:
        return Verdict(
            Status.ALL_TERMINATING,
            method=certificate,
            detail=f"syntactic termination certificate: {certificate}",
        )
    candidates: List[Instance] = list(candidate_databases(tgds))
    if extra_candidates:
        candidates.extend(extra_candidates)
    try:
        critical = critical_verdict(tgds, budget)
        if critical is not None:
            return critical
        hit = scan_suspects(
            candidates,
            tgds,
            max_steps,
            replays,
            budget=budget,
            stats=stats,
        )
    except ChaseInterrupted as interrupted:
        return budget_verdict(interrupted, f"{family}-budget", len(candidates))
    found, bounded = _FAMILY_DETAILS[family]
    if hit is not None:
        database, pump = hit
        return Verdict(
            Status.NOT_ALL_TERMINATING,
            method=f"{family}-replay",
            certificate={"witness": pump},
            detail=found.format(
                atoms=database.sorted_atoms(),
                period=pump.period_length,
                replays=pump.replays,
            ),
        )
    return Verdict(
        Status.UNKNOWN,
        method=f"{family}-bounded-search",
        detail=bounded.format(max_steps=max_steps),
    )


def decide_guarded(
    tgds: Sequence[TGD],
    max_steps: int = 60,
    replays: int = 3,
    extra_candidates: Optional[Sequence[Instance]] = None,
    budget: Optional[Budget] = None,
    stats=None,
) -> Verdict:
    """The certifying decision procedure for guarded sets (DESIGN.md §3).

    ``max_steps`` bounds the divergence-suspect runs; ``extra_candidates``
    adds user-supplied databases to the witness search (e.g. treeified
    databases from observed behaviour).  A ``budget`` bounds the
    critical-database chase and the suspect scan alike; exhaustion becomes a ``TIMEOUT`` verdict recording how many
    suspect chases completed, never an engine error.  ``stats`` collects
    the per-suspect outcome/duration entries (see :func:`scan_suspects`).
    """
    tgd_list = list(tgds)
    if stats is not None and not stats.kind:
        stats.kind = "decider"
    check_guarded_set(tgd_list)
    return certify_or_pump(
        tgd_list,
        "guarded",
        max_steps,
        replays,
        extra_candidates,
        budget,
        stats,
    )
