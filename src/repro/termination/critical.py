"""The critical database ``D*`` and the one chase the termination side runs on it.

Section 1.2: the single database ``D* = {R(c, ..., c) : R ∈ sch(T)}`` is
critical for the oblivious and the semi-oblivious chase [Marnette,
PODS'09]: either chase terminates on every database iff it terminates on
``D*``.  It is **not** critical for the restricted chase — the intro
example ``R(x,y) → ∃z R(x,z)`` restricted-terminates on every database
although the oblivious chase on ``D*`` is infinite (exhibit X12).

:func:`critical_chase` runs the *semi-oblivious* chase of ``D*``.  Reaching
its fixpoint is a sound ``CT_res_∀∀`` certificate: a restricted derivation
fires each ``(σ, h|fr(σ))`` at most once (its first result witnesses the
head for the rest), so a finite semi-oblivious chase of every database
bounds every restricted derivation.  The certificate subsumes model-faithful
acyclicity (an MFA set's skolem chase of ``D*`` is finite) and oblivious
termination on ``D*`` (the semi-oblivious chase is a homomorphic image of
the oblivious one).

Semi-oblivious semantics runs on the unmodified oblivious engine through a
rewrite: each existential rule ``σ: body → ∃z̄ head`` becomes
``body → F_σ(fr)`` and ``F_σ(fr) → ∃z̄ head`` over a reserved predicate
``F_σ`` (its name is not parseable, so it never clashes with a user
predicate); full rules stay as they are.  Set semantics merges equal
``F_σ`` atoms, and each ``F_σ`` atom fires exactly one null-inventing
trigger, so nulls are keyed by ``(σ, frontier)``.

Between rounds a monitor in the spirit of Meier, Schmidt & Lausen's "Stop
the Chase" (arXiv 0901.3984) gives every null about to be invented a
per-function nesting count — the element-wise maximum over its frontier
nulls' counts, plus one for its own function ``(σ, z)`` — and stops the run
as undecided once one count exceeds :data:`REPEAT_LIMIT`.  Terms of bounded
nesting over one constant are finitely many, so every run halts; the one
atom ceiling :data:`CRITICAL_MAX_ATOMS` bounds its size.  Stopping early can
only lose a certificate, never produce a wrong one.  The bookkeeping is a
constant number of tuple operations per null; nothing recurses on term
depth.

The run inherits the kernel's determinism (digest-named nulls,
``(birth, canonical_key)`` batches) and always runs in memory: verdicts are
identical run to run and across storage backends.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Term
from repro.chase.checkpoint import Budget
from repro.chase.engine import ChaseEngine
from repro.errors import ChaseInterrupted
from repro.termination.verdict import Status, Verdict
from repro.tgds.tgd import TGD, schema_of

#: Verdict method (and per-layer certificate) of a settled critical chase.
CRITICAL_METHOD = "critical-chase"

#: The monitor stops a run once a null nests one function ``(σ, z)`` more
#: than this many times.  On the generator corpus every settled set nests
#: a function at most twice (``tests/termination/test_critical.py`` pins
#: the sets that must keep settling).
REPEAT_LIMIT = 3

#: The one atom ceiling, ``F_σ`` atoms included.  Each ``F_σ`` atom stands
#: for at least one distinct head atom, so every run of up to 50k atoms
#: over the source schema fits.
CRITICAL_MAX_ATOMS = 100_000


def critical_database(tgds: Sequence[TGD], constant_name: str = "c") -> Database:
    """``D*``: one atom ``R(c, ..., c)`` per predicate of ``sch(T)``."""
    schema = schema_of(tgds)
    constant = Constant(constant_name)
    database = Database()
    for predicate in schema:
        database.add(Atom(predicate, [constant] * schema.arity(predicate)))
    return database


class CriticalChase(NamedTuple):
    """Outcome of :func:`critical_chase`."""

    #: True iff the fixpoint was reached — the termination certificate.
    settled: bool
    #: None at the fixpoint, else ``"nesting"`` (the monitor) or
    #: ``"max_atoms"`` (the ceiling).
    stop: Optional[str]
    #: Rounds the engine ran.
    rounds: int
    #: The largest per-function nesting count the monitor saw.
    repeats: int
    #: The chased instance, ``F_σ`` atoms included.
    instance: Instance


def _semi_oblivious(
    tgds: Sequence[TGD],
) -> Tuple[List[TGD], Dict[TGD, List[Tuple[int, int]]], int]:
    """The rewritten rules, per null-inventing rule its nulls' slots, and
    the number of null functions.

    A slot ``(function, position)`` says the null of function ``function``
    (one index per existential variable of the source rules) lands at
    0-based ``position`` of the rule's result atom.
    """
    rules: List[TGD] = []
    slots: Dict[TGD, List[Tuple[int, int]]] = {}
    width = 0
    for index, tgd in enumerate(tgds):
        if not tgd.existential_variables:
            rules.append(tgd)
            continue
        fired = Atom(f"F#{index}", tgd.frontier_order)
        invent = TGD([fired], tgd.head, name=f"{tgd.name}#invent")
        rules.append(TGD(tgd.body, fired, name=f"{tgd.name}#fire"))
        rules.append(invent)
        existentials = sorted(tgd.existential_variables, key=lambda v: v.name)
        slots[invent] = [
            (width + offset, tgd.head.terms.index(z))
            for offset, z in enumerate(existentials)
        ]
        width += len(existentials)
    return rules, slots, width


def _nest(pending, slots, nesting: Dict[Term, Tuple[int, ...]], zero) -> int:
    """Give the nulls ``pending`` triggers invent their nesting counts.

    Returns the largest count given, stopping at the first one past
    :data:`REPEAT_LIMIT`.
    """
    deepest = 0
    for trigger in pending:
        targets = slots.get(trigger.tgd)
        if targets is None:
            continue
        inherited = zero
        for term in trigger.frontier_tuple():
            counts = nesting.get(term)
            if counts is not None:
                inherited = tuple(map(max, inherited, counts))
        terms = trigger.result().terms
        for function, position in targets:
            counts = list(inherited)
            counts[function] += 1
            deepest = max(deepest, counts[function])
            if deepest > REPEAT_LIMIT:
                return deepest
            nesting[terms[position]] = tuple(counts)
    return deepest


def critical_chase(tgds: Sequence[TGD], budget: Optional[Budget] = None) -> CriticalChase:
    """The semi-oblivious chase of ``D*`` under the nesting monitor.

    ``budget`` (wall, applications, atoms, rounds) bounds the run like any
    chase: exhaustion raises :class:`repro.errors.ChaseInterrupted` with
    the partial instance.  The monitor and :data:`CRITICAL_MAX_ATOMS` end
    the run as unsettled instead.
    """
    rules, slots, width = _semi_oblivious(tgds)
    zero = (0,) * width
    nesting: Dict[Term, Tuple[int, ...]] = {}
    repeats = 0
    engine = ChaseEngine.open(
        critical_database(tgds), rules, "oblivious", prune=False, backend="memory"
    )
    with engine.running():
        while True:
            repeats = max(repeats, _nest(engine.pending, slots, nesting, zero))
            if repeats > REPEAT_LIMIT:
                stop = "nesting"
                break
            stop, _, _ = engine.drive(
                max_atoms=CRITICAL_MAX_ATOMS,
                max_rounds=engine.rounds + 1,
                budget=budget,
            )
            if stop in (None, "max_atoms"):
                break
            if stop != "max_rounds":
                raise ChaseInterrupted(stop, instance=engine.instance)
    return CriticalChase(stop is None, stop, engine.rounds, repeats, engine.instance)


def critical_verdict(
    tgds: Sequence[TGD], budget: Optional[Budget] = None
) -> Optional[Verdict]:
    """An ``ALL_TERMINATING`` verdict when :func:`critical_chase` settles, else None.

    Budget exhaustion propagates as :class:`repro.errors.ChaseInterrupted`.
    """
    if not critical_chase(tgds, budget).settled:
        return None
    return Verdict(
        Status.ALL_TERMINATING,
        method=CRITICAL_METHOD,
        certificate={"critical_database": critical_database(tgds)},
        detail=(
            "the semi-oblivious chase of the critical database D* reaches a "
            "fixpoint, which bounds every restricted chase derivation of "
            "every database"
        ),
    )
