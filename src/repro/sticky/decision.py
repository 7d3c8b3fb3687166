"""Deciding ``CT_res_∀∀(S)`` (Theorem 6.1, Section 6.5).

``T ∉ CT_res_∀∀`` iff some component of the caterpillar automaton family is
non-empty.  On non-emptiness we do what Lemma 6.13 does: turn the lasso
``u v^ω`` into a *finitary* witness — a finite initial instance plus a long
validated restricted chase derivation that is periodic from ``|u|`` on.

Witness instantiation follows the generic-caterpillar semantics of the
automaton: the first body atom is the canonical atom of ``e0`` over fresh
constants; each symbol ``(σ, γ, P)`` matches ``γ`` against the current body
atom, draws the remaining body atoms (the *legs*) with fresh constants for
the unshared variables, and advances via ``result(σ, h)``.  Leg constants
in the cycle part are recycled with period two — the ``|T| = 2m`` trick of
Lemma 6.13 — which keeps the leg set finite while never unifying two legs
of the same pass-on window.

Every witness is replay-validated: the produced trigger sequence must be a
genuine restricted chase derivation (each trigger active when applied).

A caller's :class:`repro.chase.checkpoint.Budget` bounds the automaton
search, lasso extraction included, and is checked once more before the
witness replay; exhaustion answers ``TIMEOUT`` (method ``sticky-budget``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.automata.buchi import Lasso, StateBudgetExceeded
from repro.chase.checkpoint import Budget
from repro.core.atoms import Atom
from repro.core.equality import EqualityType
from repro.core.instance import Instance
from repro.core.terms import Constant, Term, Variable
from repro.chase.derivation import Derivation, DerivationError
from repro.chase.trigger import Trigger
from repro.errors import ChaseInterrupted
from repro.sticky.automaton import CaterpillarAutomatonFamily
from repro.termination.verdict import Status, Verdict
from repro.tgds.stickiness import StickinessAnalysis
from repro.tgds.tgd import TGD


class CaterpillarWitness:
    """A finitary non-termination witness extracted from a lasso."""

    def __init__(
        self,
        start_etype: EqualityType,
        start_positions: FrozenSet[int],
        lasso: Lasso,
        initial: Instance,
        derivation: Derivation,
        clean_database: bool,
    ):
        #: ``(e0, Π0)``: the accepted component's start pair.
        self.start_etype = start_etype
        self.start_positions = start_positions
        #: The accepted ultimately periodic caterpillar word.
        self.lasso = lasso
        #: The finite initial instance ``L ∪ {α0}``.
        self.initial = initial
        #: The validated derivation prefix (periodic after ``|u|`` steps).
        self.derivation = derivation
        #: True when the initial instance is a null-free database.
        self.clean_database = clean_database

    def __repr__(self) -> str:
        return (
            f"CaterpillarWitness({len(self.initial)} initial atoms, "
            f"{len(self.derivation.steps)}-step derivation, {self.lasso})"
        )


def instantiate_lasso(
    tgds: Sequence[TGD],
    start_etype: EqualityType,
    lasso: Lasso,
    cycles: int = 3,
    recycle_legs: bool = True,
) -> Tuple[Instance, List[Trigger], bool]:
    """Materialize the generic caterpillar of ``u v^{cycles}``.

    Returns ``(initial instance, spine triggers, legs are null-free)``.
    With ``recycle_legs`` the cycle part reuses leg constants with period
    two (Lemma 6.13), so extending ``cycles`` does not grow the instance.
    """
    word = list(lasso.prefix)
    for repetition in range(cycles):
        word.extend(lasso.cycle)
    # α0: one fresh constant per class of e0.
    first_terms: List[Term] = [None] * start_etype.arity  # type: ignore[list-item]
    for cls in start_etype.partition:
        constant = Constant(f"a{min(cls)}")
        for position in cls:
            first_terms[position - 1] = constant
    current = Atom(start_etype.predicate, first_terms)
    legs = Instance()
    initial = Instance([current])
    triggers: List[Trigger] = []
    prefix_length = len(lasso.prefix)
    cycle_length = len(lasso.cycle)
    for step, symbol in enumerate(word):
        tgd = symbol.tgd(tgds)
        gamma = symbol.gamma(tgds)
        if gamma.predicate != current.predicate or gamma.arity != current.arity:
            raise ValueError(
                f"step {step}: symbol {symbol} does not match atom {current}"
            )
        binding: Dict[Variable, Term] = {}
        for position in range(1, gamma.arity + 1):
            variable = gamma[position]
            existing = binding.get(variable)
            if existing is not None and existing != current[position]:
                raise ValueError(
                    f"step {step}: inconsistent match of {gamma} on {current}"
                )
            binding[variable] = current[position]
        if step < prefix_length or not recycle_legs:
            tag = f"p{step}"
        else:
            offset = step - prefix_length
            tag = f"c{offset % cycle_length}.{(offset // cycle_length) % 2}"
        for variable in sorted(tgd.body_variables(), key=lambda v: v.name):
            if variable not in binding:
                binding[variable] = Constant(f"{tag}.{variable.name}")
        trigger = Trigger(tgd, binding)
        for body_index, body_atom in enumerate(tgd.body):
            if body_index == symbol.body_index:
                continue
            leg = body_atom.apply(trigger.h)
            legs.add(leg)
            initial.add(leg)
        triggers.append(trigger)
        current = trigger.result()
    null_free = all(not leg.nulls() for leg in legs)
    return initial, triggers, null_free


def witness_from_lasso(
    tgds: Sequence[TGD],
    start_etype: EqualityType,
    start_positions: FrozenSet[int],
    lasso: Lasso,
    cycles: int = 3,
) -> CaterpillarWitness:
    """Instantiate and replay-validate a lasso into a finitary witness.

    Raises :class:`repro.chase.derivation.DerivationError` if the replay is
    not a valid restricted chase derivation (which would indicate a bug in
    the automaton, not in the theory).
    """
    initial, triggers, null_free = instantiate_lasso(
        tgds, start_etype, lasso, cycles=cycles
    )
    derivation = Derivation(initial, triggers)
    derivation.validate(tgds)
    return CaterpillarWitness(
        start_etype, start_positions, lasso, initial, derivation, null_free
    )


def decide_sticky(
    tgds: Sequence[TGD],
    max_states: int = 100_000,
    witness_cycles: int = 3,
    budget: Optional[Budget] = None,
    marking: Optional[StickinessAnalysis] = None,
) -> Verdict:
    """The full ``CT_res_∀∀(S)`` decision (Theorem 6.1).

    * ``NOT_ALL_TERMINATING`` with a replay-validated finitary witness when
      some caterpillar automaton component accepts;
    * ``ALL_TERMINATING`` when every component is empty (``L(A_T) = ∅``);
    * ``UNKNOWN`` only if the state budget is exhausted (the construction
      is elementary but exponential in the arity);
    * ``TIMEOUT`` (method ``sticky-budget``) when ``budget`` runs out
      during the automaton search.

    ``marking`` is the set's :class:`StickinessAnalysis` when the caller
    already has it (the analyzer's classification does); it is computed
    here otherwise.
    """
    if marking is None:
        marking = StickinessAnalysis(tgds)
    marking.check()
    if budget is not None:
        budget.start()
    family = CaterpillarAutomatonFamily(tgds, max_states=max_states, marking=marking)
    try:
        counterexample = family.find_counterexample(budget)
    except StateBudgetExceeded as error:
        return Verdict(
            Status.UNKNOWN,
            method="sticky-buchi",
            detail=f"state budget exhausted: {error}",
        )
    except ChaseInterrupted as interrupted:
        return Verdict(
            Status.TIMEOUT,
            method="sticky-budget",
            certificate=dict(interrupted.partial),
            detail=(
                f"budget exhausted ({interrupted.reason}) after "
                f"{interrupted.partial['components']} empty automaton components"
            ),
        )
    if counterexample is None:
        return Verdict(
            Status.ALL_TERMINATING,
            method="sticky-buchi",
            certificate={"automaton_empty": True},
            detail="L(A_T) = ∅: no free connected caterpillar exists",
        )
    etype, pi0, lasso = counterexample
    try:
        witness = witness_from_lasso(tgds, etype, pi0, lasso, cycles=witness_cycles)
    except DerivationError as error:  # pragma: no cover - soundness guard
        return Verdict(
            Status.UNKNOWN,
            method="sticky-buchi",
            certificate={"lasso": lasso, "start": (etype, pi0)},
            detail=f"lasso failed replay validation: {error}",
        )
    return Verdict(
        Status.NOT_ALL_TERMINATING,
        method="sticky-buchi",
        certificate={"witness": witness},
        detail=(
            f"caterpillar lasso from start {etype} / Π0={sorted(pi0)}; "
            f"replayed {len(witness.derivation.steps)} validated steps"
        ),
    )
