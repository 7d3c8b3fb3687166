"""The caterpillar Büchi automaton (Appendix D.2, Lemma 6.12).

For a sticky set ``T``, a deterministic Büchi automaton over caterpillar
words whose language is non-empty iff a free connected caterpillar for
``T`` exists — iff some database admits an infinite restricted chase
derivation (Theorem 6.5), iff ``T ∉ CT_res_∀∀`` (with Theorem 4.1).

One automaton per start pair ``(e0, Π0)`` (equality type of the first body
atom, positions of the first relay term); the union ranges over the finite
set ``etp_T``.  Each automaton is the product of the paper's three machines,
built here as a single state tuple:

* the ``A_pc`` component: the equality type of the current body atom
  (transition ``δ_et``);
* the ``A_qc`` component: the set ``Θ`` of T-equality types of all previous
  body atoms *relative to the current one* (Lemma D.3 makes this finite
  summary sound for the stop-relation check);
* the ``A_cc`` component: the position sets ``Π1`` (current relay term) and
  ``Π2`` (all relay terms) plus the Büchi flag, with ``δ_pos`` propagation,
  loss-of-relay rejection, and immortal-position rejection.

The family compiles its transition function as it explores.  Whatever a
step needs that depends only on the current equality type ``e`` and the
symbol ``s`` is built once per ``(e, s)`` into a :class:`_Step` in the
family's step table: the ``γ → can(e)`` check, the new equality type, the
old-class and survival maps, the frontier head positions, ``θ_self`` (the
current atom's own type, which either stops the new atom on every call or
never) and the marked head positions.  A pair that always rejects compiles
to None.  What one ``δ`` call still computes is:

* the relay update of ``(Π1, Π2)``, memoized on the step;
* for each ``θ ∈ Θ``, whether ``θ`` stops the new atom and otherwise
  ``θ`` relabelled through the survival map, memoized per ``(θ, step)``;
* the successor ``Θ`` (a frozenset) and the successor state's lookup.

States are interned per family, so they hash and compare by identity and
cache their ``repr`` (the emptiness check orders by it).  ``Θ`` holds small
integer ids into :attr:`CaterpillarAutomatonFamily.thetas`.  An id is given
when its type is first met, which happens in exploration order over
frozensets of ids — never over a set ordered by string hashes — so no
table's content depends on ``PYTHONHASHSEED``.  Every table lives on one
family, i.e. on one decision.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.automata.buchi import BuchiAutomaton, Lasso
from repro.chase.checkpoint import Budget
from repro.core.equality import (
    EqualityType,
    LabeledEqualityType,
    enumerate_equality_types,
)
from repro.errors import ChaseInterrupted
from repro.sticky.alphabet import CaterpillarSymbol, caterpillar_alphabet
from repro.tgds.stickiness import StickinessAnalysis
from repro.tgds.tgd import TGD, schema_of

#: A row of the step table: symbol -> compiled step (None: always rejects).
StepRow = Dict[CaterpillarSymbol, Optional["_Step"]]

_UNSEEN = object()
#: The Θ-memo entry of a θ that stops the new atom.
_STOPS = -1


class CaterpillarState:
    """One product state ``(e, Θ, Π1, Π2, accepting)``.

    Interned by the family that made it: within one family equal states
    are one object, so states hash and compare by identity.  ``theta`` is
    a frozenset of ids into the family's ``thetas``; ``steps`` is the
    family's step row for ``etype``.
    """

    __slots__ = ("etype", "theta", "pi1", "pi2", "accepting", "steps", "_repr")

    def __init__(
        self,
        etype: EqualityType,
        theta: FrozenSet[int],
        pi1: FrozenSet[int],
        pi2: FrozenSet[int],
        accepting: bool,
        steps: StepRow,
    ):
        self.etype = etype
        self.theta = theta
        self.pi1 = pi1
        self.pi2 = pi2
        self.accepting = accepting
        self.steps = steps
        self._repr: Optional[str] = None

    def __repr__(self) -> str:
        text = self._repr
        if text is None:
            mark = "✓" if self.accepting else "·"
            text = self._repr = (
                f"State[{self.etype}, |Θ|={len(self.theta)}, "
                f"Π1={sorted(self.pi1)}, Π2={sorted(self.pi2)} {mark}]"
            )
        return text


class _Step:
    """One compiled ``(e, s)`` step: all of ``δ`` that ignores ``Θ`` and ``Π``.

    ``etype``/``etype_id`` are the new atom's interned equality type;
    ``old_class`` maps the new atom's positions that hold an old term to
    that term's e-class; ``survival`` maps those e-classes to new classes;
    ``frontier`` are the head's frontier positions; ``marked`` the head
    positions a relay term may reach; ``self_theta`` the id of ``θ_self``
    relabelled.  ``relays`` memoizes the
    ``A_cc`` update per ``(Π1, Π2)`` and ``updates`` the ``A_qc`` update per
    θ id (:data:`_STOPS` or the relabelled θ's id).
    """

    __slots__ = (
        "etype",
        "etype_id",
        "old_class",
        "survival",
        "frontier",
        "passes_on",
        "marked",
        "self_theta",
        "relays",
        "updates",
    )

    def relay(
        self, pi1: FrozenSet[int], pi2: FrozenSet[int]
    ) -> Optional[Tuple[FrozenSet[int], FrozenSet[int], bool]]:
        """``(Π1', Π2', accepting)`` after this step, or None (reject).

        ``δ_pos(Π)`` = positions whose term is an old term whose class lies
        inside ``Π`` (``Π`` is a union of e-classes).
        """
        old_class = self.old_class.items()
        carried_pi1 = frozenset(k for k, cls in old_class if cls <= pi1)
        if not carried_pi1:
            return None  # the current relay term was dropped
        carried_pi2 = frozenset(k for k, cls in old_class if cls <= pi2)
        if not carried_pi2 <= self.marked:
            return None  # a relay term reached an immortal position
        if self.passes_on:
            return self.passes_on, self.passes_on | carried_pi1 | carried_pi2, True
        return carried_pi1, carried_pi1 | carried_pi2, False


class CaterpillarAutomatonFamily:
    """The family ``{A_{e0,Π0}}`` for one sticky TGD set.

    ``transition`` implements the three components at once from the
    compiled step table; the start pairs enumerate ``etp_T``.  ``marking``
    lets a caller that already ran the stickiness analysis share it.
    """

    def __init__(
        self,
        tgds: Sequence[TGD],
        max_states: int = 100_000,
        marking: Optional[StickinessAnalysis] = None,
    ):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        self.marking = marking if marking is not None else StickinessAnalysis(self.tgds)
        if not self.marking.is_sticky:
            raise ValueError("the caterpillar automaton requires a sticky set")
        self.alphabet: List[CaterpillarSymbol] = caterpillar_alphabet(self.tgds)
        self.max_states = max_states
        #: Per TGD, the head positions a relay term may reach: the marked
        #: ones (an immortal position would propagate it forever).
        self._marked_heads = tuple(
            frozenset(
                k
                for k in range(1, tgd.head.arity + 1)
                if self.marking.is_marked(index, tgd.head[k])
            )
            for index, tgd in enumerate(self.tgds)
        )
        #: Interned T-equality types; a state's ``Θ`` holds ids into this list.
        self.thetas: List[LabeledEqualityType] = []
        self._theta_ids: Dict[LabeledEqualityType, int] = {}
        #: Equality type -> (id, interned type); ``_rows[id]`` is its step
        #: row.  Steps name rows by id, so the tables hold no reference
        #: cycle and are freed with the family.
        self._etypes: Dict[EqualityType, Tuple[int, EqualityType]] = {}
        self._rows: List[StepRow] = []
        self._states: Dict[tuple, CaterpillarState] = {}

    # -- start pairs ---------------------------------------------------------

    def start_pairs(self) -> Iterator[Tuple[EqualityType, FrozenSet[int]]]:
        """All ``(e0, Π0) ∈ etp_T``: every equality type of every predicate

        of ``sch(T)``, with ``Π0`` ranging over its classes (the positions of
        the first relay term — one term, hence one class).

        Finer partitions are enumerated first: the generic (free) caterpillar
        has a maximally-distinct first atom, so witnesses extracted from the
        first non-empty component satisfy Definition 6.8 verbatim whenever a
        distinct-term start suffices.
        """
        schema = schema_of(self.tgds)
        for predicate in schema:
            types = sorted(
                enumerate_equality_types(predicate, schema.arity(predicate)),
                key=lambda e: (-len(e.partition), repr(e)),
            )
            for etype in types:
                for cls in etype.partition:
                    yield etype, frozenset(cls)

    def initial_state(self, etype: EqualityType, pi0: FrozenSet[int]) -> CaterpillarState:
        etype_id, etype = self._etype_entry(etype)
        return self._state(etype_id, etype, frozenset(), pi0, pi0, False)

    def component(
        self, etype: EqualityType, pi0: FrozenSet[int], budget: Optional[Budget] = None
    ) -> BuchiAutomaton:
        """The deterministic Büchi automaton ``A_{e0,Π0}``."""
        return BuchiAutomaton(
            initial=self.initial_state(etype, pi0),
            alphabet=self.alphabet,
            transition=self.transition,
            is_accepting=lambda state: state.accepting,
            max_states=self.max_states,
            budget=budget,
        )

    # -- interning -----------------------------------------------------------

    def _etype_entry(self, etype: EqualityType) -> Tuple[int, EqualityType]:
        entry = self._etypes.get(etype)
        if entry is None:
            entry = self._etypes[etype] = (len(self._rows), etype)
            self._rows.append({})
        return entry

    def _theta_id(self, theta: LabeledEqualityType) -> int:
        theta_id = self._theta_ids.get(theta)
        if theta_id is None:
            theta_id = self._theta_ids[theta] = len(self.thetas)
            self.thetas.append(theta)
        return theta_id

    def _state(
        self,
        etype_id: int,
        etype: EqualityType,
        theta: FrozenSet[int],
        pi1: FrozenSet[int],
        pi2: FrozenSet[int],
        accepting: bool,
    ) -> CaterpillarState:
        key = (etype_id, theta, pi1, pi2, accepting)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = CaterpillarState(
                etype, theta, pi1, pi2, accepting, self._rows[etype_id]
            )
        return state

    # -- the transition function ---------------------------------------------

    def transition(
        self, state: CaterpillarState, symbol: CaterpillarSymbol
    ) -> Optional[CaterpillarState]:
        """One ``δ`` step; None = reject (the implicit dead state)."""
        steps = state.steps
        step = steps.get(symbol, _UNSEEN)
        if step is _UNSEEN:
            step = steps[symbol] = self._compile(state.etype, symbol)
        if step is None:
            return None
        # A_cc: relay propagation.
        pis = (state.pi1, state.pi2)
        relay = step.relays.get(pis, _UNSEEN)
        if relay is _UNSEEN:
            relay = step.relays[pis] = step.relay(*pis)
        if relay is None:
            return None
        # A_qc: reject when a previous body atom stops the new atom, else
        # carry each θ over to the new atom's terms.
        updates = step.updates
        theta = [step.self_theta]
        for old in state.theta:
            new = updates.get(old)
            if new is None:
                new = updates[old] = self._update(step, old)
            if new == _STOPS:
                return None
            theta.append(new)
        pi1, pi2, accepting = relay
        return self._state(step.etype_id, step.etype, frozenset(theta), pi1, pi2, accepting)

    def _compile(self, e: EqualityType, symbol: CaterpillarSymbol) -> Optional[_Step]:
        """The step for ``(e, symbol)``, or None when it always rejects."""
        tgd = self.tgds[symbol.tgd_index]
        gamma = tgd.body[symbol.body_index]
        if gamma.predicate != e.predicate or gamma.arity != e.arity:
            return None
        # A_pc: a homomorphism γ → can(e) needs repeated variables of γ to
        # sit at e-equal positions.
        for l in range(1, gamma.arity + 1):
            for l2 in range(l + 1, gamma.arity + 1):
                if gamma[l] == gamma[l2] and not e.same(l, l2):
                    return None
        marked = self._marked_heads[symbol.tgd_index]
        if not symbol.passes_on <= marked:
            return None  # a pass-on position is immortal
        head = tgd.head
        # The e-class each γ-variable is bound to.
        var_class: Dict = {}
        for l in range(1, gamma.arity + 1):
            var_class.setdefault(gamma[l], e.class_of(l))
        # Value tokens of the new atom's positions: an old term (its e-class),
        # a fresh leg term (per frontier variable outside γ), or a fresh null
        # (per existential variable).  Generic caterpillar semantics: anything
        # not forced equal is distinct (freeness).
        values: Dict[int, tuple] = {}
        for k in range(1, head.arity + 1):
            var = head[k]
            if var in tgd.frontier:
                if var in var_class:
                    values[k] = ("old", var_class[var])
                else:
                    values[k] = ("leg", var)
            else:
                values[k] = ("ex", var)
        groups: Dict[tuple, set] = {}
        for k, value in values.items():
            groups.setdefault(value, set()).add(k)
        etype_id, new_etype = self._etype_entry(
            EqualityType(head.predicate, (frozenset(g) for g in groups.values()))
        )
        step = _Step()
        step.etype = new_etype
        step.etype_id = etype_id
        step.old_class = {k: value[1] for k, value in values.items() if value[0] == "old"}
        # Survival map m: e-class -> new-class, for terms that propagate.
        step.survival = {cls: new_etype.class_of(k) for k, cls in step.old_class.items()}
        step.frontier = tgd.frontier_head_positions()
        step.passes_on = symbol.passes_on
        step.marked = marked
        step.relays = {}
        step.updates = {}
        # θ_self: the current atom itself, each class labelled by itself.
        theta_self = LabeledEqualityType(e, {cls: cls for cls in e.partition})
        if self._stops(theta_self, step):
            return None
        step.self_theta = self._theta_id(theta_self.relabel(step.survival))
        return step

    def _update(self, step: _Step, theta_id: int) -> int:
        """``θ`` across ``step``: :data:`_STOPS`, or the relabelled θ's id."""
        theta = self.thetas[theta_id]
        if self._stops(theta, step):
            return _STOPS
        return self._theta_id(theta.relabel(step.survival))

    @staticmethod
    def _stops(theta: LabeledEqualityType, step: _Step) -> bool:
        """Does ``can(θ) ≺s`` the step's new atom? (θ is relative to the

        previous atom's terms; freeness makes this sufficient — Lemma D.3.)"""
        new_etype = step.etype
        if theta.predicate != new_etype.predicate or theta.arity != new_etype.arity:
            return False
        # Well-definedness: equal terms of the new atom must map to equal
        # terms of can(θ).
        for cls in new_etype.partition:
            positions = sorted(cls)
            first = theta.etype.class_of(positions[0])
            if any(theta.etype.class_of(p) != first for p in positions[1:]):
                return False
        # Frontier terms must be fixed: the new atom's frontier positions
        # carry previous-atom terms that can(θ) exhibits at the same spot.
        for k in step.frontier:
            previous_class = step.old_class.get(k)
            if previous_class is None:
                return False  # a brand-new term cannot occur in an old atom
            if theta.label_of_position(k) != previous_class:
                return False
        return True

    # -- emptiness over the union ---------------------------------------------

    def find_counterexample(
        self, budget: Optional[Budget] = None
    ) -> Optional[Tuple[EqualityType, FrozenSet[int], Lasso]]:
        """A lasso of some component — i.e. a free connected caterpillar —

        or None when ``L(A_T) = ∅`` (then ``T ∈ CT_res_∀∀``).

        A ``budget`` is checked before each component, while one is
        searched, and once more before a lasso is handed back for replay;
        exhaustion raises :class:`repro.errors.ChaseInterrupted` whose
        ``partial`` counts the components searched in full.
        """
        searched = 0
        for etype, pi0 in self.start_pairs():
            try:
                if budget is not None:
                    reason = budget.exceeded()
                    if reason is not None:
                        raise ChaseInterrupted(reason)
                lasso = self.component(etype, pi0, budget).find_lasso()
                if lasso is not None and budget is not None:
                    reason = budget.exceeded()
                    if reason is not None:
                        raise ChaseInterrupted(reason)
            except ChaseInterrupted as interrupted:
                interrupted.partial = {"components": searched, **interrupted.partial}
                raise
            if lasso is not None:
                return etype, pi0, lasso
            searched += 1
        return None

    def is_empty(self) -> bool:
        return self.find_counterexample() is None

    def total_reachable_states(self) -> int:
        """Σ over start pairs of reachable state counts (benchmark metric)."""
        total = 0
        for etype, pi0 in self.start_pairs():
            total += len(self.component(etype, pi0).reachable_states())
        return total
