"""The interpreted caterpillar automaton: the differential oracle.

This is the step-by-step transition function the compiled
:class:`repro.sticky.automaton.CaterpillarAutomatonFamily` replaced: every
call rebuilds the γ → can(e) check, the new equality type, the old-class
and survival maps, θ_self and the marking checks from scratch, then runs
the stop check and the relabelling for every θ in Θ.  Its states compare
structurally.  ``tests/sticky/test_reference_oracle.py`` runs both
automata over the same start pairs and requires the same explored graph,
the same lasso and the same verdict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.core.equality import EqualityType, LabeledEqualityType
from repro.sticky.alphabet import CaterpillarSymbol
from repro.sticky.automaton import CaterpillarAutomatonFamily


class ReferenceState:
    """One product state ``(e, Θ, Π1, Π2, accepting)``."""

    __slots__ = ("etype", "theta", "pi1", "pi2", "accepting", "_hash")

    def __init__(
        self,
        etype: EqualityType,
        theta: FrozenSet[LabeledEqualityType],
        pi1: FrozenSet[int],
        pi2: FrozenSet[int],
        accepting: bool,
    ):
        self.etype = etype
        self.theta = theta
        self.pi1 = pi1
        self.pi2 = pi2
        self.accepting = accepting
        self._hash = hash((etype, theta, pi1, pi2, accepting))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReferenceState)
            and self._hash == other._hash
            and self.etype == other.etype
            and self.theta == other.theta
            and self.pi1 == other.pi1
            and self.pi2 == other.pi2
            and self.accepting == other.accepting
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        mark = "✓" if self.accepting else "·"
        return (
            f"State[{self.etype}, |Θ|={len(self.theta)}, "
            f"Π1={sorted(self.pi1)}, Π2={sorted(self.pi2)} {mark}]"
        )


class ReferenceAutomatonFamily(CaterpillarAutomatonFamily):
    """The family with the interpreted transition function (start pairs,
    components and the emptiness search are the compiled family's)."""

    def initial_state(self, etype: EqualityType, pi0: FrozenSet[int]) -> ReferenceState:
        return ReferenceState(etype, frozenset(), pi0, pi0, False)

    def transition(
        self, state: ReferenceState, symbol: CaterpillarSymbol
    ) -> Optional[ReferenceState]:
        """One ``δ`` step; None = reject (the implicit dead state)."""
        tgd = self.tgds[symbol.tgd_index]
        gamma = tgd.body[symbol.body_index]
        e = state.etype
        if gamma.predicate != e.predicate or gamma.arity != e.arity:
            return None
        # A_pc: a homomorphism γ → can(e) needs repeated variables of γ to
        # sit at e-equal positions.
        for l in range(1, gamma.arity + 1):
            for l2 in range(l + 1, gamma.arity + 1):
                if gamma[l] == gamma[l2] and not e.same(l, l2):
                    return None
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
        groups: Dict[tuple, Set[int]] = {}
        for k, value in values.items():
            groups.setdefault(value, set()).add(k)
        new_etype = EqualityType(
            head.predicate, (frozenset(g) for g in groups.values())
        )
        old_class: Dict[int, Optional[FrozenSet[int]]] = {
            k: (value[1] if value[0] == "old" else None)
            for k, value in values.items()
        }
        # Survival map m: e-class -> new-class, for terms that propagate.
        survival: Dict[FrozenSet[int], FrozenSet[int]] = {}
        for k, value in values.items():
            if value[0] == "old":
                survival[value[1]] = new_etype.class_of(k)

        # A_qc: reject when any previous body atom (or the current one)
        # stops the new atom (Lemma D.3's type-level check).
        frontier_positions = tgd.frontier_head_positions()
        theta_self = LabeledEqualityType(e, {cls: cls for cls in e.partition})
        for theta in list(state.theta) + [theta_self]:
            if self._stops(theta, new_etype, old_class, frontier_positions):
                return None
        new_theta = frozenset(
            theta.relabel(survival) for theta in list(state.theta) + [theta_self]
        )

        # A_cc: relay propagation.  δ_pos(Π) = positions whose term is an old
        # term whose class lies inside Π (Π is a union of e-classes).
        def delta_pos(pi: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset(
                k
                for k, cls in old_class.items()
                if cls is not None and cls <= pi
            )

        carried_pi1 = delta_pos(state.pi1)
        if not carried_pi1:
            return None  # the current relay term was dropped
        carried_pi2 = delta_pos(state.pi2)
        for k in carried_pi2 | symbol.passes_on:
            if not self.marking.is_marked(symbol.tgd_index, head[k]):
                return None  # a relay term reached an immortal position
        if symbol.passes_on:
            new_pi1 = frozenset(symbol.passes_on)
            new_pi2 = new_pi1 | carried_pi1 | carried_pi2
            accepting = True
        else:
            new_pi1 = carried_pi1
            new_pi2 = carried_pi1 | carried_pi2
            accepting = False
        return ReferenceState(new_etype, new_theta, new_pi1, new_pi2, accepting)

    @staticmethod
    def _stops(
        theta: LabeledEqualityType,
        new_etype: EqualityType,
        old_class: Dict[int, Optional[FrozenSet[int]]],
        frontier_positions: FrozenSet[int],
    ) -> bool:
        """Does ``can(θ) ≺s`` the new atom? (θ is relative to the previous

        atom's terms; freeness makes this sufficient — Lemma D.3.)"""
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
        for k in frontier_positions:
            previous_class = old_class.get(k)
            if previous_class is None:
                return False  # a brand-new term cannot occur in an old atom
            if theta.label_of_position(k) != previous_class:
                return False
        return True
