"""Stickiness: the marking procedure and immortal positions (Sections 2, 6.1).

The inductive marking of Section 2, on a set ``T`` of single-head TGDs:

1. a body variable of ``σ`` that does not occur in ``head(σ)`` is *marked*;
2. for a variable ``x`` occurring in ``head(σ) = R(t̄)``: if some ``σ' ∈ T``
   has an ``R``-atom ``R(t̄')`` in its body such that *every* variable of
   ``R(t̄')`` at a position of ``pos(R(t̄), x)`` is marked in ``T``, then
   ``x`` is marked in ``T``.

``T`` is *sticky* iff no TGD has two body occurrences of a marked variable.

We evaluate the marking as a monotone fixpoint over pairs ``(σ, v)`` where
``v`` ranges over *all* variables of ``σ`` (body and head).  For body
variables this is exactly the paper's definition; extending clause (2) to
existential head variables is what the *immortal position* notion of
Section 6.1 needs: the i-th position of ``head(σ)`` is immortal iff the
variable there is **not** marked, meaning the invented/propagated term is
propagated forever (it stays in the frontier of every descendant).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.terms import Variable
from repro.tgds.tgd import TGD

MarkKey = Tuple[int, Variable]
"""Marking is keyed by (index of the TGD in the set, variable)."""


class StickinessAnalysis:
    """The fixpoint marking of a TGD set, with derived predicates.

    The analysis is computed once at construction; all queries afterwards
    are dictionary lookups.
    """

    def __init__(self, tgds: Sequence[TGD]):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        self._marked: Set[MarkKey] = set()
        self._compute_marking()

    def _compute_marking(self) -> None:
        marked = self._marked
        # Base case: body variables absent from the head.
        for idx, tgd in enumerate(self.tgds):
            head_vars = tgd.head_variables()
            for var in tgd.body_variables():
                if var not in head_vars:
                    marked.add((idx, var))
        # Propagation (head -> body of other TGDs), to fixpoint.
        changed = True
        while changed:
            changed = False
            for idx, tgd in enumerate(self.tgds):
                head = tgd.head
                for var in head.variables():
                    if (idx, var) in marked:
                        continue
                    positions = head.positions_of(var)
                    if self._some_body_atom_all_marked(head.predicate, positions):
                        marked.add((idx, var))
                        changed = True

    def _some_body_atom_all_marked(
        self, predicate: str, positions: FrozenSet[int]
    ) -> bool:
        """Clause (2): does some body atom witness the marking propagation?"""
        for other_idx, other in enumerate(self.tgds):
            for atom in other.body:
                if atom.predicate != predicate:
                    continue
                if all((other_idx, atom.at(i)) in self._marked for i in positions):
                    return True
        return False

    def is_marked(self, tgd_index: int, var: Variable) -> bool:
        """Is ``var`` marked in the ``tgd_index``-th TGD?"""
        return (tgd_index, var) in self._marked

    def marked_variables(self, tgd_index: int) -> Set[Variable]:
        """All marked variables of the given TGD (body and head)."""
        return {v for (i, v) in self._marked if i == tgd_index}

    def sticky_violations(self) -> List[Tuple[int, Variable]]:
        """Pairs (tgd index, variable) where a marked variable occurs twice

        in the body — the witnesses that the set is not sticky."""
        violations: List[Tuple[int, Variable]] = []
        for idx, tgd in enumerate(self.tgds):
            occurrences: Dict[Variable, int] = {}
            for atom in tgd.body:
                for term in atom.terms:
                    occurrences[term] = occurrences.get(term, 0) + 1
            for var, count in sorted(occurrences.items(), key=lambda kv: kv[0].name):
                if count >= 2 and (idx, var) in self._marked:
                    violations.append((idx, var))
        return violations

    @property
    def is_sticky(self) -> bool:
        """The class ``S`` membership test."""
        return not self.sticky_violations()

    def check(self) -> None:
        """Raise ``ValueError`` describing the first stickiness violation, if any."""
        violations = self.sticky_violations()
        if violations:
            idx, var = violations[0]
            raise ValueError(
                f"set is not sticky: marked variable {var.name!r} occurs twice "
                f"in the body of {self.tgds[idx]}"
            )

    def is_immortal_position(self, tgd_index: int, head_position: int) -> bool:
        """Is the ``head_position``-th position of ``head(σ)`` immortal?

        Immortal (Section 6.1) iff the head variable there is *not* marked:
        the term landing there is propagated forever.  Connectedness of a
        caterpillar requires relay terms to avoid immortal positions.
        """
        tgd = self.tgds[tgd_index]
        var = tgd.head.at(head_position)
        return (tgd_index, var) not in self._marked

    def immortal_positions(self, tgd_index: int) -> FrozenSet[int]:
        """All immortal head positions of the given TGD."""
        tgd = self.tgds[tgd_index]
        return frozenset(
            i
            for i in range(1, tgd.head.arity + 1)
            if self.is_immortal_position(tgd_index, i)
        )

    def marking_table(self) -> Dict[int, Set[str]]:
        """Human-readable marking: tgd index -> names of marked variables."""
        table: Dict[int, Set[str]] = {i: set() for i in range(len(self.tgds))}
        for idx, var in self._marked:
            table[idx].add(var.name)
        return table


def is_sticky(tgds: Iterable[TGD]) -> bool:
    """True iff the TGD set is sticky (the class ``S``)."""
    return StickinessAnalysis(list(tgds)).is_sticky


def check_sticky_set(tgds: Sequence[TGD]) -> None:
    """Raise ``ValueError`` describing the first stickiness violation, if any."""
    StickinessAnalysis(tgds).check()
