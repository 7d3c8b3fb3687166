"""Caterpillar words and their alphabet ``Λ_T`` (Appendix D.2).

A caterpillar word symbol is a triple ``(σ, γ, P)``: the TGD applied next,
the body atom of ``σ`` that matches the previous body atom of the
caterpillar, and the pass-on marker ``P`` — either empty, or exactly the
set of head positions of one existentially quantified variable of ``σ``
(where the next relay term is born).
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence

from repro.core.atoms import Atom
from repro.tgds.tgd import TGD


class CaterpillarSymbol:
    """One letter ``(σ, γ, P)`` of ``Λ_T``.

    ``tgd_index`` / ``body_index`` address into the TGD set, keeping symbols
    hashable and compact; ``passes_on`` is the (possibly empty) frozen
    position set ``P``.  The hash is computed once: symbols key the
    automaton's step table.
    """

    __slots__ = ("tgd_index", "body_index", "passes_on", "_hash")

    def __init__(self, tgd_index: int, body_index: int, passes_on: FrozenSet[int]):
        self.tgd_index = tgd_index
        self.body_index = body_index
        self.passes_on = frozenset(passes_on)
        self._hash = hash((tgd_index, body_index, self.passes_on))

    def tgd(self, tgds: Sequence[TGD]) -> TGD:
        return tgds[self.tgd_index]

    def gamma(self, tgds: Sequence[TGD]) -> Atom:
        return tgds[self.tgd_index].body[self.body_index]

    @property
    def is_pass_on(self) -> bool:
        return bool(self.passes_on)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, CaterpillarSymbol)
            and self.tgd_index == other.tgd_index
            and self.body_index == other.body_index
            and self.passes_on == other.passes_on
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        marks = "" if not self.passes_on else f", P={sorted(self.passes_on)}"
        return f"(σ{self.tgd_index + 1}, γ{self.body_index}{marks})"


def caterpillar_alphabet(tgds: Sequence[TGD]) -> List[CaterpillarSymbol]:
    """All of ``Λ_T``: every (TGD, body atom, P) triple.

    ``P`` is either empty or ``pos(head(σ), z)`` for one existential
    variable ``z`` of ``σ`` (the paper's constraint on non-empty ``P``).
    """
    symbols: List[CaterpillarSymbol] = []
    for tgd_index, tgd in enumerate(tgds):
        head = tgd.head
        pass_on_options: List[FrozenSet[int]] = [frozenset()]
        seen_positions = set()
        for z in sorted(tgd.existential_variables, key=lambda v: v.name):
            positions = frozenset(head.positions_of(z))
            if positions and positions not in seen_positions:
                seen_positions.add(positions)
                pass_on_options.append(positions)
        for body_index in range(len(tgd.body)):
            for passes_on in pass_on_options:
                symbols.append(CaterpillarSymbol(tgd_index, body_index, passes_on))
    return symbols
