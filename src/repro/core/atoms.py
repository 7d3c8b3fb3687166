"""Atoms over a schema: ``R(t1, ..., tn)``.

An atom pairs a predicate name with a tuple of terms.  A *fact* is an atom
whose arguments are all constants.  Positions follow the paper: the pair
``(R, i)`` identifies the i-th argument of ``R`` with ``i`` starting at 1
(Section 2); internally the term tuple is 0-indexed and the helpers below
translate.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.terms import Constant, Null, Term, Variable


class Atom:
    """An atom ``R(t1, ..., tn)``.

    Immutable and hashable; equality is structural.  Term positions are
    1-based in the public helpers, matching the paper's ``(R, i)`` notation.
    """

    __slots__ = ("predicate", "terms", "_hash", "is_ground")

    def __init__(self, predicate: str, terms: Iterable[Term]):
        if not isinstance(predicate, str) or not predicate:
            raise ValueError(f"predicate must be a non-empty string, got {predicate!r}")
        terms = tuple(terms)
        ground = True
        for t in terms:
            if not isinstance(t, Term):
                raise TypeError(f"atom arguments must be terms, got {t!r}")
            if isinstance(t, Variable):
                ground = False
        # The slots' own descriptors store past the immutable __setattr__.
        _set_predicate(self, predicate)
        _set_terms(self, terms)
        _set_hash(self, hash((predicate, terms)))
        #: True iff no argument is a variable (constants and nulls only).
        _set_ground(self, ground)

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # The immutable __setattr__ defeats default slot unpickling; rebuild
        # through __init__ so atoms can cross process-pool boundaries.
        return (type(self), (self.predicate, self.terms))

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.terms)

    def __getitem__(self, position: int) -> Term:
        """The term at 1-based ``position`` (the paper's ``α[i]``)."""
        if not 1 <= position <= len(self.terms):
            raise IndexError(f"position {position} out of range for {self}")
        return self.terms[position - 1]

    def positions_of(self, term: Term) -> frozenset:
        """The paper's ``pos(α, t)``: 1-based positions where ``term`` occurs."""
        return frozenset(i for i, t in enumerate(self.terms, start=1) if t == term)

    @property
    def is_fact(self) -> bool:
        """True iff every argument is a constant."""
        return all(isinstance(t, Constant) for t in self.terms)

    def variables(self) -> set:
        """The set of variables occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Variable)}

    def constants(self) -> set:
        """The set of constants occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Constant)}

    def nulls(self) -> set:
        """The set of nulls occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Null)}

    def term_set(self) -> set:
        """All terms occurring in this atom (as a set)."""
        return set(self.terms)

    def apply(self, mapping) -> "Atom":
        """The atom obtained by replacing each term per ``mapping``.

        ``mapping`` is anything supporting ``get(term, default)`` — a dict or
        a :class:`repro.core.substitution.Substitution`.  Terms absent from
        the mapping are kept.
        """
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.terms))

    def sort_key(self) -> tuple:
        """Deterministic ordering key (predicate, then term keys)."""
        return (self.predicate, tuple(t.sort_key() for t in self.terms))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"{self.predicate}({','.join(map(repr, self.terms))})"


_set_predicate = Atom.predicate.__set__
_set_terms = Atom.terms.__set__
_set_hash = Atom._hash.__set__
_set_ground = Atom.is_ground.__set__


Position = Tuple[str, int]
"""A position ``(R, i)`` of a schema: the i-th argument (1-based) of ``R``."""


def positions_of_atom(atom: Atom) -> list:
    """All positions ``(R, i)`` of ``atom``, in order."""
    return [(atom.predicate, i) for i in range(1, atom.arity + 1)]
