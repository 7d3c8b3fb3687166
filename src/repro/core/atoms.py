"""Atoms over a schema: ``R(t1, ..., tn)``.

An atom pairs a predicate name with a tuple of terms.  A *fact* is an atom
whose arguments are all constants.  Positions follow the paper: the pair
``(R, i)`` identifies the i-th argument of ``R`` with ``i`` starting at 1
(Section 2); internally the term tuple is 0-indexed and the helpers below
translate.

An :class:`Atom` *is* the pair ``(predicate, terms)``: an immutable
``tuple`` subclass, built by one ``tuple.__new__`` call.  Hashing,
equality and ordering are the tuple's own C slots — terms are interned
and compare by identity (:mod:`repro.core.terms`), so a dict probe on an
atom never calls back into Python, and the hash is ``hash((predicate,
terms))``.  The price is that an atom equals the bare pair with the same
items.  Tuple order over the pair is :meth:`Atom.sort_key` order.  Since
``atom[0]`` and ``atom[1]`` are the tuple's items, the paper's 1-based
``α[i]`` is the method :meth:`Atom.at`.  Groundness is the class: an atom
with a variable argument is an instance of a non-ground subclass whose
:attr:`Atom.is_ground` is False; it pickles as ``Atom`` all the same.

``Atom(predicate, terms)`` checks its arguments.  A producer whose terms
are constants and nulls by construction — the head kernels
(:class:`repro.chase.plans.HeadKernel`), the fact parser — builds the
atom unchecked, as ``tuple.__new__(Atom, (predicate, terms))``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Tuple

from repro.core.terms import Constant, Null, Term, Variable


class Atom(tuple):
    """An atom ``R(t1, ..., tn)``, stored as the pair ``(predicate, terms)``.

    Immutable and hashable; equality is structural, and an atom equals the
    bare tuple ``(predicate, terms)``.  Term positions are 1-based in the
    public helpers, matching the paper's ``(R, i)`` notation; hot readers
    take ``atom[1]`` (or unpack ``predicate, terms = atom``) rather than
    the properties.
    """

    __slots__ = ()

    #: The predicate name.
    predicate = property(itemgetter(0))
    #: The argument tuple.
    terms = property(itemgetter(1))
    #: True iff no argument is a variable (constants and nulls only); the
    #: non-ground subclass says False.
    is_ground = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.is_ground:
            _pair_with_open(cls)

    def __new__(cls, predicate: str, terms: Iterable[Term]):
        if not isinstance(predicate, str) or not predicate:
            raise ValueError(f"predicate must be a non-empty string, got {predicate!r}")
        terms = tuple(terms)
        for t in terms:
            if not isinstance(t, Term):
                raise TypeError(f"atom arguments must be terms, got {t!r}")
            if isinstance(t, Variable):
                cls = cls._open
        return _new(cls, (predicate, terms))

    def __reduce__(self):
        return (self._public, (self[0], self[1]))

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self[1])

    def at(self, position: int) -> Term:
        """The term at 1-based ``position`` (the paper's ``α[i]``)."""
        terms = self[1]
        if not 1 <= position <= len(terms):
            raise IndexError(f"position {position} out of range for {self}")
        return terms[position - 1]

    def positions_of(self, term: Term) -> frozenset:
        """The paper's ``pos(α, t)``: 1-based positions where ``term`` occurs."""
        return frozenset(i for i, t in enumerate(self[1], start=1) if t == term)

    @property
    def is_fact(self) -> bool:
        """True iff every argument is a constant."""
        return all(isinstance(t, Constant) for t in self[1])

    def variables(self) -> set:
        """The set of variables occurring in this atom."""
        return {t for t in self[1] if isinstance(t, Variable)}

    def constants(self) -> set:
        """The set of constants occurring in this atom."""
        return {t for t in self[1] if isinstance(t, Constant)}

    def nulls(self) -> set:
        """The set of nulls occurring in this atom."""
        return {t for t in self[1] if isinstance(t, Null)}

    def term_set(self) -> set:
        """All terms occurring in this atom (as a set)."""
        return set(self[1])

    def apply(self, mapping) -> "Atom":
        """The atom obtained by replacing each term per ``mapping``.

        ``mapping`` is anything supporting ``get(term, default)`` — a dict or
        a :class:`repro.core.substitution.Substitution`.  Terms absent from
        the mapping are kept.
        """
        return Atom(self[0], tuple(mapping.get(t, t) for t in self[1]))

    def sort_key(self) -> tuple:
        """Deterministic ordering key (predicate, then term keys); atoms
        compare in this order."""
        return (self[0], tuple(t.sort_key() for t in self[1]))

    def __repr__(self) -> str:
        return f"{self[0]}({','.join(map(repr, self[1]))})"


def _pair_with_open(cls) -> None:
    """Give the ground atom class ``cls`` its non-ground twin ``cls._open``:
    the class :meth:`Atom.__new__` picks for an argument tuple with a
    variable.  Both pickle as ``cls``."""
    cls._public = cls
    cls._open = type(cls.__name__, (cls,), {
        "__slots__": (),
        "__qualname__": cls.__qualname__ + "._open",
        "__module__": cls.__module__,
        "is_ground": False,
        "_public": cls,
    })


_pair_with_open(Atom)
_new = tuple.__new__


Position = Tuple[str, int]
"""A position ``(R, i)`` of a schema: the i-th argument (1-based) of ``R``."""


def positions_of_atom(atom: Atom) -> list:
    """All positions ``(R, i)`` of ``atom``, in order."""
    return [(atom.predicate, i) for i in range(1, atom.arity + 1)]
