"""Terms: constants, labeled nulls, and variables.

The paper (Section 2) works with three disjoint countably infinite sets:
``C`` (constants), ``N`` (labeled nulls), and ``V`` (variables).  Constants
and nulls populate instances; variables only appear in dependencies and
queries.

Terms are immutable, hashable, and totally ordered (constants < nulls <
variables, then by name) so that canonical serializations of atoms,
substitutions, and triggers are deterministic.

Terms are *hash-consed*: constructing a term looks its ``(class, name)``
up in a per-class intern table first, so two equal terms are always the
same object.  Equality and hashing are therefore object identity, which
every dict, set, index key, and ``Atom`` hash evaluates in C without
calling back into Python.  The tables hold weak references only: a term
no longer referenced anywhere (say, a null of a deleted service session)
drops out of its table when it is collected.  A miss takes no lock: it
publishes a plain ``weakref.ref`` with one ``setdefault``, which racing
misses agree on, and an entry whose term died before its callback ran is
removed only while it is dead (:func:`_mint`).  Pickling, ``copy``, and
``deepcopy`` re-intern through ``__reduce__``, so a round trip returns the
identical object.  Because identity hashes follow memory addresses, set
iteration order over terms is arbitrary run to run; everything whose
output order matters sorts by :meth:`Term.sort_key` first.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from _weakref import _remove_dead_weakref
from typing import Dict, Union

def _forget(table: dict, name: str, ref: weakref.ref) -> None:
    """Weakref callback: drop a collected term's entry, unless a newer
    live term under the same name has replaced it meanwhile."""
    _remove_dead_weakref(table, name)


def _mint(cls, name: str):
    """The live ``cls`` term named ``name``, created on a miss; concurrent
    misses agree on one object.

    ``setdefault`` publishes the new term's reference atomically, so the
    first of several racing misses wins and the others return its term.
    An entry found dead (its term collected, its callback not yet run) is
    removed only while it is dead, by the same atomic call the callback
    makes, and the term is published again: a live entry is never
    overwritten, so no lock is needed.
    """
    table = cls._interned
    term = object.__new__(cls)
    # The slot's own descriptor stores past the immutable __setattr__.
    _set_name(term, name)
    ref = weakref.ref(term, functools.partial(_forget, table, name))
    while True:
        found = table.setdefault(name, ref)
        if found is ref:
            return term
        live = found()
        if live is not None:
            return live
        _remove_dead_weakref(table, name)


@functools.total_ordering
class Term:
    """Base class for all terms.

    Subclasses are interned value objects: two terms are equal iff they
    have the same kind and the same name, and then they are one object.
    """

    __slots__ = ("name", "__weakref__")

    #: Rank used for the total order between term kinds.
    _KIND_RANK = -1

    #: Per-class intern table: name -> weak reference to the live term.
    _interned: Dict[str, weakref.ref] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = {}

    def __new__(cls, name: str):
        ref = cls._interned.get(name)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        if not isinstance(name, str) or not name:
            raise ValueError(f"term name must be a non-empty string, got {name!r}")
        return _mint(cls, name)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Re-intern on unpickling/copying: the round trip yields this object.
        return (type(self), (self.name,))

    def sort_key(self) -> tuple:
        """Key realizing the total order on terms (kind rank, then name)."""
        return (self._KIND_RANK, self.name)

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)


_set_name = Term.name.__set__


class Constant(Term):
    """A constant from ``C``.  Homomorphisms map constants to themselves."""

    __slots__ = ()
    _KIND_RANK = 0

    def __repr__(self) -> str:
        return self.name


class Null(Term):
    """A labeled null from ``N``: a witness for an existential variable.

    Nulls invented by the chase carry structured names derived from the
    trigger that created them (see :func:`repro.chase.trigger.result_atom`),
    which makes null invention deterministic as required by Definition 3.1.
    """

    __slots__ = ()
    _KIND_RANK = 1

    def __repr__(self) -> str:
        return f"?{self.name}"


class Variable(Term):
    """A variable from ``V``; only used inside dependencies and queries."""

    __slots__ = ()
    _KIND_RANK = 2

    def __repr__(self) -> str:
        return self.name


#: A term that can appear in an instance (no variables).
GroundTerm = Union[Constant, Null]


class FreshNullFactory:
    """Produces globally fresh nulls with a common prefix.

    Used where the paper invents "new terms not occurring in I" without
    tying them to a trigger (e.g. the unifying function of Lemma 6.13 or
    canonical atoms of equality types).
    """

    def __init__(self, prefix: str = "n"):
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Null:
        """Return a null never produced by this factory before."""
        return Null(f"{self._prefix}{next(self._counter)}")

    def fresh_many(self, count: int) -> list:
        """Return ``count`` pairwise-distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]


class FreshVariableFactory:
    """Produces fresh variables; used to rename TGDs apart (Section 2)."""

    def __init__(self, prefix: str = "v"):
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Variable:
        """Return a variable never produced by this factory before."""
        return Variable(f"{self._prefix}{next(self._counter)}")


def constants_of(terms) -> set:
    """The set of constants among ``terms``."""
    return {t for t in terms if isinstance(t, Constant)}


def nulls_of(terms) -> set:
    """The set of nulls among ``terms``."""
    return {t for t in terms if isinstance(t, Null)}


def variables_of(terms) -> set:
    """The set of variables among ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}
