"""Equality types of atoms (Appendix A) and T-equality types (Appendix D.2).

An *equality type* over a schema is a pair ``(R, E)`` where ``E`` is a
partition of ``{1, ..., ar(R)}``: it records which argument positions of an
atom carry equal terms, abstracting the terms themselves away.  The sticky
Büchi automaton ``A_pc`` runs over equality types.

A *T-equality type* ``(R, E, λ)`` additionally labels some classes of ``E``
with terms from a finite set ``T`` (injectively): it records which argument
positions carry *specific* terms of ``T``.  The automaton ``A_qc`` tracks
T-equality types of past caterpillar-body atoms relative to the terms of
the current atom (Lemma D.3).

Classes are represented by frozensets of 1-based positions; labels are
arbitrary hashable values (the automata use classes of the current atom's
equality type as labels).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.core.atoms import Atom
from repro.core.terms import Null, Term

PositionClass = FrozenSet[int]


def set_partitions(n: int) -> Iterator[Tuple[FrozenSet[int], ...]]:
    """Enumerate all partitions of ``{1, ..., n}`` (as tuples of frozensets).

    Uses the restricted-growth-string enumeration; the number of partitions
    is the Bell number ``B(n)``, so callers should keep ``n`` small (arity
    of a predicate).
    """
    if n == 0:
        yield ()
        return

    def grow(assignment: List[int], next_class: int) -> Iterator[Tuple[FrozenSet[int], ...]]:
        position = len(assignment)
        if position == n:
            classes: Dict[int, set] = {}
            for idx, cls in enumerate(assignment, start=1):
                classes.setdefault(cls, set()).add(idx)
            yield tuple(frozenset(classes[c]) for c in sorted(classes))
            return
        for cls in range(next_class + 1):
            assignment.append(cls)
            yield from grow(assignment, max(next_class, cls + 1))
            assignment.pop()

    yield from grow([], 0)


class EqualityType:
    """An equality type ``(R, E)``: predicate plus a partition of its positions."""

    __slots__ = ("predicate", "partition", "_class_of", "_hash")

    def __init__(self, predicate: str, partition: Iterable[PositionClass]):
        classes = tuple(sorted((frozenset(c) for c in partition), key=min))
        covered = sorted(p for c in classes for p in c)
        arity = len(covered)
        if covered != list(range(1, arity + 1)):
            raise ValueError(
                f"partition {classes} does not partition 1..{arity} exactly"
            )
        class_of: Dict[int, PositionClass] = {}
        for cls in classes:
            for position in cls:
                class_of[position] = cls
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "partition", classes)
        object.__setattr__(self, "_class_of", class_of)
        object.__setattr__(self, "_hash", hash((predicate, classes)))

    def __setattr__(self, name, value):
        raise AttributeError("EqualityType is immutable")

    @property
    def arity(self) -> int:
        return len(self._class_of)

    def class_of(self, position: int) -> PositionClass:
        """The equivalence class containing ``position`` (1-based)."""
        try:
            return self._class_of[position]
        except KeyError:
            raise IndexError(f"position {position} out of range") from None

    def same(self, i: int, j: int) -> bool:
        """True iff positions ``i`` and ``j`` carry equal terms."""
        return self._class_of[i] is self._class_of[j] or self._class_of[i] == self._class_of[j]

    def classes(self) -> Tuple[PositionClass, ...]:
        return self.partition

    @staticmethod
    def of_atom(atom: Atom) -> "EqualityType":
        """The paper's ``et(α)``."""
        by_term: Dict[Term, set] = {}
        for i, term in enumerate(atom.terms, start=1):
            by_term.setdefault(term, set()).add(i)
        return EqualityType(atom.predicate, (frozenset(s) for s in by_term.values()))

    def canonical_atom(self, prefix: str = "s") -> Atom:
        """The canonical atom ``can(e)``: one fresh null per class.

        Class representatives are named deterministically from the class's
        minimum position so equal types yield equal canonical atoms.
        """
        terms: List[Term] = [None] * self.arity  # type: ignore[list-item]
        for cls in self.partition:
            null = Null(f"{prefix}{min(cls)}")
            for position in cls:
                terms[position - 1] = null
        return Atom(self.predicate, terms)

    def refines(self, other: "EqualityType") -> bool:
        """True iff every equality required by ``other`` also holds here."""
        if self.predicate != other.predicate or self.arity != other.arity:
            return False
        return all(
            self.same(i, j)
            for cls in other.partition
            for i in cls
            for j in cls
            if i < j
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, EqualityType)
            and self.predicate == other.predicate
            and self.partition == other.partition
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        groups = "|".join(
            ",".join(str(p) for p in sorted(cls)) for cls in self.partition
        )
        return f"et[{self.predicate}:{groups}]"


def enumerate_equality_types(predicate: str, arity: int) -> Iterator[EqualityType]:
    """All equality types of ``predicate`` with the given arity."""
    for partition in set_partitions(arity):
        yield EqualityType(predicate, partition)


class LabeledEqualityType:
    """A T-equality type ``(R, E, λ)`` (Appendix D.2).

    ``labels`` maps *some* classes of the partition, injectively, to
    hashable label values (standing for the terms of the reference set
    ``T``).  ``can(e)`` materializes labeled classes with their labels and
    unlabeled classes with fresh symbols; the automata never materialize,
    they compare labels structurally.
    """

    __slots__ = ("etype", "labels", "_hash")

    def __init__(
        self,
        etype: EqualityType,
        labels: Dict[PositionClass, Hashable],
    ):
        label_items = []
        seen_labels = set()
        for cls, label in labels.items():
            cls = frozenset(cls)
            if cls not in etype.partition:
                raise ValueError(f"{set(cls)} is not a class of {etype}")
            if label in seen_labels:
                raise ValueError(f"label {label!r} used twice (λ must be injective)")
            seen_labels.add(label)
            label_items.append((cls, label))
        frozen_labels = frozenset(label_items)
        object.__setattr__(self, "etype", etype)
        object.__setattr__(self, "labels", dict(label_items))
        object.__setattr__(self, "_hash", hash((etype, frozen_labels)))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledEqualityType is immutable")

    @property
    def predicate(self) -> str:
        return self.etype.predicate

    @property
    def arity(self) -> int:
        return self.etype.arity

    def label_of_position(self, position: int) -> Optional[Hashable]:
        """The label of the class containing ``position`` (None if unlabeled)."""
        return self.labels.get(self.etype.class_of(position))

    def relabel(self, translate: Dict[Hashable, Hashable]) -> "LabeledEqualityType":
        """Push labels through a partial translation, dropping untranslated ones.

        This is the update step of the ``Θ`` state of ``A_qc``: when moving
        from atom ``α_j`` to ``α_{j+1}``, labels (terms of ``α_j``) survive
        only if the term survives into ``α_{j+1}``, under its new identity.
        """
        new_labels = {
            cls: translate[label]
            for cls, label in self.labels.items()
            if label in translate
        }
        return LabeledEqualityType(self.etype, new_labels)

    @staticmethod
    def of_atom_relative(atom: Atom, reference: Atom) -> "LabeledEqualityType":
        """``et_T(α)`` where ``T`` is the term set of ``reference``.

        Labels are the classes of ``et(reference)`` — the canonical stand-in
        for "which term of the reference atom this is".
        """
        etype = EqualityType.of_atom(atom)
        ref_type = EqualityType.of_atom(reference)
        ref_class_of_term: Dict[Term, PositionClass] = {}
        for i, term in enumerate(reference.terms, start=1):
            ref_class_of_term[term] = ref_type.class_of(i)
        labels: Dict[PositionClass, Hashable] = {}
        for cls in etype.partition:
            term = atom[min(cls)]
            if term in ref_class_of_term:
                labels[cls] = ref_class_of_term[term]
        return LabeledEqualityType(etype, labels)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, LabeledEqualityType)
            and self.etype == other.etype
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for cls in self.etype.partition:
            tag = ",".join(str(p) for p in sorted(cls))
            label = self.labels.get(cls)
            parts.append(f"{tag}={label!r}" if label is not None else tag)
        return f"etT[{self.predicate}:{'|'.join(parts)}]"
