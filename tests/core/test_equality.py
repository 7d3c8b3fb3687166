"""Unit tests for repro.core.equality (equality types, Appendix A/D.2)."""

import pytest

from repro.core.atoms import Atom
from repro.core.equality import (
    EqualityType,
    LabeledEqualityType,
    enumerate_equality_types,
    set_partitions,
)
from repro.core.terms import Constant, Null

A, B = Constant("a"), Constant("b")


class TestSetPartitions:
    def test_bell_numbers(self):
        # B(0..5) = 1, 1, 2, 5, 15, 52
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(list(set_partitions(n))) == bell

    def test_partitions_cover_exactly(self):
        for partition in set_partitions(3):
            covered = sorted(p for cls in partition for p in cls)
            assert covered == [1, 2, 3]

    def test_partitions_distinct(self):
        partitions = [frozenset(p) for p in set_partitions(4)]
        assert len(partitions) == len(set(partitions))


class TestEqualityType:
    def test_of_atom(self):
        et = EqualityType.of_atom(Atom("R", [A, B, A]))
        assert et.same(1, 3)
        assert not et.same(1, 2)
        assert et.arity == 3

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            EqualityType("R", [frozenset({1}), frozenset({3})])
        with pytest.raises(ValueError):
            EqualityType("R", [frozenset({1, 2}), frozenset({2})])

    def test_class_of(self):
        et = EqualityType.of_atom(Atom("R", [A, A, B]))
        assert et.class_of(1) == frozenset({1, 2})
        with pytest.raises(IndexError):
            et.class_of(4)

    def test_canonical_atom_realizes_type(self):
        et = EqualityType("R", [frozenset({1, 3}), frozenset({2})])
        can = et.canonical_atom()
        assert can.at(1) == can.at(3)
        assert can.at(1) != can.at(2)
        assert EqualityType.of_atom(can) == et

    def test_refines(self):
        finer = EqualityType.of_atom(Atom("R", [A, A, A]))
        coarser = EqualityType.of_atom(Atom("R", [A, A, B]))
        assert finer.refines(coarser)
        assert not coarser.refines(finer)
        assert coarser.refines(coarser)

    def test_refines_requires_same_predicate(self):
        assert not EqualityType.of_atom(Atom("R", [A])).refines(
            EqualityType.of_atom(Atom("S", [A]))
        )

    def test_enumerate(self):
        types = list(enumerate_equality_types("R", 3))
        assert len(types) == 5
        assert len(set(types)) == 5

    def test_hash_equality(self):
        e1 = EqualityType.of_atom(Atom("R", [A, B]))
        e2 = EqualityType("R", [frozenset({1}), frozenset({2})])
        assert e1 == e2 and hash(e1) == hash(e2)

    def test_immutable(self):
        et = EqualityType.of_atom(Atom("R", [A]))
        with pytest.raises(AttributeError):
            et.predicate = "S"  # type: ignore[misc]


class TestLabeledEqualityType:
    def test_labels_must_be_classes(self):
        et = EqualityType.of_atom(Atom("R", [A, B]))
        with pytest.raises(ValueError):
            LabeledEqualityType(et, {frozenset({1, 2}): "t"})

    def test_labels_injective(self):
        et = EqualityType.of_atom(Atom("R", [A, B]))
        with pytest.raises(ValueError):
            LabeledEqualityType(
                et, {frozenset({1}): "t", frozenset({2}): "t"}
            )

    def test_label_of_position(self):
        et = EqualityType.of_atom(Atom("R", [A, A, B]))
        labeled = LabeledEqualityType(et, {frozenset({1, 2}): "u"})
        assert labeled.label_of_position(1) == "u"
        assert labeled.label_of_position(2) == "u"
        assert labeled.label_of_position(3) is None

    def test_relabel_drops_untranslated(self):
        et = EqualityType.of_atom(Atom("R", [A, B]))
        labeled = LabeledEqualityType(
            et, {frozenset({1}): "u", frozenset({2}): "v"}
        )
        pushed = labeled.relabel({"u": "w"})
        assert pushed.label_of_position(1) == "w"
        assert pushed.label_of_position(2) is None

    def test_of_atom_relative(self):
        atom = Atom("R", [Null("n"), Constant("a")])
        reference = Atom("S", [Constant("a"), Constant("c")])
        labeled = LabeledEqualityType.of_atom_relative(atom, reference)
        # 'a' occurs in the reference at class {1}; 'n' does not occur.
        ref_type = EqualityType.of_atom(reference)
        assert labeled.label_of_position(2) == ref_type.class_of(1)
        assert labeled.label_of_position(1) is None

    def test_hash_equality(self):
        et = EqualityType.of_atom(Atom("R", [A, B]))
        l1 = LabeledEqualityType(et, {frozenset({1}): "u"})
        l2 = LabeledEqualityType(et, {frozenset({1}): "u"})
        assert l1 == l2 and hash(l1) == hash(l2)
