"""Unit tests for repro.core.instance."""

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable


def fact(*names, pred="R"):
    return Atom(pred, [Constant(n) for n in names])


class TestInstance:
    def test_add_and_contains(self):
        inst = Instance()
        assert inst.add(fact("a"))
        assert fact("a") in inst
        assert not inst.add(fact("a"))

    def test_variables_rejected(self):
        with pytest.raises(ValueError):
            Instance().add(Atom("R", [Variable("x")]))

    def test_non_atom_rejected(self):
        with pytest.raises(TypeError):
            Instance().add("R(a)")  # type: ignore[arg-type]

    def test_nulls_allowed(self):
        inst = Instance([Atom("R", [Null("n")])])
        assert len(inst) == 1

    def test_update_counts_new(self):
        inst = Instance([fact("a")])
        assert inst.update([fact("a"), fact("b")]) == 1

    def test_predicate_index(self):
        inst = Instance([fact("a"), fact("b", pred="S")])
        assert inst.with_predicate("R") == {fact("a")}
        assert inst.with_predicate("T") == set()

    def test_domain(self):
        inst = Instance([fact("a", "b")])
        assert inst.domain() == {Constant("a"), Constant("b")}

    def test_constants_and_nulls(self):
        inst = Instance([Atom("R", [Constant("a"), Null("n")])])
        assert inst.constants() == {Constant("a")}
        assert inst.nulls() == {Null("n")}

    def test_copy_independent(self):
        inst = Instance([fact("a")])
        clone = inst.copy()
        clone.add(fact("b"))
        assert fact("b") not in inst

    def test_equality_with_set(self):
        assert Instance([fact("a")]) == {fact("a")}
        assert Instance([fact("a")]) == Instance([fact("a")])

    def test_sorted_atoms_deterministic(self):
        inst = Instance([fact("b"), fact("a")])
        assert inst.sorted_atoms() == [fact("a"), fact("b")]

    def test_schema(self):
        inst = Instance([fact("a", "b")])
        assert inst.schema().arity("R") == 2

    def test_is_database(self):
        assert Instance([fact("a")]).is_database()
        assert not Instance([Atom("R", [Null("n")])]).is_database()


class TestDatabase:
    def test_facts_only(self):
        db = Database([fact("a")])
        assert len(db) == 1

    def test_null_rejected(self):
        with pytest.raises(ValueError):
            Database([Atom("R", [Null("n")])])

    def test_copy_type(self):
        assert isinstance(Database([fact("a")]).copy(), Database)
