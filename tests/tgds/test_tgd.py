"""Unit tests for repro.tgds.tgd."""

import pytest

from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.tgds.tgd import TGD, MultiHeadTGD, max_arity, parse_tgds, schema_of

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestTGDBasics:
    def test_parse_and_fields(self):
        tgd = TGD.parse("R(x,y), P(y,z) -> T(x,y,w)")
        assert len(tgd.body) == 2
        assert tgd.head.predicate == "T"
        assert tgd.frontier == {X, Y}
        assert tgd.existential_variables == {W}

    def test_frontier_head_positions(self):
        tgd = TGD.parse("R(x,y) -> T(x,w,x)")
        assert tgd.frontier_head_positions() == frozenset({1, 3})

    def test_constants_rejected(self):
        with pytest.raises(ValueError):
            TGD([Atom("R", [Constant("a")])], Atom("S", [Constant("a")]))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            TGD([], Atom("S", [X]))

    def test_multi_head_text_rejected(self):
        with pytest.raises(ValueError):
            TGD.parse("R(x,y) -> S(x), S(y)")

    def test_immutable(self):
        tgd = TGD.parse("R(x,y) -> S(x)")
        with pytest.raises(AttributeError):
            tgd.head = None  # type: ignore[misc]

    def test_equality_and_hash(self):
        t1 = TGD.parse("R(x,y) -> S(x)")
        t2 = TGD.parse("R(x,y) -> S(x)", name="other")
        assert t1 == t2
        assert hash(t1) == hash(t2)

    def test_repr_shows_existentials(self):
        assert "∃" in repr(TGD.parse("R(x) -> S(x,z)"))

    def test_variable_sets(self):
        tgd = TGD.parse("R(x,y) -> S(y,z)")
        assert tgd.body_variables() == {X, Y}
        assert tgd.head_variables() == {Y, Z}
        assert tgd.variables() == {X, Y, Z}


class TestRenaming:
    def test_rename_apart(self):
        tgd = TGD.parse("R(x,y) -> S(y,z)")
        renamed = tgd.rename_apart("1")
        assert renamed.variables().isdisjoint(tgd.variables())
        assert renamed.head.predicate == "S"

    def test_rename_preserves_structure(self):
        tgd = TGD.parse("R(x,x) -> S(x,z)")
        renamed = tgd.rename_apart("7")
        head = renamed.head
        body_atom = renamed.body[0]
        assert body_atom.at(1) == body_atom.at(2) == head.at(1)
        assert len(renamed.existential_variables) == 1


class TestSetHelpers:
    def test_parse_tgds_names(self):
        tgds = parse_tgds(["R(x) -> S(x)", "S(x) -> T(x)"])
        assert [t.name for t in tgds] == ["s1", "s2"]

    def test_schema_of(self):
        tgds = parse_tgds(["R(x,y) -> S(x)", "S(x) -> T(x,y,z)"])
        schema = schema_of(tgds)
        assert schema.arity("T") == 3
        assert max_arity(tgds) == 3

    def test_schema_conflict_detected(self):
        with pytest.raises(ValueError):
            schema_of(parse_tgds(["R(x) -> S(x)", "R(x,y) -> S(x)"]))


class TestMultiHeadTGD:
    def test_parse(self):
        mh = MultiHeadTGD.parse("R(x,y,y) -> R(x,z,y), R(z,y,y)")
        assert len(mh.head) == 2
        assert Variable("z") in mh.existential_variables
        assert mh.frontier == {X, Y}

    def test_constants_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadTGD([Atom("R", [Constant("a")])], [Atom("S", [Constant("a")])])

    def test_equality(self):
        assert MultiHeadTGD.parse("R(x) -> S(x), T(x)") == MultiHeadTGD.parse(
            "R(x) -> S(x), T(x)"
        )

    def test_schema(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x), T(x,y)")
        assert mh.schema().arity("T") == 2
