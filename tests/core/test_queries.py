"""Unit tests for repro.core.queries."""

import pytest

from repro.core.parsing import parse_instance
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant


class TestConjunctiveQuery:
    def test_parse_and_evaluate(self):
        q = ConjunctiveQuery.parse("Q(x) :- R(x,y)")
        inst = parse_instance("R(a,b), R(b,c)")
        assert q.evaluate(inst) == {(Constant("a"),), (Constant("b"),)}

    def test_join_query(self):
        q = ConjunctiveQuery.parse("Q(x,z) :- R(x,y), R(y,z)")
        inst = parse_instance("R(a,b), R(b,c)")
        assert q.evaluate(inst) == {(Constant("a"), Constant("c"))}

    def test_certain_answers_drop_nulls(self):
        q = ConjunctiveQuery.parse("Q(x,y) :- R(x,y)")
        inst = parse_instance("R(a,?n), R(a,b)")
        assert q.certain_answers(inst) == {(Constant("a"), Constant("b"))}

    def test_holds_in(self):
        q = ConjunctiveQuery.parse("Q(x) :- R(x,x)")
        assert not q.holds_in(parse_instance("R(a,b)"))
        assert q.holds_in(parse_instance("R(a,a)"))

    def test_answer_var_must_occur(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery.parse("Q(z) :- R(x,y)")

    def test_repr_roundtrips_shape(self):
        q = ConjunctiveQuery.parse("Q(x) :- R(x,y)")
        assert "Q(x)" in repr(q)
