"""Unit tests for repro.chase.trigger (Definition 3.1)."""

import pytest

from repro.core.atoms import Atom
from repro.core.parsing import parse_database, parse_instance
from repro.core.terms import Constant, Variable
from repro.chase.trigger import (
    Trigger,
    active_triggers_on,
    apply_trigger,
    is_active,
    new_triggers,
    satisfies_head,
    triggers_on,
)
from repro.tgds.tgd import TGD

X, Y = Variable("x"), Variable("y")
A, B = Constant("a"), Constant("b")


def trig(rule, **binding):
    tgd = TGD.parse(rule)
    return Trigger(tgd, {Variable(k): v for k, v in binding.items()})


class TestResult:
    def test_frontier_propagated(self):
        t = trig("R(x,y) -> S(x)", x=A, y=B)
        assert t.result() == Atom("S", [A])

    def test_existential_invents_null(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        result = t.result()
        assert result[1] == A
        assert result[2].is_null

    def test_null_naming_deterministic(self):
        t1 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        t2 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert t1.result() == t2.result()

    def test_different_binding_different_null(self):
        t1 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        t2 = trig("R(x,y) -> S(x,z)", x=A, y=A)
        assert t1.result()[2] != t2.result()[2]

    def test_repeated_existential_same_null(self):
        t = trig("R(x) -> S(z,z,x)", x=A)
        result = t.result()
        assert result[1] == result[2]

    def test_distinct_existentials_distinct_nulls(self):
        t = trig("R(x) -> S(z,w)", x=A)
        assert t.result()[1] != t.result()[2]

    def test_frontier_terms(self):
        t = trig("R(x,y) -> S(x,z,x)", x=A, y=B)
        assert t.result_frontier_terms() == {A}

    def test_missing_binding_rejected(self):
        with pytest.raises(ValueError):
            Trigger(TGD.parse("R(x,y) -> S(x)"), {X: A})

    def test_body_image(self):
        t = trig("R(x,y) -> S(x)", x=A, y=B)
        assert t.body_image() == [Atom("R", [A, B])]

    def test_key_equality(self):
        assert trig("R(x,y) -> S(x)", x=A, y=B) == trig("R(x,y) -> S(x)", x=A, y=B)
        assert trig("R(x,y) -> S(x)", x=A, y=B) != trig("R(x,y) -> S(x)", x=B, y=A)


class TestActive:
    def test_active_when_unwitnessed(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert is_active(t, parse_database("R(a,b)"))

    def test_inactive_when_witnessed(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert not is_active(t, parse_database("R(a,b), S(a,c)"))

    def test_witness_must_fix_frontier(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert is_active(t, parse_database("R(a,b), S(b,c)"))

    def test_repeated_existential_needs_consistent_witness(self):
        t = trig("R(x) -> S(z,z)", x=A)
        assert is_active(t, parse_database("R(a), S(b,c)"))
        assert not is_active(t, parse_database("R(a), S(b,b)"))

    def test_intro_example_not_active(self, intro_tgds, intro_database):
        # R(a,b) satisfies R(x,y) -> ∃z R(x,z) already.
        (t,) = list(triggers_on(intro_tgds, intro_database))
        assert not is_active(t, intro_database)

    def test_satisfies_head_direct(self):
        tgd = TGD.parse("R(x,y) -> S(x,z)")
        assert satisfies_head(parse_database("S(a,c)"), tgd, {X: A})
        assert not satisfies_head(parse_database("S(b,c)"), tgd, {X: A})


class TestEnumeration:
    def test_triggers_on(self):
        tgds = [TGD.parse("R(x,y) -> S(x)")]
        found = list(triggers_on(tgds, parse_database("R(a,b), R(b,a)")))
        assert len(found) == 2

    def test_active_triggers_on(self):
        tgds = [TGD.parse("R(x,y) -> S(x)")]
        db = parse_database("R(a,b), R(b,a), S(a)")
        active = list(active_triggers_on(tgds, db))
        assert len(active) == 1
        assert active[0].h[X] == B

    def test_new_triggers_only_touching(self):
        tgds = [TGD.parse("R(x,y), R(y,x) -> S(x)")]
        inst = parse_instance("R(a,b)")
        new_atom = Atom("R", [B, A])
        inst.add(new_atom)
        fresh = list(new_triggers(tgds, inst, [new_atom]))
        # Both homs use the new atom (as first or second body atom).
        assert len(fresh) == 2

    def test_new_triggers_empty_for_untouched(self):
        tgds = [TGD.parse("R(x,y) -> S(x)")]
        inst = parse_instance("R(a,b)")
        assert list(new_triggers(tgds, inst, [])) == []

    def test_apply_trigger(self):
        inst = parse_instance("R(a,b)")
        t = trig("R(x,y) -> S(x)", x=A, y=B)
        atom = apply_trigger(inst, t)
        assert atom in inst
