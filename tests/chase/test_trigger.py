"""Unit tests for repro.chase.trigger (Definition 3.1)."""

import gc
import pickle

import pytest

from repro.core.atoms import Atom
from repro.core.parsing import parse_database, parse_instance
from repro.core.terms import Constant, Variable
from repro.chase.engine import ChaseEngine
from repro.chase.plans import HeadKernel
from repro.chase.trigger import (
    Trigger,
    active_triggers_on,
    is_active,
    new_triggers,
    satisfies_head,
    triggers_on,
)
from repro.tgds.tgd import TGD, parse_tgds

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
        assert result.at(1) == A
        assert result.at(2).is_null

    def test_null_naming_deterministic(self):
        t1 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        t2 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert t1.result() == t2.result()

    def test_different_binding_different_null(self):
        t1 = trig("R(x,y) -> S(x,z)", x=A, y=B)
        t2 = trig("R(x,y) -> S(x,z)", x=A, y=A)
        assert t1.result().at(2) != t2.result().at(2)

    def test_repeated_existential_same_null(self):
        t = trig("R(x) -> S(z,z,x)", x=A)
        result = t.result()
        assert result.at(1) == result.at(2)

    def test_distinct_existentials_distinct_nulls(self):
        t = trig("R(x) -> S(z,w)", x=A)
        assert t.result().at(1) != t.result().at(2)

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


#: ``pickle.dumps(Trigger.from_row(s2, (a, b)), protocol=4)`` for ``s2`` of
#: :data:`GOLDEN_RULES`, as the slotted ``Trigger`` this tuple
#: representation replaced wrote it: checkpoints carry these bytes.
GOLDEN_PICKLE = bytes.fromhex(
    "80049504010000000000008c086275696c74696e73948c07676574617474729493948c13"
    "726570726f2e63686173652e74726967676572948c07547269676765729493948c086672"
    "6f6d5f726f7794869452948c0e726570726f2e746764732e746764948c03544744949394"
    "8c10726570726f2e636f72652e61746f6d73948c0441746f6d9493948c0146948c107265"
    "70726f2e636f72652e7465726d73948c085661726961626c659493948c01789485945294"
    "68128c017994859452948694869452948594680e8c014794681868128c01779485945294"
    "8694869452948c027332948794529468108c08436f6e7374616e749493948c0161948594"
    "529468288c016294859452948694869452942e"
)
GOLDEN_RULES = ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"]


def has_dict(trigger) -> bool:
    """Does the trigger hold an instance dict?  (Reading ``__dict__``
    would create one, so look at what the collector sees.)"""
    return any(isinstance(ref, dict) for ref in gc.get_referents(trigger))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every ``HeadKernel.result`` call, as the values it was given."""
    calls = []
    original = HeadKernel.result

    def counting(kernel, values):
        calls.append(values)
        return original(kernel, values)

    monkeypatch.setattr(HeadKernel, "result", counting)
    return calls


class TestTriggerContract:
    """A trigger is the row ``(tgd, values)``, immutable, with memos."""

    def test_setting_any_attribute_raises(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        t.result()
        for name in ("tgd", "values", "h", "key", "canonical_key", "_result", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert t.values == (A, B)

    def test_hash_is_the_rows_hash(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert hash(t) == hash((t.tgd, t.values))
        t.canonical_key
        assert hash(t) == hash((t.tgd, t.values))

    def test_equality_ignores_the_rule_name(self):
        first = TGD.parse("R(x,y) -> S(x,z)", name="first")
        second = TGD.parse("R(x,y) -> S(x,z)", name="second")
        one, other = Trigger.from_row(first, (A, B)), Trigger.from_row(second, (A, B))
        assert one == other and not one != other and hash(one) == hash(other)
        assert len({one, other}) == 1
        assert one.result() != other.result()  # the names feed the nulls
        assert one != Trigger.from_row(first, (B, A))

    def test_a_trigger_is_not_its_bare_tuple(self):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        row = (t.tgd, t.values)
        assert tuple(t) == row
        assert t != row and not t == row
        assert row != t and not row == t

    def test_result_runs_the_kernel_once(self, kernel_calls):
        t = trig("R(x,y) -> S(x,z)", x=A, y=B)
        assert not has_dict(t)
        first = t.result()
        assert t.result() is first
        assert kernel_calls == [(A, B)]
        assert has_dict(t)

    def test_round_reuses_a_memo_set_before_it(self, kernel_calls):
        # The critical chase's nesting monitor asks pending triggers for
        # their results before the round applies them.
        rules = parse_tgds(["R(x,y) -> S(y,z)", "S(x,y) -> T(x)"])
        engine = ChaseEngine(parse_database("R(a,b), R(b,c)"), rules)
        asked = engine.pending[0]
        memo = asked.result()
        kernel_calls.clear()
        result = engine.run_round()
        assert len(result.applied) == 2 and asked in result.applied
        assert any(atom is memo for atom in result.delta)
        assert len(kernel_calls) == 1 and asked.values not in kernel_calls
        # The round computes the others' results without memoizing them.
        assert not any(has_dict(t) for t in result.applied if t is not asked)

    def test_pickle_bytes_are_the_golden_row(self):
        rule = parse_tgds(GOLDEN_RULES)[1]
        t = Trigger.from_row(rule, (A, B))
        assert pickle.dumps(t, protocol=4) == GOLDEN_PICKLE
        t.result(), t.canonical_key, t.h
        assert pickle.dumps(t, protocol=4) == GOLDEN_PICKLE  # memos stay home
        back = pickle.loads(GOLDEN_PICKLE)
        assert type(back) is Trigger and back == t and back.tgd.name == "s2"
        assert back.result() == t.result()
