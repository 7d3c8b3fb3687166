"""Unit tests for derivation recording and validation."""

import pytest

from repro.core.parsing import parse_database
from repro.core.terms import Constant, Variable
from repro.chase.derivation import Derivation, DerivationError
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger
from repro.tgds.tgd import TGD, parse_tgds

A, B = Constant("a"), Constant("b")


def make_trigger(rule, **binding):
    tgd = TGD.parse(rule)
    return Trigger(tgd, {Variable(k): v for k, v in binding.items()})


class TestRecording:
    def test_instances_sequence(self):
        db = parse_database("R(a,b)")
        trigger = make_trigger("R(x,y) -> S(x)", x=A, y=B)
        derivation = Derivation(db, [trigger])
        instances = list(derivation.instances())
        assert len(instances) == 2
        assert len(instances[0]) == 1
        assert len(instances[1]) == 2

    def test_instance_at(self):
        db = parse_database("R(a,b)")
        trigger = make_trigger("R(x,y) -> S(x)", x=A, y=B)
        derivation = Derivation(db, [trigger])
        assert len(derivation.instance_at(0)) == 1
        assert len(derivation.instance_at(1)) == 2
        with pytest.raises(IndexError):
            derivation.instance_at(2)

    def test_atoms_added(self):
        db = parse_database("R(a,b)")
        trigger = make_trigger("R(x,y) -> S(x)", x=A, y=B)
        assert Derivation(db, [trigger]).atoms_added() == [trigger.result()]

    def test_initial_copied(self):
        db = parse_database("R(a,b)")
        derivation = Derivation(db)
        db.add(parse_database("R(b,a)").sorted_atoms()[0])
        assert len(derivation.initial) == 1


class TestValidation:
    def test_valid_derivation(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        db = parse_database("R(a,b)")
        trigger = Trigger(tgds[0], {Variable("x"): A, Variable("y"): B})
        Derivation(db, [trigger]).validate(tgds, require_terminal=True)

    def test_unknown_tgd_rejected(self):
        db = parse_database("R(a,b)")
        trigger = make_trigger("R(x,y) -> S(x)", x=A, y=B)
        with pytest.raises(DerivationError, match="not in the set"):
            Derivation(db, [trigger]).validate(parse_tgds(["R(x,y) -> T(x)"]))

    def test_body_must_be_present(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        db = parse_database("R(a,b)")
        bad = Trigger(tgds[0], {Variable("x"): B, Variable("y"): A})
        with pytest.raises(DerivationError, match="not a trigger"):
            Derivation(db, [bad]).validate(tgds)

    def test_inactive_trigger_rejected(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        db = parse_database("R(a,b), S(a)")
        trigger = Trigger(tgds[0], {Variable("x"): A, Variable("y"): B})
        with pytest.raises(DerivationError, match="not active"):
            Derivation(db, [trigger]).validate(tgds)

    def test_non_terminal_detected(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        db = parse_database("R(a,b)")
        with pytest.raises(DerivationError, match="not terminal"):
            Derivation(db, []).validate(tgds, require_terminal=True)


class TestFairnessBookkeeping:
    def test_terminal_derivation_is_fair(self, example_32_tgds, example_32_database):
        result = restricted_chase(example_32_database, example_32_tgds)
        assert result.derivation.is_fair_prefix(example_32_tgds)

    def test_starved_trigger_detected(self):
        # LIFO on the order-dependent set leaves R(x,y) -> R(y,x) starving.
        tgds = parse_tgds(["R(x,y) -> R(y,z)", "R(x,y) -> R(y,x)"])
        db = parse_database("R(a,b)")
        result = restricted_chase(db, tgds, strategy="lifo", max_steps=10)
        suspects = result.derivation.persistent_active_triggers(tgds)
        assert suspects
        first_index, _ = suspects[0]
        assert first_index == 0
