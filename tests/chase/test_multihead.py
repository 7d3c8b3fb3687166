"""Unit tests for the multi-head chase (Example B.1 substrate)."""

import pytest

from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.multihead import (
    MultiHeadTrigger,
    active_multihead_triggers_on,
    example_b1_tgds,
    is_active_multihead,
    multihead_exists_derivation_of_length,
    multihead_restricted_chase,
)
from repro.tgds.tgd import MultiHeadTGD


class TestMultiHeadTrigger:
    def test_results_share_nulls(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x,z), T(z)")
        trigger = MultiHeadTrigger(mh, {v: Constant("a") for v in mh.frontier})
        s_atom, t_atom = trigger.results()
        assert s_atom.at(2) == t_atom.at(1)
        assert s_atom.at(2).is_null

    def test_deterministic_results(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x,z), T(z)")
        binding = {v: Constant("a") for v in mh.frontier}
        assert MultiHeadTrigger(mh, binding).results() == MultiHeadTrigger(
            mh, binding
        ).results()

    def test_active_needs_joint_witness(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x,z), T(z)")
        binding = {v: Constant("a") for v in mh.frontier}
        trigger = MultiHeadTrigger(mh, binding)
        # S and T witnesses exist but with inconsistent z values.
        assert is_active_multihead(trigger, parse_database("R(a), S(a,b), T(c)"))
        assert not is_active_multihead(trigger, parse_database("R(a), S(a,b), T(b)"))


class TestChaseRuns:
    def test_fifo_terminates_when_satisfied(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x), T(x)")
        result = multihead_restricted_chase(parse_database("R(a)"), [mh])
        assert result.terminated
        assert result.steps == 1

    def test_unknown_strategy(self):
        mh = MultiHeadTGD.parse("R(x) -> S(x)")
        with pytest.raises(ValueError):
            multihead_restricted_chase(parse_database("R(a)"), [mh], strategy="bad")

    @pytest.mark.parametrize("strategy", ["fifo", "semi_naive", "lifo", "random", 0])
    def test_fixpoint_at_exactly_max_steps_terminates(self, strategy):
        # The cap binds only while an active trigger remains.
        mh = MultiHeadTGD.parse("R(x,y) -> S(x), T(y)")
        result = multihead_restricted_chase(
            parse_database("R(a,b)"), [mh], strategy=strategy, max_steps=1, seed=0
        )
        assert result.steps == 1
        assert active_multihead_triggers_on([mh], result.instance) == []
        assert result.terminated

    @pytest.mark.parametrize("strategy", ["fifo", "semi_naive"])
    def test_cap_binds_while_an_active_trigger_remains(self, strategy):
        mh = MultiHeadTGD.parse("R(x,y) -> S(x), T(y)")
        result = multihead_restricted_chase(
            parse_database("R(a,b), R(c,d)"), [mh], strategy=strategy, max_steps=1
        )
        assert result.steps == 1 and not result.terminated


class TestExampleB1:
    def test_unfair_infinite_derivation_exists(self):
        """Always preferring the first TGD yields an ever-growing run."""
        tgds = example_b1_tgds()
        result = multihead_restricted_chase(
            parse_database("R(a,b,b)"), tgds, strategy=0, max_steps=12
        )
        assert not result.terminated
        assert all(t.tgd is tgds[0] for t in result.applied)

    def test_deactivation_kills_the_chain(self):
        """Once R(b,b,b) is added (deactivating σ2 on R(a,b,b) — what
        fairness forces), the whole chase terminates quickly."""
        tgds = example_b1_tgds()
        db = parse_database("R(a,b,b), R(b,b,b)")
        for strategy in ("fifo", "lifo", 0, 1):
            result = multihead_restricted_chase(db, tgds, strategy=strategy, max_steps=50)
            assert result.terminated

    def test_every_derivation_from_fair_point_is_finite(self):
        tgds = example_b1_tgds()
        db = parse_database("R(a,b,b), R(b,b,b)")
        assert (
            multihead_exists_derivation_of_length(db, tgds, 30, max_nodes=20_000)
            is None
        )

    def test_sigma2_active_initially(self):
        tgds = example_b1_tgds()
        db = parse_database("R(a,b,b)")
        active = active_multihead_triggers_on(tgds, db)
        assert any(t.tgd is tgds[1] for t in active)
