"""Tests for the Fairness Theorem machinery (Section 4, Example B.1)."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.fairness import (
    FairnessError,
    derivation_prefix,
    everlasting_triggers,
    fairness_round,
    is_fair_up_to,
    lemma_4_4_stop_set,
    make_fair,
)
from repro.chase.multihead import example_b1_tgds, multihead_restricted_chase
from repro.chase.restricted import restricted_chase
from repro.tgds.tgd import parse_tgds


@pytest.fixture
def starving_setup():
    """LIFO starves ``A(x) -> B(x)`` while the R-chain grows forever."""
    tgds = parse_tgds(["R(x,y) -> R(y,z)", "A(x) -> B(x)"])
    db = parse_database("R(a,b), A(a)")
    return tgds, db


class TestUnfairnessDetection:
    def test_lifo_is_unfair(self, starving_setup):
        tgds, db = starving_setup
        prefix = derivation_prefix(db, tgds, "lifo", length=12)
        witnesses = everlasting_triggers(prefix, tgds)
        assert witnesses
        first_index, trigger = witnesses[0]
        assert trigger.tgd.name == "s2"
        assert first_index == 0

    def test_terminating_input_raises(self, intro_tgds, intro_database):
        with pytest.raises(FairnessError, match="terminated"):
            derivation_prefix(intro_database, intro_tgds, "fifo", length=5)

    def test_lemma_4_4_stop_set_finite_and_correct(self, starving_setup):
        tgds, db = starving_setup
        prefix = derivation_prefix(db, tgds, "lifo", length=12)
        _, candidate = everlasting_triggers(prefix, tgds)[0]
        stop_set = lemma_4_4_stop_set(prefix, candidate)
        # B(a) stops nothing on the R-chain.
        assert stop_set == []


class TestFairnessRound:
    def test_one_round_splices_starved_trigger(self, starving_setup):
        tgds, db = starving_setup
        prefix = derivation_prefix(db, tgds, "lifo", length=12)
        repaired, changed = fairness_round(prefix, tgds, round_number=0)
        assert changed
        assert len(repaired.steps) == len(prefix.steps) + 1
        repaired.validate(tgds)
        names = [t.tgd.name for t in repaired.steps]
        assert "s2" in names

    def test_round_on_fair_prefix_is_noop(self, example_32_tgds, example_32_database):
        result = restricted_chase(example_32_database, example_32_tgds)
        repaired, changed = fairness_round(result.derivation, example_32_tgds)
        assert not changed
        assert repaired is result.derivation


class TestMakeFair:
    def test_make_fair_repairs_lifo(self, starving_setup):
        tgds, db = starving_setup
        prefix = derivation_prefix(db, tgds, "lifo", length=12)
        assert not is_fair_up_to(prefix, tgds)
        fair = make_fair(prefix, tgds)
        assert is_fair_up_to(fair, tgds, horizon=len(prefix.steps) // 2)
        fair.validate(tgds)

    def test_make_fair_preserves_length_growth(self, starving_setup):
        tgds, db = starving_setup
        prefix = derivation_prefix(db, tgds, "lifo", length=10)
        fair = make_fair(prefix, tgds)
        assert len(fair.steps) >= len(prefix.steps)

    def test_multiple_starved_triggers(self):
        tgds = parse_tgds(["R(x,y) -> R(y,z)", "A(x) -> B(x)", "A(x) -> C(x)"])
        db = parse_database("R(a,b), A(a)")
        prefix = derivation_prefix(db, tgds, "lifo", length=14)
        fair = make_fair(prefix, tgds)
        assert is_fair_up_to(fair, tgds, horizon=len(prefix.steps) // 2)
        names = {t.tgd.name for t in fair.steps}
        assert {"s2", "s3"} <= names


class TestMultiHeadCounterexample:
    """Example B.1: the Fairness Theorem fails for multi-head TGDs.

    There is an infinite derivation (always apply the first TGD) but every
    fair derivation is finite — fairness forces deactivating σ2 on
    R(a,b,b), which requires adding R(b,b,b), after which nothing is
    active.  Contrast with the single-head Fairness Theorem above.
    """

    def test_infinite_unfair_derivation(self):
        tgds = example_b1_tgds()
        result = multihead_restricted_chase(
            parse_database("R(a,b,b)"), tgds, strategy=0, max_steps=15
        )
        assert not result.terminated

    def test_fair_obligation_terminates_everything(self):
        from repro.chase.multihead import multihead_exists_derivation_of_length

        tgds = example_b1_tgds()
        # The only way to deactivate σ2's trigger on R(a,b,b) is R(b,b,b);
        # from that point no derivation reaches length 30.
        db = parse_database("R(a,b,b), R(b,b,b)")
        assert (
            multihead_exists_derivation_of_length(db, tgds, 30, max_nodes=20_000)
            is None
        )
