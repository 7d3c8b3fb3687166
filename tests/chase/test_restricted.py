"""Unit tests for the restricted chase engine."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.restricted import (
    SearchBudgetExceeded,
    all_derivations_terminate,
    chase_terminates,
    exists_derivation_of_length,
    restricted_chase,
    restricted_chase_naive,
)
from repro.chase.oblivious import satisfies_all
from repro.tgds.tgd import parse_tgds


class TestBasicRuns:
    def test_intro_example_zero_steps(self, intro_tgds, intro_database):
        result = restricted_chase(intro_database, intro_tgds)
        assert result.terminated
        assert result.steps == 0
        assert len(result.instance) == 1

    def test_result_satisfies_tgds(self, example_32_tgds, example_32_database):
        result = restricted_chase(example_32_database, example_32_tgds)
        assert result.terminated
        assert satisfies_all(result.instance, example_32_tgds)

    def test_example_32_instance(self, example_32_tgds, example_32_database):
        result = restricted_chase(example_32_database, example_32_tgds)
        predicates = sorted(a.predicate for a in result.instance)
        assert predicates == ["P", "R", "S"]

    def test_divergence_cut_off(self, diverging_linear):
        result = restricted_chase(
            parse_database("R(a,b)"), diverging_linear, max_steps=25
        )
        assert not result.terminated
        assert result.steps == 25

    def test_derivation_recorded_and_valid(self, example_32_tgds, example_32_database):
        result = restricted_chase(example_32_database, example_32_tgds)
        result.derivation.validate(example_32_tgds, require_terminal=True)

    @pytest.mark.parametrize("strategy", ["fifo", "lifo", "semi_naive"])
    def test_fixpoint_exactly_at_max_steps_terminates(self, strategy):
        # One step applies R(a,b)'s trigger; its S(a,z) makes R(a,c)'s
        # trigger stale, so the run is at a fixpoint when the cap binds.
        database = parse_database("R(a,b), R(a,c)")
        tgds = parse_tgds(["R(x,y) -> S(x,z)"])
        result = restricted_chase(database, tgds, strategy=strategy, max_steps=1)
        reference = restricted_chase_naive(database, tgds, max_steps=1)
        assert reference.terminated
        assert result.terminated
        assert result.steps == reference.steps == 1
        assert len(result.instance) == len(reference.instance) == 3

    def test_chase_terminates_helper(self, intro_tgds, intro_database):
        assert chase_terminates(intro_database, intro_tgds)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["fifo", "lifo", "random"])
    def test_all_strategies_valid(self, strategy, example_32_tgds, example_32_database):
        result = restricted_chase(
            example_32_database, example_32_tgds, strategy=strategy, seed=5
        )
        assert result.terminated
        result.derivation.validate(example_32_tgds)

    def test_random_seeded_reproducible(self, example_56_tgds, example_56_database):
        r1 = restricted_chase(
            example_56_database, example_56_tgds, strategy="random", seed=3, max_steps=10
        )
        r2 = restricted_chase(
            example_56_database, example_56_tgds, strategy="random", seed=3, max_steps=10
        )
        assert [t.key for t in r1.derivation.steps] == [t.key for t in r2.derivation.steps]

    def test_custom_strategy_callable(self, example_32_tgds, example_32_database):
        result = restricted_chase(
            example_32_database, example_32_tgds, strategy=lambda pending, inst: 0
        )
        assert result.terminated

    def test_unknown_strategy(self, intro_tgds, intro_database):
        with pytest.raises(ValueError):
            restricted_chase(intro_database, intro_tgds, strategy="nope")

    def test_strategies_may_differ_in_path_not_result(
        self, example_32_tgds, example_32_database
    ):
        fifo = restricted_chase(example_32_database, example_32_tgds, strategy="fifo")
        lifo = restricted_chase(example_32_database, example_32_tgds, strategy="lifo")
        # Different orders, same fixpoint semantics up to null naming:
        # both satisfy the TGDs and contain the database.
        for result in (fifo, lifo):
            assert satisfies_all(result.instance, example_32_tgds)


class TestDerivationSearch:
    def test_exists_short_derivation(self, example_56_tgds, example_56_database):
        found = exists_derivation_of_length(example_56_database, example_56_tgds, 5)
        assert found is not None
        found.validate(example_56_tgds)

    def test_no_derivation_when_satisfied(self, intro_tgds, intro_database):
        assert exists_derivation_of_length(intro_database, intro_tgds, 1) is None

    def test_example_56_needs_both_atoms(self, example_56_tgds):
        # {R(a,b)} alone has no active trigger at all (Example 5.6).
        assert (
            exists_derivation_of_length(parse_database("R(a,b)"), example_56_tgds, 1)
            is None
        )

    def test_all_derivations_terminate_positive(self, intro_tgds, intro_database):
        assert all_derivations_terminate(intro_database, intro_tgds, max_steps=5)

    def test_all_derivations_terminate_negative(self, diverging_linear):
        assert not all_derivations_terminate(
            parse_database("R(a,b)"), diverging_linear, max_steps=10
        )

    def test_budget_exceeded_raises(self, diverging_linear):
        with pytest.raises(SearchBudgetExceeded):
            exists_derivation_of_length(
                parse_database("R(a,b)"),
                parse_tgds(["R(x,y) -> R(y,z)", "R(x,y) -> R(x,w)"]),
                10_000,
                max_nodes=50,
            )

    def test_order_dependence_showcase(self):
        # The classic non-deterministic set (Section 1.2): R(x,y) -> ∃z
        # R(y,z) plus R(x,y) -> R(y,x).  Applying the full rule first
        # satisfies everything (FIFO terminates in one step); greedily
        # chasing the newest existential atom diverges (LIFO).
        tgds = parse_tgds(["R(x,y) -> R(y,z)", "R(x,y) -> R(y,x)"])
        db = parse_database("R(a,b)")
        fifo = restricted_chase(db, tgds, strategy="fifo", max_steps=20)
        lifo = restricted_chase(db, tgds, strategy="lifo", max_steps=20)
        assert fifo.terminated and fifo.steps == 1
        assert not lifo.terminated
        assert exists_derivation_of_length(db, tgds, 15) is not None
