"""Equivalence of the naive and incremental restricted chase engines."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.oblivious import satisfies_all
from repro.chase.restricted import restricted_chase, restricted_chase_naive
from repro.tgds.generators import GeneratorProfile, random_guarded_set
from repro.guarded.decision import canonical_body_database


class TestNaiveEngine:
    def test_terminating_example(self, example_32_tgds, example_32_database):
        naive = restricted_chase_naive(example_32_database, example_32_tgds)
        incremental = restricted_chase(example_32_database, example_32_tgds)
        assert naive.terminated and incremental.terminated
        assert satisfies_all(naive.instance, example_32_tgds)

    def test_cut_off_reported(self, diverging_linear):
        result = restricted_chase_naive(
            parse_database("R(a,b)"), diverging_linear, max_steps=5
        )
        assert not result.terminated
        assert result.steps == 5

    def test_derivations_validate(self, example_56_tgds, example_56_database):
        result = restricted_chase_naive(
            example_56_database, example_56_tgds, max_steps=6
        )
        result.derivation.validate(example_56_tgds)

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_on_random_guarded_sets(self, seed):
        profile = GeneratorProfile(num_predicates=2, max_arity=2, num_tgds=2)
        tgds = random_guarded_set(seed * 13 + 1, profile)
        database = canonical_body_database(tgds[0])
        naive = restricted_chase_naive(database, tgds, max_steps=40)
        incremental = restricted_chase(database, tgds, max_steps=40)
        assert naive.terminated == incremental.terminated
        if naive.terminated:
            # Both reach a model; same step counts (every step adds an atom).
            assert naive.steps == incremental.steps
            assert satisfies_all(naive.instance, tgds)
            assert satisfies_all(incremental.instance, tgds)
