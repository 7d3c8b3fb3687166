"""Unit tests for the oblivious chase (Section 3.1)."""

from repro.core.parsing import parse_database
from repro.chase.oblivious import oblivious_chase, satisfies_all
from repro.chase.restricted import restricted_chase
from repro.tgds.tgd import parse_tgds


class TestExample32:
    def test_fixpoint_atoms(self, example_32_tgds, example_32_database):
        """The oblivious chase of Example 3.2 is exactly
        {P(a,b), R(a,b), S(a), R(a,c)} with one null c."""
        result = oblivious_chase(example_32_database, example_32_tgds)
        assert result.terminated
        assert len(result.instance) == 4
        predicates = sorted(a.predicate for a in result.instance)
        assert predicates == ["P", "R", "R", "S"]
        nulls = result.instance.nulls()
        assert len(nulls) == 1

    def test_unique_fixpoint(self, example_32_tgds, example_32_database):
        r1 = oblivious_chase(example_32_database, example_32_tgds)
        r2 = oblivious_chase(example_32_database, example_32_tgds)
        assert r1.instance == r2.instance

    def test_satisfies_all(self, example_32_tgds, example_32_database):
        result = oblivious_chase(example_32_database, example_32_tgds)
        assert satisfies_all(result.instance, example_32_tgds)


class TestIntroExample:
    def test_oblivious_diverges(self, intro_tgds, intro_database):
        result = oblivious_chase(intro_database, intro_tgds, max_atoms=30, max_rounds=50)
        assert not result.terminated
        assert len(result.instance) > 30

    def test_restricted_contained_in_oblivious(
        self, example_32_tgds, example_32_database
    ):
        oblivious = oblivious_chase(example_32_database, example_32_tgds)
        restricted = restricted_chase(example_32_database, example_32_tgds)
        assert set(restricted.instance) <= set(oblivious.instance)

    def test_restricted_strictly_smaller_when_witnessed(
        self, intro_tgds, intro_database
    ):
        restricted = restricted_chase(intro_database, intro_tgds)
        assert len(restricted.instance) == 1


class TestBounds:
    def test_round_bound(self, diverging_linear):
        result = oblivious_chase(
            parse_database("R(a,b)"), diverging_linear, max_rounds=3, max_atoms=10_000
        )
        assert not result.terminated
        assert result.rounds == 3

    def test_terminates_helper(self):
        tgds = parse_tgds(["P(x) -> Q(x)"])
        assert oblivious_chase(parse_database("P(a)"), tgds).terminated

    def test_empty_database(self, intro_tgds):
        result = oblivious_chase(parse_database([]), intro_tgds)
        assert result.terminated
        assert len(result.instance) == 0

    def test_applications_counted(self, example_32_tgds, example_32_database):
        result = oblivious_chase(example_32_database, example_32_tgds)
        assert result.applications == 3  # R(a,b), S(a), R(a,c)
