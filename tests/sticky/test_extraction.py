"""Tests for caterpillar extraction from derivations (§6.2 Steps 1–2)."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.restricted import restricted_chase
from repro.sticky.extraction import (
    ExtractionError,
    TermGenealogy,
    extract_proto_caterpillar,
)
from repro.tgds.tgd import parse_tgds


@pytest.fixture
def shift_run(diverging_linear):
    db = parse_database("R(a,b)")
    run = restricted_chase(db, diverging_linear, strategy="lifo", max_steps=12)
    return db, diverging_linear, run.derivation


class TestTermGenealogy:
    def test_birth_steps_monotone(self, shift_run):
        db, tgds, derivation = shift_run
        genealogy = TermGenealogy(db, derivation)
        births = sorted(genealogy.birth_step.values())
        assert births == list(range(len(derivation.steps)))

    def test_ranks_increase_along_chain(self, shift_run):
        db, tgds, derivation = shift_run
        genealogy = TermGenealogy(db, derivation)
        chain = genealogy.longest_favourite_chain()
        ranks = [genealogy.rank(term) for term in chain]
        assert ranks == list(range(len(chain)))

    def test_database_terms_rank_zero(self, shift_run):
        db, tgds, derivation = shift_run
        genealogy = TermGenealogy(db, derivation)
        assert all(genealogy.rank(t) == 0 for t in db.domain())

    def test_favourite_parent_has_rank_minus_one(self, shift_run):
        db, tgds, derivation = shift_run
        genealogy = TermGenealogy(db, derivation)
        for null in genealogy.birth_step:
            parent = genealogy.favourite_parent(null)
            if parent is not None:
                assert genealogy.rank(parent) == genealogy.rank(null) - 1

    def test_term_parents_are_frontier_terms(self, shift_run):
        db, tgds, derivation = shift_run
        genealogy = TermGenealogy(db, derivation)
        for null, step in genealogy.birth_step.items():
            trigger = derivation.steps[step]
            assert genealogy.term_parents(null) == set(
                trigger.result_frontier_terms()
            )


class TestExtraction:
    def test_shift_chain_yields_valid_proto(self, shift_run):
        db, tgds, derivation = shift_run
        prefix, births, positions = extract_proto_caterpillar(db, tgds, derivation)
        assert prefix.proto_violations() == []
        assert prefix.caterpillar_violations() == []
        assert prefix.connectedness_violations(births, positions) == []

    def test_births_aligned(self, shift_run):
        db, tgds, derivation = shift_run
        prefix, births, positions = extract_proto_caterpillar(db, tgds, derivation)
        assert births[0] == 0
        assert len(births) == len(positions)
        for step, posset in zip(births, positions):
            atom = prefix.body[step]
            terms = {atom[p] for p in posset}
            assert len(terms) == 1

    def test_with_side_legs(self):
        tgds = parse_tgds(["A(x), R(x,y) -> R(y,z)", "R(x,y) -> A(y)"])
        db = parse_database("A(a), R(a,b)")
        run = restricted_chase(db, tgds, strategy="lifo", max_steps=16)
        prefix, births, positions = extract_proto_caterpillar(db, tgds, run.derivation)
        assert prefix.proto_violations() == []
        assert prefix.connectedness_violations(births, positions) == []
        assert prefix.legs  # the A-atoms feed the R-chain from the side

    def test_too_short_prefix_raises(self, diverging_linear):
        db = parse_database("R(a,b)")
        run = restricted_chase(db, diverging_linear, max_steps=1)
        with pytest.raises(ExtractionError):
            extract_proto_caterpillar(db, diverging_linear, run.derivation, min_chain=5)

    def test_terminating_set_has_no_chain(self, intro_tgds, intro_database):
        run = restricted_chase(intro_database, intro_tgds)
        with pytest.raises(ExtractionError):
            extract_proto_caterpillar(intro_database, intro_tgds, run.derivation)
