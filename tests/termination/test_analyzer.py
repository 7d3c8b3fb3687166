"""Tests for stage 4 of the portfolio: the decider dispatch ``decide``."""

from collections import Counter

import pytest

from repro.termination.portfolio import TerminationPortfolio, decide
from repro.termination.verdict import Status
from repro.tgds.tgd import parse_tgds


class TestDispatch:
    def test_sticky_route(self, diverging_linear):
        verdict = decide(diverging_linear)
        assert verdict.status == Status.NOT_ALL_TERMINATING
        assert verdict.method == "sticky-buchi"

    def test_guarded_route_for_non_sticky(self):
        # Guarded but not sticky: marked variable occurs twice in a body.
        tgds = parse_tgds(["R(x,y), A(x) -> R(y,z)", "R(x,y) -> A(y)", "A(x), R(x,x) -> B(x)"])
        from repro.tgds.stickiness import is_sticky
        from repro.tgds.guardedness import is_guarded

        if is_sticky(tgds) or not is_guarded(tgds):
            pytest.skip("example drifted")
        verdict = decide(tgds)
        assert verdict.status == Status.NOT_ALL_TERMINATING
        assert verdict.method == "guarded-replay"

    def test_general_route_certificates(self):
        # Neither guarded nor sticky; weakly acyclic.
        tgds = parse_tgds(["R(x,y), S(y,z) -> P(x,z)"])
        verdict = decide(tgds)
        assert verdict.status == Status.ALL_TERMINATING

    def test_general_route_divergence(self):
        # Neither guarded (3 variables over 2 body atoms) nor sticky (the
        # join variables are marked); diverges on its own body image.
        tgds = parse_tgds(["R(x,y), R(y,z) -> R(z,w)"])
        from repro.tgds.guardedness import is_guarded
        from repro.tgds.stickiness import is_sticky

        assert not is_guarded(tgds) and not is_sticky(tgds)
        verdict = decide(tgds)
        assert verdict.status == Status.NOT_ALL_TERMINATING
        assert verdict.method == "general-replay"
        verdict.certificate["witness"].derivation.validate(tgds)

    def test_intro_is_terminating(self, intro_tgds):
        assert decide(intro_tgds).status == Status.ALL_TERMINATING


class TestCorpus:
    def test_tally_sums(self):
        from repro.tgds.generators import corpus

        portfolio = TerminationPortfolio()
        sets = corpus("sticky", 6, base_seed=1)
        tally = Counter(portfolio.analyze(tgds).status for tgds in sets)
        assert sum(tally.values()) == 6

    def test_weakly_acyclic_corpus_all_terminate(self):
        from repro.tgds.generators import corpus

        portfolio = TerminationPortfolio()
        sets = corpus("weakly-acyclic", 5, base_seed=2)
        tally = Counter(portfolio.analyze(tgds).status for tgds in sets)
        assert tally[Status.ALL_TERMINATING] == 5
