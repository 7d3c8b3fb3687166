"""The cheap-first termination portfolio: soundness, determinism, budgets.

Obligations: the cascade never contradicts the decider-only ``decide`` on
the generator corpus, cheap settlements are real certificates, per-stage
outcomes land in ``ChaseStats.portfolio``, and a ``Budget`` cut inside
any stage surfaces as a ``Status.TIMEOUT`` verdict — never an exception.
"""

from repro.chase.checkpoint import Budget
from repro.obs.stats import ChaseStats
from repro.termination.critical import CRITICAL_METHOD
from repro.termination.portfolio import (
    PORTFOLIO_STAGES,
    TerminationPortfolio,
    decide,
    settled_cheaply,
)
from repro.termination.verdict import Status
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")

#: The paper's introductory rule: weakly acyclic, settles at stage 1.
TERMINATING = parse_tgds(["R(x, y) -> R(x, z)"])

#: Its diverging twin: walks every cascade stage down to the decider.
DIVERGING = parse_tgds(["R(x, y) -> R(y, z)"])


#: Methods of the verdicts that the certificate-or-pump prefix settles.
PREFIX_METHODS = ("full-tgds", "weak-acyclicity", "joint-acyclicity", CRITICAL_METHOD)


def contradicts(a, b):
    return (a.is_terminating and b.is_nonterminating) or (
        a.is_nonterminating and b.is_terminating
    )


class TestCorpusAgreement:
    def test_portfolio_never_contradicts_the_deciders(self):
        portfolio = TerminationPortfolio()
        for family in FAMILIES:
            for tgds in corpus(family, 3, profile=PROFILE):
                pv = portfolio.analyze(tgds)
                dv = decide(tgds)
                assert not contradicts(pv, dv), (family, pv, dv)

    def test_cheap_settlements_only_claim_termination(self):
        portfolio = TerminationPortfolio()
        for family in FAMILIES:
            for tgds in corpus(family, 3, base_seed=11, profile=PROFILE):
                verdict = portfolio.analyze(tgds)
                if settled_cheaply(verdict):
                    assert verdict.is_terminating

    def test_decider_stage_never_settles_in_its_certificate_prefix(self):
        # Stage 4's certificate-or-pump route opens with the whole-set
        # certificates and the whole-set critical chase.  Behind the
        # cascade neither can settle: the certificates are deterministic
        # and stage 1 already ran them, and a whole-set critical chase that
        # settles implies every layer's does, while the hierarchical stage
        # stopped at a layer that did not.
        portfolio = TerminationPortfolio()
        prefix_reached = 0
        for profile in (None, PROFILE):
            for family in FAMILIES:
                for tgds in corpus(family, 60, profile=profile):
                    stats = ChaseStats()
                    verdict = portfolio.analyze(tgds, stats=stats)
                    if stats.portfolio[-1]["stage"] != "decider":
                        continue
                    assert verdict.method not in PREFIX_METHODS, (family, tgds)
                    if not verdict.method.startswith("sticky-"):
                        prefix_reached += 1
        assert prefix_reached, "no corpus set reached the decider's prefix"


class TestCascade:
    def test_intro_example_settles_at_certificate(self):
        verdict = TerminationPortfolio().analyze(TERMINATING)
        assert verdict.is_terminating
        assert verdict.method == "portfolio-certificate"
        assert settled_cheaply(verdict)

    def test_diverging_twin_falls_through_to_the_decider(self):
        stats = ChaseStats()
        verdict = TerminationPortfolio().analyze(DIVERGING, stats=stats)
        assert verdict.is_nonterminating
        assert not verdict.method.startswith("portfolio-")
        assert not settled_cheaply(verdict)
        assert [entry["stage"] for entry in stats.portfolio] == list(
            PORTFOLIO_STAGES
        )
        assert [entry["outcome"] for entry in stats.portfolio[:3]] == [
            "undecided"
        ] * 3
        assert stats.portfolio[-1]["outcome"] == verdict.status
        assert stats.kind == "portfolio"

    def test_stratification_settles_acyclic_feedback(self):
        # Neither rule is self-feeding, so every SCC is a singleton and
        # trivially weakly acyclic — but give stage 2 something stage 1
        # cannot take: a set that is *not* weakly acyclic as a whole is
        # hard to build without a cycle, so instead pin the stage order:
        # a WA set settles at stage 1, never reaching stage 2.
        stats = ChaseStats()
        verdict = TerminationPortfolio().analyze(
            parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y, w)"]), stats=stats
        )
        assert verdict.is_terminating
        assert [entry["stage"] for entry in stats.portfolio] == ["certificate"]

    def test_stats_are_strictly_passive(self):
        bare = TerminationPortfolio().analyze(DIVERGING)
        with_stats = TerminationPortfolio().analyze(DIVERGING, stats=ChaseStats())
        assert (bare.status, bare.method) == (with_stats.status, with_stats.method)


class TestBudgets:
    def test_pre_exhausted_wall_budget_is_timeout_not_exception(self):
        verdict = TerminationPortfolio().analyze(DIVERGING, budget=Budget(wall_seconds=0))
        assert verdict.status == Status.TIMEOUT
        assert verdict.is_timeout
        assert verdict.method == "portfolio-budget"
        assert verdict.certificate["stage"] in PORTFOLIO_STAGES
        assert verdict.certificate["reason"].startswith("budget:")

    def test_atom_cut_inside_the_hierarchical_stage_is_timeout(self):
        # DIVERGING reaches stage 3, whose serial layer chase shares the
        # caller's budget; the critical-database oblivious run trips the
        # atom cap mid-stage.  The cut must render as TIMEOUT.
        verdict = TerminationPortfolio().analyze(DIVERGING, budget=Budget(max_atoms=2))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "portfolio-budget"
        assert verdict.certificate == {
            "stage": "hierarchical",
            "reason": "budget:atoms",
        }

    def test_application_cut_is_timeout_too(self):
        verdict = TerminationPortfolio().analyze(DIVERGING, budget=Budget(max_applications=2))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "portfolio-budget"
        assert verdict.certificate["reason"] == "budget:applications"

    def test_budget_cut_is_recorded_in_stats(self):
        stats = ChaseStats()
        TerminationPortfolio().analyze(DIVERGING, budget=Budget(max_atoms=2), stats=stats)
        assert stats.portfolio[-1]["stage"] == "hierarchical"
        assert stats.portfolio[-1]["outcome"] == "timeout"

    def test_ample_budget_changes_nothing(self):
        budget = Budget(wall_seconds=120, max_atoms=100_000)
        verdict = TerminationPortfolio().analyze(TERMINATING, budget=budget)
        assert verdict.method == "portfolio-certificate"


class TestLayerBudgets:
    def test_layer_checks_honour_the_whole_budget(self):
        # Two diverging layers: the first layer's critical chase trips the
        # atom cap, and the stage reports the cut.
        tgds = parse_tgds(["R(x,y) -> R(y,z)", "S(x,y) -> S(y,z)"])
        verdict = TerminationPortfolio().analyze(tgds, budget=Budget(max_atoms=2))
        assert verdict.status == Status.TIMEOUT
        assert verdict.certificate == {
            "stage": "hierarchical",
            "reason": "budget:atoms",
        }


#: Generated sets pinned by (profile, family, seed) — reproducible by
#: construction — that the whole-set certificates of stage 1 miss but the
#: later cheap stages settle (the decider settles both via MFA, so the
#: cascade is the cheaper path).
WIDE_PROFILE = GeneratorProfile(
    num_predicates=3, max_arity=3, num_tgds=5, existential_probability=0.7
)
DEEP_PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=3, num_tgds=4, existential_probability=0.9
)


def stratification_set():
    return corpus("linear", 1, base_seed=21, profile=WIDE_PROFILE)[0]


def hierarchical_set():
    return corpus("linear", 1, base_seed=19, profile=DEEP_PROFILE)[0]


class TestLaterStagesSettle:
    def test_stratification_settles_what_certificates_miss(self):
        stats = ChaseStats()
        verdict = TerminationPortfolio().analyze(stratification_set(), stats=stats)
        assert verdict.is_terminating
        assert verdict.method == "portfolio-stratification"
        assert settled_cheaply(verdict)
        assert [entry["stage"] for entry in stats.portfolio] == [
            "certificate",
            "c-stratification",
        ]

    def test_hierarchical_settles_with_per_layer_certificates(self):
        stats = ChaseStats()
        verdict = TerminationPortfolio().analyze(hierarchical_set(), stats=stats)
        assert verdict.is_terminating
        assert verdict.method == "portfolio-hierarchical"
        assert settled_cheaply(verdict)
        certs = [layer["certificate"] for layer in verdict.certificate["layers"]]
        # At least one layer needed the bounded critical-database chase —
        # this set is genuinely beyond the syntactic certificates.
        assert "critical-chase" in certs
        assert stats.portfolio[-1]["stage"] == "hierarchical"
        assert stats.portfolio[-1]["outcome"] == "settled"

    def test_later_stage_settlements_agree_with_the_decider(self):
        for tgds in (stratification_set(), hierarchical_set()):
            pv = TerminationPortfolio().analyze(tgds)
            dv = decide(tgds)
            assert pv.is_terminating
            assert not contradicts(pv, dv)
