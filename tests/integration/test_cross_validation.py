"""Cross-component consistency checks."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.oblivious import oblivious_chase, satisfies_all
from repro.chase.restricted import restricted_chase
from repro.guarded.decision import decide_guarded
from repro.sticky.decision import decide_sticky
from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.verdict import Status
from repro.tgds.generators import (
    GeneratorProfile,
    corpus,
    random_guarded_set,
    random_linear_set,
    random_sticky_set,
)
from repro.tgds.guardedness import is_guarded
from repro.tgds.stickiness import is_sticky
from repro.tgds.tgd import parse_tgds


class TestEngineAgreement:
    """Restricted-chase atoms always live inside the oblivious chase."""

    @pytest.mark.parametrize("seed", range(6))
    def test_restricted_subset_of_oblivious(self, seed):
        tgds = corpus("guarded", 1, base_seed=seed * 31)[0]
        database = parse_database("P0(c0,c1,c2)"[: 0] or [])
        # Build a small database covering the body of the first TGD.
        from repro.guarded.decision import canonical_body_database

        database = canonical_body_database(tgds[0])
        restricted = restricted_chase(database, tgds, max_steps=30)
        oblivious = oblivious_chase(database, tgds, max_atoms=3000, max_rounds=30)
        if oblivious.terminated:
            assert set(restricted.instance) <= set(oblivious.instance)

    @pytest.mark.parametrize("seed", range(6))
    def test_terminated_chase_is_a_model(self, seed):
        tgds = corpus("weakly-acyclic", 1, base_seed=seed * 17)[0]
        from repro.guarded.decision import canonical_body_database

        database = canonical_body_database(tgds[0])
        result = restricted_chase(database, tgds, max_steps=3000)
        assert result.terminated
        assert satisfies_all(result.instance, tgds)
        result.derivation.validate(tgds, require_terminal=True)


class TestDecisionAgreement:
    """On sets that are both guarded and sticky, the two procedures agree
    whenever the guarded side is not UNKNOWN."""

    CASES = [
        ["R(x,y) -> R(x,z)"],
        ["R(x,y) -> R(y,z)"],
        ["P(x) -> R(x,y)", "R(x,y) -> R(y,x)"],
        ["A(x) -> R(x,y)", "R(x,y) -> A(y)"],
        ["P(x) -> Q(x,y)", "Q(x,y) -> S(y)"],
    ]

    @pytest.mark.parametrize("rules", CASES)
    def test_agreement(self, rules):
        tgds = parse_tgds(rules)
        assert is_guarded(tgds) and is_sticky(tgds)
        sticky_verdict = decide_sticky(tgds)
        guarded_verdict = decide_guarded(tgds)
        assert sticky_verdict.status != Status.UNKNOWN
        if guarded_verdict.status != Status.UNKNOWN:
            assert sticky_verdict.status == guarded_verdict.status

    @pytest.mark.parametrize(
        "generate", [random_guarded_set, random_sticky_set, random_linear_set],
        ids=lambda generate: generate.__name__,
    )
    def test_generated_overlap(self, generate):
        # Every generated set of seeds 0-149 in the guarded/sticky overlap:
        # the sticky decider is complete there, and the guarded procedure
        # may stay UNKNOWN but never contradicts it.
        overlap = 0
        for seed in range(150):
            tgds = generate(seed)
            if not (is_guarded(tgds) and is_sticky(tgds)):
                continue
            overlap += 1
            sticky_verdict = decide_sticky(tgds)
            guarded_verdict = decide_guarded(tgds)
            assert sticky_verdict.status != Status.UNKNOWN, (seed, tgds)
            if guarded_verdict.status != Status.UNKNOWN:
                assert sticky_verdict.status == guarded_verdict.status, (seed, tgds)
        assert overlap


class TestWitnessesReplay:
    """Every NOT_ALL_TERMINATING verdict must carry a replayable witness."""

    @pytest.mark.parametrize(
        "rules",
        [
            ["R(x,y) -> R(y,z)"],
            ["R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"],
        ],
    )
    def test_sticky_witness_replay(self, rules):
        tgds = parse_tgds(rules)
        verdict = decide_sticky(tgds)
        witness = verdict.certificate["witness"]
        run = restricted_chase(
            witness.initial, tgds, strategy="lifo", max_steps=50
        )
        assert not run.terminated

    def test_analyzer_certificates_checkable(self):
        analyzer = TerminationAnalyzer()
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        verdict = analyzer.analyze(tgds)
        witness = verdict.certificate["witness"]
        witness.derivation.validate(tgds)


class TestCorpusSanity:
    def test_sticky_corpus_analyzable(self):
        analyzer = TerminationAnalyzer(guarded_max_steps=40)
        profile = GeneratorProfile(num_predicates=2, max_arity=2, num_tgds=2)
        sets = corpus("sticky", 5, base_seed=11, profile=profile)
        tally = analyzer.analyze_corpus(sets)
        assert sum(tally.values()) == 5
        # The complete sticky procedure never answers UNKNOWN within budget.
        assert tally[Status.UNKNOWN] == 0
