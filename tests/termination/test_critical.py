"""Tests for the critical database D* and the critical chase (exhibit X12)."""

import pytest

from repro.chase.checkpoint import Budget
from repro.core.parsing import parse_database
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.errors import ChaseInterrupted
from repro.guarded.decision import candidate_databases, decide_guarded, scan_suspects
from repro.obs import clock
from repro.sticky.decision import decide_sticky
from repro.termination.critical import (
    CRITICAL_MAX_ATOMS,
    REPEAT_LIMIT,
    critical_chase,
    critical_database,
    critical_verdict,
)
from repro.termination.portfolio import TerminationPortfolio, decide, settled_cheaply
from repro.termination.verdict import Status
from repro.tgds.acyclicity import terminating_certificate
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.guardedness import is_guarded
from repro.tgds.stickiness import is_sticky
from repro.tgds.tgd import parse_tgds


class TestCriticalDatabase:
    def test_one_atom_per_predicate(self):
        tgds = parse_tgds(["R(x,y) -> S(x)", "S(x) -> T(x,y,z)"])
        dstar = critical_database(tgds)
        assert len(dstar) == 3
        assert all(len(set(a.terms)) == 1 for a in dstar)

    def test_certificate_for_oblivious_terminating(self):
        tgds = parse_tgds(["R(x,y) -> S(y,x)", "S(x,y) -> R(y,x)"])
        verdict = critical_verdict(tgds)
        assert verdict is not None
        assert verdict.status == Status.ALL_TERMINATING

    def test_certificate_though_oblivious_diverges(self, intro_tgds):
        dstar = critical_database(intro_tgds)
        assert not oblivious_chase(dstar, intro_tgds, max_atoms=40).terminated
        verdict = critical_verdict(intro_tgds)
        assert verdict is not None and verdict.method == "critical-chase"

    def test_full_rules_settle_without_nulls(self):
        result = critical_chase(parse_tgds(["P(x) -> Q(x)"]))
        assert result.settled and result.repeats == 0
        assert not any(term.is_null for atom in result.instance for term in atom.terms)


class TestDStarNotCriticalForRestricted:
    """Section 1.2: D* works for the oblivious chase but NOT for the
    restricted chase — the intro example is the counterexample."""

    def test_oblivious_diverges_on_dstar(self, intro_tgds):
        dstar = critical_database(intro_tgds)
        result = oblivious_chase(dstar, intro_tgds, max_atoms=40, max_rounds=60)
        assert not result.terminated

    def test_restricted_terminates_on_dstar_and_everywhere(self, intro_tgds):
        dstar = critical_database(intro_tgds)
        assert restricted_chase(dstar, intro_tgds).terminated
        for db_text in ("R(a,b)", "R(a,a)", "R(a,b), R(b,c)"):
            assert restricted_chase(parse_database(db_text), intro_tgds).terminated

    def test_conclusion_dstar_unsound_for_restricted(self, intro_tgds):
        """Deciding restricted termination by chasing D* would wrongly
        classify the intro example as non-terminating."""
        dstar_diverges = not oblivious_chase(
            critical_database(intro_tgds), intro_tgds, max_atoms=40
        ).terminated
        from repro.sticky.decision import decide_sticky

        true_verdict = decide_sticky(intro_tgds)
        assert dstar_diverges and true_verdict.status == Status.ALL_TERMINATING


class TestMonitor:
    def test_nesting_stops_a_diverging_run_far_below_the_ceiling(self):
        tgds = parse_tgds(["R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"])
        result = critical_chase(tgds)
        assert result.stop == "nesting"
        assert result.repeats == REPEAT_LIMIT + 1
        assert len(result.instance) < CRITICAL_MAX_ATOMS // 1000

    def test_nesting_counts_are_per_function(self):
        # A chain of distinct functions nests deeper than REPEAT_LIMIT in
        # total, yet no one function repeats: the run settles.
        chain = [f"R{i}(x,y) -> R{i + 1}(y,z)" for i in range(2 * REPEAT_LIMIT)]
        result = critical_chase(parse_tgds(chain))
        assert result.settled
        assert result.repeats == 1

    def test_runs_are_deterministic(self, diverging_linear):
        first = critical_chase(diverging_linear)
        second = critical_chase(diverging_linear)
        assert list(first.instance) == list(second.instance)

    def test_budget_cut_raises_with_the_partial_instance(self, diverging_linear):
        with pytest.raises(ChaseInterrupted) as excinfo:
            critical_chase(diverging_linear, Budget(max_atoms=2))
        assert excinfo.value.reason == "budget:atoms"
        assert len(excinfo.value.instance) == 2


#: Guarded corpus sets whose certificate chases used to ignore the
#: caller's budget (the wall one ran 2.9 s under a 0.05 s budget).
GUARDED = corpus("guarded", 25, base_seed=11, profile=GeneratorProfile())

#: A general (neither guarded nor sticky) set with no syntactic
#: certificate that the critical chase settles.
GENERAL = parse_tgds(
    ["P(x), S(y,y) -> R(x,w)", "P(z), S(x,z) -> R(y,x)", "R(x,z), R(x,y) -> S(x,x)"]
)


class TestDeciderBudgets:
    def test_guarded_wall_budget_bounds_the_certificate_chase(self):
        started = clock.perf_counter()
        decide_guarded(GUARDED[11], budget=Budget(wall_seconds=0.05))
        assert clock.perf_counter() - started < 1.5

    def test_guarded_application_budget_is_honoured(self):
        verdict = decide_guarded(GUARDED[18], budget=Budget(max_applications=1))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "guarded-budget"
        assert verdict.certificate["completed"] == 0
        assert decide_guarded(GUARDED[18]).method == "critical-chase"

    def test_general_application_budget_is_honoured(self):
        assert not (is_guarded(GENERAL) or is_sticky(GENERAL))
        assert terminating_certificate(GENERAL) is None
        verdict = decide(GENERAL, budget=Budget(max_applications=1))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "general-budget"
        assert decide(GENERAL).method == "critical-chase"


PROFILES = {
    "default": GeneratorProfile(),
    "dense": GeneratorProfile(
        num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8,
    ),
    "wide": GeneratorProfile(
        num_predicates=3, max_arity=3, num_tgds=5, existential_probability=0.7,
    ),
    "deep": GeneratorProfile(
        num_predicates=2, max_arity=3, num_tgds=4, existential_probability=0.9,
    ),
}

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")

#: The corpus: 2 profiles x 4 families x seeds 11..35, plus the
#: ``test_portfolio.py`` fixtures (dense seeds 0..2, the wide and deep sets).
CORPUS = (
    [(p, f, s) for p in ("default", "dense") for f in FAMILIES for s in range(11, 36)]
    + [("dense", f, s) for f in FAMILIES for s in range(3)]
    + [("wide", "linear", 21), ("deep", "linear", 19)]
)

#: Golden: the corpus seeds, by (profile, family), that MFA or the bounded
#: oblivious chase of D* settled before the critical chase replaced them.
WHOLE_SET_SETTLED = {
    ("deep", "linear"): (19,),
    ("default", "guarded"): (
        11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23, 24, 25, 26, 27, 28, 29, 30,
        31, 33, 35,
    ),
    ("default", "linear"): (
        11, 12, 13, 15, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
        32, 33, 35,
    ),
    ("default", "sticky"): (
        11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
        29, 30, 31, 32, 33, 34, 35,
    ),
    ("default", "weakly-acyclic"): (
        11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
        29, 30, 31, 32, 33, 34, 35,
    ),
    ("dense", "guarded"): (
        0, 1, 2, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 25, 26, 28, 29,
        30, 31, 32, 34, 35,
    ),
    ("dense", "linear"): (
        0, 1, 2, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28,
        30, 31, 32, 33, 34, 35,
    ),
    ("dense", "sticky"): (
        0, 2, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
        27, 28, 29, 30, 32, 33, 34, 35,
    ),
    ("dense", "weakly-acyclic"): (
        0, 1, 2, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
        27, 28, 29, 30, 31, 32, 33, 34, 35,
    ),
    ("wide", "linear"): (21,),
}

#: Golden: the hierarchical stage settled all of the above, and this set,
#: with its bounded oblivious layer chase.
LAYER_ONLY_SETTLED = [("default", "guarded", 34)]


def golden_keys(table):
    return [(profile, family, seed) for (profile, family), seeds in table.items() for seed in seeds]


def corpus_set(key):
    profile, family, seed = key
    return corpus(family, 1, base_seed=seed, profile=PROFILES[profile])[0]


class TestNoLostSettle:
    """Every corpus set the replaced checks settled still settles."""

    def test_whole_set_settles_are_kept(self):
        for key in golden_keys(WHOLE_SET_SETTLED):
            result = critical_chase(corpus_set(key))
            assert result.settled, (key, result.stop)

    def test_layered_settles_are_kept(self):
        portfolio = TerminationPortfolio()
        for key in golden_keys(WHOLE_SET_SETTLED) + LAYER_ONLY_SETTLED:
            assert settled_cheaply(portfolio.analyze(corpus_set(key))), key

    def test_new_settles_agree_with_the_deciders(self):
        """Every set the critical chase certifies beyond the syntactic
        certificates: the complete sticky decider never says otherwise,
        nor does the guarded pump search."""
        for key in CORPUS:
            tgds = corpus_set(key)
            if terminating_certificate(tgds) is not None:
                continue
            if not critical_chase(tgds).settled:
                continue
            if is_sticky(tgds):
                assert decide_sticky(tgds).status != Status.NOT_ALL_TERMINATING, key
            if is_guarded(tgds):
                hit = scan_suspects(candidate_databases(tgds), tgds, 60, 3)
                assert hit is None, key
