"""Tests for the complete sticky decision procedure (Theorem 6.1)."""

import pytest

from repro.automata.buchi import BuchiAutomaton
from repro.chase.checkpoint import Budget
from repro.chase.restricted import restricted_chase
from repro.obs import clock
from repro.sticky.automaton import CaterpillarAutomatonFamily
from repro.sticky.decision import decide_sticky, instantiate_lasso, witness_from_lasso
from repro.termination.verdict import Status
from repro.tgds.tgd import parse_tgds

from tests.sticky.test_reference_oracle import ladder


class TestKnownTerminating:
    @pytest.mark.parametrize(
        "rules",
        [
            ["R(x,y) -> R(x,z)"],                       # intro example
            ["P(x) -> Q(x,y)", "Q(x,y) -> S(y)"],       # weakly acyclic
            ["P(x) -> R(x,y)", "R(x,y) -> R(y,x)"],     # swap closes the loop
            ["T(x,y,z) -> S(y,w)", "R(x,y), P(y,z) -> T(x,y,w)"],  # §2 sticky
            ["R(x,y) -> S(y,x)"],                       # full TGDs
        ],
    )
    def test_all_terminating(self, rules):
        verdict = decide_sticky(parse_tgds(rules))
        assert verdict.status == Status.ALL_TERMINATING
        assert verdict.certificate["automaton_empty"]


class TestKnownDiverging:
    @pytest.mark.parametrize(
        "rules",
        [
            ["R(x,y) -> R(y,z)"],                       # shift chain
            ["R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"],   # alternating chain
            ["A(x) -> R(x,y)", "R(x,y) -> A(y)"],       # feed-forward loop
        ],
    )
    def test_not_all_terminating(self, rules):
        tgds = parse_tgds(rules)
        verdict = decide_sticky(tgds)
        assert verdict.status == Status.NOT_ALL_TERMINATING
        witness = verdict.certificate["witness"]
        # The replay is a genuine restricted chase derivation.
        witness.derivation.validate(tgds)
        assert len(witness.derivation.steps) >= len(witness.lasso.cycle) * 3

    def test_witness_database_diverges_under_engine(self, diverging_linear):
        """Independent cross-check: run the ordinary engine on the witness."""
        verdict = decide_sticky(diverging_linear)
        witness = verdict.certificate["witness"]
        run = restricted_chase(witness.initial, diverging_linear, strategy="lifo", max_steps=40)
        assert not run.terminated

    def test_witness_clean_database(self, diverging_linear):
        verdict = decide_sticky(diverging_linear)
        witness = verdict.certificate["witness"]
        assert witness.clean_database
        assert witness.initial.is_database()


class TestLassoInstantiation:
    def test_longer_replay_extends(self, diverging_linear):
        family_verdict = decide_sticky(diverging_linear)
        witness = family_verdict.certificate["witness"]
        longer = witness_from_lasso(
            diverging_linear,
            witness.start_etype,
            witness.start_positions,
            witness.lasso,
            cycles=6,
        )
        longer.derivation.validate(diverging_linear)
        assert len(longer.derivation.steps) > len(witness.derivation.steps)

    def test_leg_recycling_keeps_instance_finite(self):
        tgds = parse_tgds(["A(x) -> R(x,y)", "R(x,y) -> A(y)"])
        verdict = decide_sticky(tgds)
        witness = verdict.certificate["witness"]
        short = witness_from_lasso(
            tgds, witness.start_etype, witness.start_positions, witness.lasso, cycles=2
        )
        long = witness_from_lasso(
            tgds, witness.start_etype, witness.start_positions, witness.lasso, cycles=8
        )
        # Recycled legs: the initial instance does not grow with the cycles.
        assert len(long.initial) == len(short.initial)

    def test_instantiate_reports_null_freedom(self, diverging_linear):
        verdict = decide_sticky(diverging_linear)
        witness = verdict.certificate["witness"]
        initial, triggers, null_free = instantiate_lasso(
            diverging_linear, witness.start_etype, witness.lasso, cycles=2
        )
        assert null_free
        assert triggers


class TestNonStickyRejected:
    def test_value_error(self, sticky_pair):
        _, non_sticky = sticky_pair
        with pytest.raises(ValueError, match="not sticky"):
            decide_sticky(non_sticky)


class TickingClock(clock.FakeClock):
    """A fake clock that moves one second forward on every reading."""

    def monotonic(self) -> float:
        now = self.now
        self.now += 1.0
        return now


def _installed(fake):
    previous = clock.set_clock(fake)
    try:
        yield fake
    finally:
        clock.set_clock(previous)


@pytest.fixture
def ticking_clock():
    yield from _installed(TickingClock())


@pytest.fixture
def still_clock():
    """A fake clock that only moves when a test moves it."""
    yield from _installed(clock.FakeClock())


class TestBudget:
    """The automaton search honours the caller's budget (``sticky-budget``).

    Under :class:`TickingClock` every budget check costs one second.  Arming
    the budget reads the clock once; then it is checked before each start
    pair and every 64 newly explored states.  On the arity-4 ladder the
    first start pair's component has one state and the second's 255.
    """

    def test_cut_between_components(self, ticking_clock):
        verdict = decide_sticky(parse_tgds(ladder(4)), budget=Budget(wall_seconds=0.5))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "sticky-budget"
        assert verdict.certificate == {"components": 0}
        assert verdict.detail == (
            "budget exhausted (budget:wall) after 0 empty automaton components"
        )

    def test_cut_inside_a_component(self, ticking_clock):
        verdict = decide_sticky(parse_tgds(ladder(4)), budget=Budget(wall_seconds=5.5))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "sticky-budget"
        # Checks at readings 1 (first pair), 2 and 3 (the first component's
        # lasso search, after exploring and after its SCC pass), 4 (second
        # pair) and 5 (64 states) pass; reading 6, at 128 states, is past
        # the deadline.
        assert verdict.certificate == {"components": 1, "states": 128}

    def test_cut_after_exploration(self, still_clock, monkeypatch):
        # Exploration finishes inside the budget; the SCC pass, whose
        # acceptance tests each take ten seconds here, does not.
        original = CaterpillarAutomatonFamily.component

        def slow_acceptance(family, etype, pi0, budget=None):
            automaton = original(family, etype, pi0, budget)
            accepting = automaton.is_accepting

            def is_accepting(state):
                still_clock.now += 10.0
                return accepting(state)

            automaton.is_accepting = is_accepting
            return automaton

        monkeypatch.setattr(CaterpillarAutomatonFamily, "component", slow_acceptance)
        verdict = decide_sticky(parse_tgds(ladder(4)), budget=Budget(wall_seconds=1.0))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "sticky-budget"
        assert verdict.certificate == {"components": 1, "states": 255}

    def test_lasso_found_late_is_not_replayed(self, still_clock, monkeypatch):
        # The lasso search runs past the deadline after the SCC pass's
        # check: the decider times out instead of replaying the witness.
        original = BuchiAutomaton.find_lasso

        def late_find_lasso(automaton):
            lasso = original(automaton)
            if lasso is not None:
                still_clock.now += 10.0
            return lasso

        monkeypatch.setattr(BuchiAutomaton, "find_lasso", late_find_lasso)
        verdict = decide_sticky(parse_tgds(ladder(4)), budget=Budget(wall_seconds=1.0))
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "sticky-budget"
        assert verdict.certificate == {"components": 1}

    def test_generous_budget_matches_unbudgeted(self, ticking_clock):
        tgds = parse_tgds(ladder(4))
        budgeted = decide_sticky(tgds, budget=Budget(wall_seconds=1000))
        unbudgeted = decide_sticky(tgds)
        assert budgeted.status == Status.NOT_ALL_TERMINATING
        assert (budgeted.status, budgeted.method, budgeted.detail) == (
            unbudgeted.status,
            unbudgeted.method,
            unbudgeted.detail,
        )

    def test_wall_budget_bounds_a_wide_set(self):
        # Unbudgeted, the arity-7 ladder takes about half a second on a
        # 2-CPU container; a 0.05 s budget cuts the search.
        started = clock.perf_counter()
        verdict = decide_sticky(parse_tgds(ladder(7)), budget=Budget(wall_seconds=0.05))
        assert clock.perf_counter() - started < 0.5
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "sticky-budget"

    def test_analyzer_threads_its_budget(self, ticking_clock):
        from repro.termination.analyzer import TerminationAnalyzer

        verdict = TerminationAnalyzer().analyze(parse_tgds(ladder(4)), budget=Budget(wall_seconds=0.5))
        assert verdict.method == "sticky-budget"
