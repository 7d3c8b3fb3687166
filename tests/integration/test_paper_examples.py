"""End-to-end reproduction of every worked example in the paper."""

from repro.core.atoms import Atom
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.multihead import example_b1_tgds, multihead_restricted_chase
from repro.chase.oblivious import oblivious_chase
from repro.chase.real_oblivious import RealObliviousChase
from repro.chase.restricted import (
    exists_derivation_of_length,
    restricted_chase,
)
from repro.guarded.decision import decide_guarded
from repro.guarded.treeification import treeify, verify_treeification
from repro.sticky.decision import decide_sticky
from repro.termination.verdict import Status
from repro.tgds.stickiness import StickinessAnalysis


class TestX1IntroExample:
    """§1: D = {R(a,b)}, R(x,y) → ∃z R(x,z)."""

    def test_restricted_detects_satisfaction(self, intro_tgds, intro_database):
        result = restricted_chase(intro_database, intro_tgds)
        assert result.terminated and result.steps == 0

    def test_oblivious_builds_infinite_instance(self, intro_tgds, intro_database):
        result = oblivious_chase(intro_database, intro_tgds, max_atoms=100)
        assert not result.terminated
        # {R(a,b), R(a,ν1), R(a,ν2), ...}: all atoms keep first argument a.
        assert all(atom[1] == Constant("a") for atom in result.instance)

    def test_membership_in_ct(self, intro_tgds):
        assert decide_sticky(intro_tgds).status == Status.ALL_TERMINATING
        assert decide_guarded(intro_tgds).status == Status.ALL_TERMINATING


class TestX2Examples32And34:
    """§3: the oblivious chase of {P(a,b)} and its real-oblivious structure."""

    def test_oblivious_chase_is_paper_instance(self, example_32_tgds, example_32_database):
        result = oblivious_chase(example_32_database, example_32_tgds)
        assert result.terminated
        atoms = result.instance
        a, b = Constant("a"), Constant("b")
        assert Atom("P", [a, b]) in atoms
        assert Atom("R", [a, b]) in atoms
        assert Atom("S", [a]) in atoms
        nulls = atoms.nulls()
        assert len(nulls) == 1
        assert Atom("R", [a, next(iter(nulls))]) in atoms

    def test_ambiguous_parents_resolved_by_real_ochase(
        self, example_32_tgds, example_32_database
    ):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=3)
        s_nodes = [
            n for n in chase.nodes if n.atom == Atom("S", [Constant("a")]) and n.parents
        ]
        tgd_names = {n.trigger.tgd.name for n in s_nodes}
        assert {"s2", "s3"} <= tgd_names  # one copy per derivation route


class TestX3StickinessFigures:
    """§2: the sticky vs non-sticky marking figures."""

    def test_first_set_sticky_second_not(self, sticky_pair):
        sticky, non_sticky = sticky_pair
        assert StickinessAnalysis(sticky).is_sticky
        assert not StickinessAnalysis(non_sticky).is_sticky


class TestX4Example56:
    """§5.2: remote side-parents force treeification."""

    def test_full_database_diverges(self, example_56_tgds, example_56_database):
        assert (
            exists_derivation_of_length(example_56_database, example_56_tgds, 8)
            is not None
        )

    def test_r_alone_has_no_active_trigger(self, example_56_tgds):
        assert (
            exists_derivation_of_length(parse_database("R(a,b)"), example_56_tgds, 1)
            is None
        )

    def test_treeified_witness_diverges(self, example_56_tgds, example_56_database):
        evidence = restricted_chase(
            example_56_database, example_56_tgds, max_steps=10
        ).derivation
        treeified = treeify(example_56_database, example_56_tgds, evidence)
        assert verify_treeification(treeified, example_56_tgds, target_steps=10)

    def test_decision_flags_non_termination(self, example_56_tgds):
        assert decide_guarded(example_56_tgds).status == Status.NOT_ALL_TERMINATING


class TestX5ExampleB1:
    """Appendix B.1: fairness fails for multi-head TGDs."""

    def test_unfair_infinite_fair_finite(self):
        tgds = example_b1_tgds()
        unfair = multihead_restricted_chase(
            parse_database("R(a,b,b)"), tgds, strategy=0, max_steps=12
        )
        assert not unfair.terminated
        # Fairness forces R(b,b,b); afterwards everything halts.
        fair_point = parse_database("R(a,b,b), R(b,b,b)")
        finished = multihead_restricted_chase(fair_point, tgds, strategy="fifo", max_steps=50)
        assert finished.terminated
