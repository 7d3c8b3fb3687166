"""Tests for the weakly restricted chase and Extract (Appendix C)."""

from repro.core.parsing import parse_atom, parse_database
from repro.chase.weakly_restricted import WeaklyRestrictedChase, extract_derivation
from repro.chase.oblivious import satisfies_all
from repro.tgds.tgd import parse_tgds


def roots_of(text):
    return [(atom, 0) for atom in parse_database(text).sorted_atoms()]


class TestWeaklyRestrictedChase:
    def test_single_round_matches_active_triggers(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        chase = WeaklyRestrictedChase(roots_of("R(a,b), R(b,c)"), tgds)
        finished = chase.run(rounds=5)
        assert finished
        atoms = chase.atom_view()
        assert parse_atom("S(a)", data=True) in atoms
        assert parse_atom("S(b)", data=True) in atoms

    def test_fixpoint_in_the_last_allowed_round_is_reported(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        chase = WeaklyRestrictedChase(roots_of("R(a,b)"), tgds)
        assert chase.run(1)
        assert [occ.occ_id for occ in chase.occurrences] == [0, 1]
        assert chase.run(1)
        assert len(chase.occurrences) == 2

    def test_round_limit_with_work_left_is_not_a_fixpoint(self):
        tgds = parse_tgds(["R(x,y) -> S(x)", "S(x) -> T(x)"])
        chase = WeaklyRestrictedChase(roots_of("R(a,b)"), tgds)
        assert not chase.run(1)
        assert chase.run(1)

    def test_mirror_occurrences(self):
        # Two occurrences of the same root atom mirror each generated atom.
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        roots = [(parse_atom("R(a,b)", data=True), 0), (parse_atom("R(a,b)", data=True), 1)]
        chase = WeaklyRestrictedChase(roots, tgds)
        chase.run(rounds=2)
        derived = [o for o in chase.occurrences if not o.is_root]
        assert len(derived) == 2  # one per anchor occurrence
        assert len({o.anchor_parent for o in derived}) == 2

    def test_fixpoint_detection(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        chase = WeaklyRestrictedChase(roots_of("R(a,b)"), tgds)
        assert chase.run(rounds=10)

    def test_budget_cutoff(self, diverging_linear):
        chase = WeaklyRestrictedChase(roots_of("R(a,b)"), diverging_linear)
        assert not chase.run(rounds=3)

    def test_anchor_descendants(self):
        tgds = parse_tgds(["P(x) -> Q(x)", "Q(x) -> S(x)"])
        chase = WeaklyRestrictedChase(roots_of("P(a)"), tgds)
        chase.run(rounds=4)
        root = next(o for o in chase.occurrences if o.is_root)
        descendants = chase.anchor_descendants(root.occ_id)
        assert len(descendants) == 2

    def test_split_run_numbers_rounds_like_one_run(self):
        tgds = parse_tgds(["R(x,y) -> S(x,y)", "S(x,y) -> T(x,y)", "T(x,y) -> U(x)"])
        whole = WeaklyRestrictedChase(roots_of("R(a,b)"), tgds)
        whole.run(rounds=5)
        split = WeaklyRestrictedChase(roots_of("R(a,b)"), tgds)
        split.run(rounds=2)
        split.run(rounds=3)
        assert [o.round_index for o in whole.occurrences] == [0, 1, 2, 3]
        assert [o.round_index for o in split.occurrences] == [0, 1, 2, 3]
        assert split.rounds == whole.rounds == 3
        whole_steps = [t.key for t in extract_derivation(whole).steps]
        assert len(whole_steps) == 3
        assert [t.key for t in extract_derivation(split).steps] == whole_steps


class TestExtract:
    def test_extract_yields_valid_derivation(self, example_32_tgds, example_32_database):
        chase = WeaklyRestrictedChase(
            [(a, 0) for a in example_32_database.sorted_atoms()], example_32_tgds
        )
        chase.run(rounds=6)
        derivation = extract_derivation(chase)
        derivation.validate(example_32_tgds)
        assert satisfies_all(derivation.final_instance(), example_32_tgds)

    def test_extract_deduplicates_mirrors(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        roots = [(parse_atom("R(a,b)", data=True), 0), (parse_atom("R(a,b)", data=True), 1)]
        chase = WeaklyRestrictedChase(roots, tgds)
        chase.run(rounds=2)
        derivation = extract_derivation(chase)
        derivation.validate(tgds)
        # Only one of the two mirror occurrences survives extraction.
        assert len(derivation.steps) == 1

    def test_extract_respects_depth_order(self):
        tgds = parse_tgds(["P(x) -> Q(x)"])
        roots = [
            (parse_atom("P(a)", data=True), 1),
            (parse_atom("P(b)", data=True), 0),
        ]
        chase = WeaklyRestrictedChase(roots, tgds)
        chase.run(rounds=2)
        derivation = extract_derivation(chase)
        # Depth-0 root's offspring is extracted first.
        first = derivation.steps[0]
        assert first.body_image()[0] == parse_atom("P(b)", data=True)
