"""Unit tests for repro.core.homomorphism."""


from repro.core.atoms import Atom
from repro.core.homomorphism import (
    are_isomorphic,
    find_homomorphism,
    has_homomorphism,
    homomorphisms,
    is_homomorphism,
    is_isomorphism,
    match_atom,
)
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
A, B, C = Constant("a"), Constant("b"), Constant("c")
N1, N2 = Null("n1"), Null("n2")


class TestMatchAtom:
    def test_simple_bind(self):
        binding = match_atom(Atom("R", [X, Y]), Atom("R", [A, B]))
        assert binding == {X: A, Y: B}

    def test_predicate_mismatch(self):
        assert match_atom(Atom("R", [X]), Atom("S", [A])) is None

    def test_arity_mismatch(self):
        assert match_atom(Atom("R", [X]), Atom("R", [A, B])) is None

    def test_repeated_variable_consistent(self):
        assert match_atom(Atom("R", [X, X]), Atom("R", [A, A])) == {X: A}
        assert match_atom(Atom("R", [X, X]), Atom("R", [A, B])) is None

    def test_constant_rigid(self):
        assert match_atom(Atom("R", [A]), Atom("R", [A])) == {}
        assert match_atom(Atom("R", [A]), Atom("R", [B])) is None

    def test_null_flexible_unless_frozen(self):
        assert match_atom(Atom("R", [N1]), Atom("R", [A])) == {N1: A}
        assert match_atom(Atom("R", [N1]), Atom("R", [A]), frozen=frozenset({N1})) is None
        assert match_atom(Atom("R", [N1]), Atom("R", [N1]), frozen=frozenset({N1})) == {}

    def test_partial_respected(self):
        assert match_atom(Atom("R", [X]), Atom("R", [A]), partial={X: B}) is None
        assert match_atom(Atom("R", [X]), Atom("R", [A]), partial={X: A}) == {X: A}

    def test_partial_not_mutated(self):
        partial = {X: A}
        match_atom(Atom("R", [X, Y]), Atom("R", [A, B]), partial=partial)
        assert partial == {X: A}


class TestHomomorphisms:
    def test_join_two_atoms(self):
        source = [Atom("R", [X, Y]), Atom("S", [Y, Z])]
        target = Instance([Atom("R", [A, B]), Atom("S", [B, C])])
        found = list(homomorphisms(source, target))
        assert found == [{X: A, Y: B, Z: C}]

    def test_no_hom(self):
        source = [Atom("R", [X, Y]), Atom("S", [Y, Z])]
        target = Instance([Atom("R", [A, B]), Atom("S", [C, C])])
        assert not has_homomorphism(source, target)

    def test_multiple_homs(self):
        source = [Atom("R", [X, Y])]
        target = Instance([Atom("R", [A, B]), Atom("R", [B, C])])
        assert len(list(homomorphisms(source, target))) == 2

    def test_target_as_list(self):
        assert find_homomorphism([Atom("R", [X])], [Atom("R", [A])]) == {X: A}

    def test_empty_source(self):
        assert list(homomorphisms([], Instance())) == [{}]

    def test_partial_propagates(self):
        source = [Atom("R", [X, Y])]
        target = Instance([Atom("R", [A, B]), Atom("R", [B, C])])
        found = list(homomorphisms(source, target, partial={X: B}))
        assert found == [{X: B, Y: C}]


class TestIsHomomorphism:
    def test_valid(self):
        source = [Atom("R", [N1, N2])]
        target = Instance([Atom("R", [A, B])])
        assert is_homomorphism({N1: A, N2: B}, source, target)

    def test_constant_must_fix(self):
        assert not is_homomorphism({A: B}, [Atom("R", [A])], Instance([Atom("R", [B])]))

    def test_missing_image(self):
        assert not is_homomorphism({N1: A}, [Atom("R", [N1])], Instance([Atom("R", [B])]))


class TestIsomorphism:
    def test_null_renaming_is_iso(self):
        left = [Atom("R", [N1, A])]
        right = [Atom("R", [N2, A])]
        assert are_isomorphic(left, right)

    def test_different_structure_not_iso(self):
        assert not are_isomorphic([Atom("R", [N1, N1])], [Atom("R", [N1, N2])])

    def test_size_mismatch(self):
        assert not are_isomorphic([Atom("R", [A])], [Atom("R", [A]), Atom("R", [B])])

    def test_is_isomorphism_checks_inverse(self):
        left = Instance([Atom("R", [N1, N2])])
        right = Instance([Atom("R", [A, A])])
        collapse = {N1: A, N2: A}
        assert is_homomorphism(collapse, left, right)
        assert not is_isomorphism(collapse, left, right)

    def test_constants_matter(self):
        assert not are_isomorphic([Atom("R", [A])], [Atom("R", [B])])
