"""Property-based tests for the core substrate (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.atoms import Atom
from repro.core.equality import EqualityType
from repro.core.homomorphism import (
    homomorphisms,
    is_homomorphism,
    match_atom,
)
from repro.core.instance import Instance
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Null, Variable

constants = st.builds(Constant, st.sampled_from("abcde"))
nulls = st.builds(Null, st.sampled_from(["n1", "n2", "n3"]))
variables = st.builds(Variable, st.sampled_from("xyzuv"))
ground_terms = st.one_of(constants, nulls)
any_terms = st.one_of(constants, nulls, variables)

predicates = st.sampled_from(["R", "S", "T"])


@st.composite
def ground_atoms(draw, max_arity=3):
    pred = draw(predicates)
    arity = draw(st.integers(1, max_arity))
    return Atom(pred, [draw(ground_terms) for _ in range(arity)])


@st.composite
def pattern_atoms(draw, max_arity=3):
    pred = draw(predicates)
    arity = draw(st.integers(1, max_arity))
    return Atom(pred, [draw(any_terms) for _ in range(arity)])


@st.composite
def ground_instances(draw, max_atoms=6):
    return Instance(draw(st.lists(ground_atoms(), max_size=max_atoms)))


class TestHomomorphismProperties:
    @given(pattern_atoms(), ground_atoms())
    def test_match_atom_is_sound(self, pattern, target):
        binding = match_atom(pattern, target)
        if binding is not None:
            assert pattern.apply(binding) == target

    @given(st.lists(pattern_atoms(), max_size=3), ground_instances())
    @settings(max_examples=60)
    def test_generated_homs_are_homomorphisms(self, source, instance):
        for h in homomorphisms(source, instance):
            assert is_homomorphism(h, source, instance)

    @given(st.lists(pattern_atoms(), max_size=3), ground_instances())
    @settings(max_examples=40)
    def test_homs_are_distinct(self, source, instance):
        found = [tuple(sorted(h.items(), key=repr)) for h in homomorphisms(source, instance)]
        assert len(found) == len(set(found))

    @given(ground_instances())
    def test_identity_endomorphism(self, instance):
        atoms = instance.sorted_atoms()
        assert is_homomorphism({}, atoms, instance)


class TestEqualityTypeProperties:
    @given(ground_atoms())
    def test_canonical_atom_same_type(self, atom):
        et = EqualityType.of_atom(atom)
        assert EqualityType.of_atom(et.canonical_atom()) == et

    @given(ground_atoms())
    def test_type_reflects_equalities(self, atom):
        et = EqualityType.of_atom(atom)
        for i in range(1, atom.arity + 1):
            for j in range(1, atom.arity + 1):
                assert et.same(i, j) == (atom.at(i) == atom.at(j))

    @given(ground_atoms())
    def test_canonical_atom_stops_itself(self, atom):
        # Two copies of the same atom always stop each other (Section 3.1):
        # the identity homomorphism fixes everything.
        from repro.chase.relations import stops_atom

        assert stops_atom(atom, atom, frozenset(atom.terms))


class TestSubstitutionProperties:
    @given(st.dictionaries(variables, ground_terms, max_size=4), pattern_atoms())
    def test_apply_then_apply_composes(self, mapping, atom):
        s = Substitution(mapping)
        t = Substitution({})
        once = s.apply_to_atom(atom)
        assert s.compose(t).apply_to_atom(atom) == once

    @given(
        st.dictionaries(variables, nulls, max_size=3),
        st.dictionaries(nulls, constants, max_size=3),
        pattern_atoms(),
    )
    def test_composition_agrees_pointwise(self, first, second, atom):
        s1, s2 = Substitution(first), Substitution(second)
        composed = s1.compose(s2)
        direct = s2.apply_to_atom(s1.apply_to_atom(atom))
        assert composed.apply_to_atom(atom) == direct

    @given(st.dictionaries(variables, ground_terms, max_size=4))
    def test_restrict_is_subset(self, mapping):
        s = Substitution(mapping)
        keys = list(mapping)[:2]
        restricted = s.restrict(keys)
        assert restricted.domain() <= s.domain()
        assert all(restricted[k] == s[k] for k in restricted)

    @given(st.dictionaries(variables, ground_terms, min_size=1, max_size=4))
    def test_inverse_roundtrip_when_injective(self, mapping):
        s = Substitution(mapping)
        if s.is_injective():
            assert s.inverse().inverse() == s
