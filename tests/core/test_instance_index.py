"""Property tests for the term-position indexes of Instance.

The indexes are maintained incrementally by ``add``/``discard``/``copy``;
these tests check them against brute-force recomputation over random
add/discard interleavings.
"""

import random

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Null

PREDICATES = [("R", 2), ("S", 3), ("T", 1)]
TERMS = [Constant(f"c{i}") for i in range(4)] + [Null(f"n{i}") for i in range(3)]


def random_atom(rng: random.Random) -> Atom:
    predicate, arity = rng.choice(PREDICATES)
    return Atom(predicate, [rng.choice(TERMS) for _ in range(arity)])


def assert_position_index_consistent(instance: Instance) -> None:
    """with_term_at must agree with a brute-force scan, in both directions."""
    atoms = instance.atoms()
    # Every atom is in every bucket its positions dictate...
    for atom in atoms:
        for i, term in enumerate(atom.terms, start=1):
            assert atom in instance.with_term_at(atom.predicate, i, term)
    # ...and every possible bucket contains exactly the brute-force set.
    for predicate, arity in PREDICATES:
        for position in range(1, arity + 1):
            for term in TERMS:
                expected = {
                    a
                    for a in atoms
                    if a.predicate == predicate and a.terms[position - 1] == term
                }
                assert set(instance.with_term_at(predicate, position, term)) == expected
    # The predicate buckets partition the atom set.
    for predicate, _ in PREDICATES:
        expected = {a for a in atoms if a.predicate == predicate}
        assert set(instance.with_predicate(predicate)) == expected


class TestInstancePositionIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_add_discard_interleaving(self, seed):
        rng = random.Random(seed)
        instance = Instance()
        pool = [random_atom(rng) for _ in range(40)]
        for step in range(200):
            atom = rng.choice(pool)
            if rng.random() < 0.7:
                instance.add(atom)
            else:
                instance.discard(atom)
            if step % 25 == 0:
                assert_position_index_consistent(instance)
        assert_position_index_consistent(instance)

    def test_discard_clears_all_buckets(self):
        atom = Atom("R", [Constant("a"), Constant("a")])
        instance = Instance([atom])
        assert instance.discard(atom)
        assert not instance.with_predicate("R")
        assert not instance.with_term_at("R", 1, Constant("a"))
        assert not instance.with_term_at("R", 2, Constant("a"))

    def test_repeated_term_indexed_per_position(self):
        atom = Atom("R", [Constant("a"), Constant("a")])
        instance = Instance([atom])
        assert set(instance.with_term_at("R", 1, Constant("a"))) == {atom}
        assert set(instance.with_term_at("R", 2, Constant("a"))) == {atom}
        assert not instance.with_term_at("R", 1, Constant("b"))

    def test_copy_is_independent(self):
        rng = random.Random(7)
        instance = Instance(random_atom(rng) for _ in range(20))
        clone = instance.copy()
        fresh = Atom("R", [Constant("zz"), Constant("zz")])
        clone.add(fresh)
        removed = next(iter(instance))
        clone.discard(removed)
        assert fresh not in instance
        assert not instance.with_term_at("R", 1, Constant("zz"))
        assert removed in instance
        assert_position_index_consistent(instance)
        assert_position_index_consistent(clone)

    def test_iteration_order_is_insertion_order(self):
        # Deterministic derivations rely on insertion-ordered buckets.
        atoms = [Atom("R", [Constant(f"x{i}"), Constant(f"x{i}")]) for i in range(10)]
        instance = Instance(atoms)
        assert list(instance) == atoms
        assert list(instance.with_predicate("R")) == atoms
