"""The demand-driven term-position index of the memory backend.

``Instance`` builds a ``(predicate, position)`` bucket set on the first
probe of that position and maintains only indexed positions afterwards.
These tests hold it to an eagerly maintained reference index, kept here
as the oracle: same bucket contents, same bucket order, across add,
discard, probe, ``copy`` and pickle round-trips.  They also check that
concurrent first probes only ever see complete buckets, and that a chase
whose rule bodies are single atoms builds no position bucket at all.
"""

import pickle
import random
import sys
import threading

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.parsing import parse_database
from repro.core.terms import Constant, Null
from repro.chase.restricted import restricted_chase
from repro.tgds.tgd import parse_tgds

# ``R`` occurs at two arities: a bucket build must skip atoms too short
# for the probed position.
SHAPES = [("R", 2), ("R", 3), ("S", 3), ("T", 1)]
POSITIONS = [("R", 1), ("R", 2), ("R", 3), ("S", 1), ("S", 2), ("S", 3), ("T", 1), ("T", 2)]
TERMS = [Constant(f"c{i}") for i in range(4)] + [Null(f"n{i}") for i in range(3)]


class EagerIndex:
    """Reference term-position index, maintained on every add and discard."""

    def __init__(self):
        self.atoms = {}
        self.by_position = {}

    def add(self, atom):
        if atom in self.atoms:
            return
        self.atoms[atom] = None
        for i, term in enumerate(atom.terms, start=1):
            self.by_position.setdefault((atom.predicate, i, term), {})[atom] = None

    def discard(self, atom):
        if atom not in self.atoms:
            return
        del self.atoms[atom]
        for i, term in enumerate(atom.terms, start=1):
            key = (atom.predicate, i, term)
            del self.by_position[key][atom]
            if not self.by_position[key]:
                del self.by_position[key]

    def bucket(self, predicate, position, term):
        return list(self.by_position.get((predicate, position, term), ()))

    def copy(self):
        clone = EagerIndex()
        clone.atoms = dict(self.atoms)
        clone.by_position = {k: dict(v) for k, v in self.by_position.items()}
        return clone


def random_atom(rng):
    predicate, arity = rng.choice(SHAPES)
    return Atom(predicate, [rng.choice(TERMS) for _ in range(arity)])


def assert_built_buckets_match(instance, reference):
    """Every bucket ``instance`` holds equals the oracle's, in order, and
    every oracle bucket at an indexed position is held — checked on the
    private state, so the check itself indexes nothing."""
    indexed = {(p, i) for p, positions in instance._indexed.items() for i in positions}
    for key, bucket in instance._by_position.items():
        assert key[:2] in indexed
        assert list(bucket) == reference.bucket(*key), key
    for key in reference.by_position:
        if key[:2] in indexed:
            assert key in instance._by_position, key


def assert_all_buckets_match(instance, reference):
    for predicate, position in POSITIONS:
        for term in TERMS:
            got = list(instance.with_term_at(predicate, position, term))
            assert got == reference.bucket(predicate, position, term)


class TestAgainstEagerOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        pool = [random_atom(rng) for _ in range(40)]
        instance, reference = Instance(), EagerIndex()
        for _ in range(400):
            roll = rng.random()
            if roll < 0.45:
                atom = rng.choice(pool)
                instance.add(atom)
                reference.add(atom)
            elif roll < 0.65:
                atom = rng.choice(pool)
                instance.discard(atom)
                reference.discard(atom)
            elif roll < 0.9:
                predicate, position = rng.choice(POSITIONS)
                term = rng.choice(TERMS)
                got = list(instance.with_term_at(predicate, position, term))
                assert got == reference.bucket(predicate, position, term)
            elif roll < 0.95:
                instance, reference = instance.copy(), reference.copy()
            else:
                instance = pickle.loads(pickle.dumps(instance))
            assert list(instance) == list(reference.atoms)
            assert_built_buckets_match(instance, reference)
        assert_all_buckets_match(instance, reference)

    def test_copy_keeps_indexed_positions_and_stays_independent(self):
        atoms = [Atom("R", [Constant(f"x{i}"), Constant("a")]) for i in range(6)]
        instance = Instance(atoms)
        assert len(instance.with_term_at("R", 2, Constant("a"))) == 6
        clone = instance.copy()
        assert clone._indexed == {"R": (2,)}
        extra = Atom("R", [Constant("y"), Constant("a")])
        clone.add(extra)
        assert list(clone.with_term_at("R", 2, Constant("a"))) == atoms + [extra]
        assert list(instance.with_term_at("R", 2, Constant("a"))) == atoms

    def test_pickle_ships_atoms_without_position_buckets(self):
        atoms = [Atom("R", [Constant(f"x{i}"), Constant("a")]) for i in range(6)]
        instance = Instance(atoms)
        instance.with_term_at("R", 1, Constant("x0"))
        restored = pickle.loads(pickle.dumps(instance))
        assert restored._indexed == {} and restored._by_position == {}
        assert list(restored.with_term_at("R", 2, Constant("a"))) == atoms

    def test_database_copy_keeps_insertion_order_and_class(self):
        db = parse_database([f"E(c{i},c{(i * 7) % 13})" for i in range(13)])
        clone = db.copy()
        assert type(clone) is Database
        assert list(clone) == list(db)


class TestConcurrentFirstProbes:
    def test_threads_see_complete_buckets(self):
        # A predicate bucket large enough that one build spans many thread
        # switches; every thread probes a different term of one position.
        width = 4
        atoms = [
            Atom("E", [Constant(f"v{i}"), Constant(f"t{i % width}")])
            for i in range(20_000)
        ]
        expected = {k: [a for a in atoms if a.terms[1] == Constant(f"t{k}")] for k in range(width)}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                instance = Instance(atoms)
                barrier = threading.Barrier(width)
                seen = {}

                def probe(k):
                    barrier.wait(timeout=60)
                    seen[k] = list(instance.with_term_at("E", 2, Constant(f"t{k}")))

                threads = [threading.Thread(target=probe, args=(k,)) for k in range(width)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert seen == expected
                assert instance._indexed == {"E": (2,)}
        finally:
            sys.setswitchinterval(previous)


class TestSingleAtomBodies:
    def test_dense_shaped_chase_builds_no_position_bucket(self):
        # Copy and existential layers plus unused rules, every body a single
        # atom: neither discovery nor the head-witness cache probes.
        rules = []
        for j in range(8):
            rules.append(f"P{j}(x,y) -> P{j + 1}(x,y)")
            rules.append(f"P{j}(x,y) -> Q{j}(y,w)")
        rules += [f"D{k}(x,y) -> D{k + 1}(x,y)" for k in range(16)]
        nodes = [f"c{i}" for i in range(7)]
        facts = [f"P0({x},{y})" for x, y in zip(nodes, nodes[1:])]
        facts += [f"Q{j}({c},{c})" for j in range(0, 8, 2) for c in nodes]
        result = restricted_chase(
            parse_database(facts), parse_tgds(rules), strategy="semi_naive", prune=False
        )
        assert result.terminated
        assert result.instance._indexed == {}
        assert result.instance._by_position == {}
