"""The demand-driven term-position index of the memory backend.

``Instance`` builds a ``(predicate, position)`` bucket set on the first
probe of that position and maintains only indexed positions afterwards.
These tests hold it to an eagerly maintained reference index, kept here
as the oracle: same bucket contents, same bucket order, across add,
probe, ``copy`` and pickle round-trips.  They also check that
concurrent first probes only ever see complete buckets, and that a chase
whose rule bodies are single atoms builds no position bucket at all.
The position getter (``position_lookup``) is held to the same oracle on
both backends, and ``add`` to its count of atom hashes.
"""

import pickle
import random
import sys
import threading

import pytest

from repro.backends import SQLiteInstance
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
    """Reference term-position index, maintained on every add."""

    def __init__(self):
        self.atoms = {}
        self.by_position = {}

    def add(self, atom):
        if atom in self.atoms:
            return
        self.atoms[atom] = None
        for i, term in enumerate(atom.terms, start=1):
            self.by_position.setdefault((atom.predicate, i, term), {})[atom] = None

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


def indexed_positions(instance):
    """``predicate -> indexed positions`` in indexing order."""
    return {p: tuple([i for i, _ in pairs]) for p, pairs in instance._indexed.items()}


def assert_built_buckets_match(instance, reference):
    """Every bucket ``instance`` holds equals the oracle's, in order, and
    every oracle bucket at an indexed position is held — checked on the
    private state, so the check itself indexes nothing.  ``add`` maintains
    the very term maps the getters are bound to."""
    indexed = {(p, i) for p, positions in indexed_positions(instance).items() for i in positions}
    assert set(instance._by_position) == indexed
    for predicate, pairs in instance._indexed.items():
        for position, buckets in pairs:
            assert instance._by_position[predicate, position] is buckets
    for (predicate, position), buckets in instance._by_position.items():
        for term, bucket in buckets.items():
            assert list(bucket) == reference.bucket(predicate, position, term), term
    for predicate, position, term in reference.by_position:
        if (predicate, position) in indexed:
            assert term in instance._by_position[predicate, position], term


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
            if roll < 0.6:
                atom = rng.choice(pool)
                instance.add(atom)
                reference.add(atom)
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
        assert indexed_positions(clone) == {"R": (2,)}
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
                assert indexed_positions(instance) == {"E": (2,)}
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
            parse_database(facts),
            parse_tgds(rules),
            strategy="semi_naive",
            prune=False,
            backend="memory",
        )
        assert result.terminated
        assert result.instance._indexed == {}
        assert result.instance._by_position == {}


#: Probed positions of the getter contract: 0 and a position past every
#: arity, and ``U``, a predicate no atom has.
GETTER_POSITIONS = POSITIONS + [("R", 0), ("S", 4), ("U", 1)]
GETTER_TERMS = TERMS + [Constant("unseen")]


#: The default a getter is probed with, as the join plans probe.
EMPTY = {}


@pytest.fixture(params=["memory", "sqlite"])
def empty(request):
    """An empty instance on each backend; the sqlite file is removed."""
    if request.param == "memory":
        yield Instance()
        return
    instance = SQLiteInstance([])
    yield instance
    instance.close()


def assert_getters_match(instance, reference, getters=None):
    for predicate, position in GETTER_POSITIONS:
        get = getters[predicate, position] if getters else instance.position_lookup(predicate, position)
        for term in GETTER_TERMS:
            got = list(get(term, EMPTY))
            assert got == list(instance.with_term_at(predicate, position, term))
            assert got == reference.bucket(predicate, position, term)


class TestPositionGetter:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_operation_sequences(self, empty, seed):
        rng = random.Random(seed)
        pool = [random_atom(rng) for _ in range(30)]
        instance, reference = empty, EagerIndex()
        for step in range(120):
            if rng.random() < 0.65:
                atom = rng.choice(pool)
                instance.add(atom)
                reference.add(atom)
            else:
                # A probe indexes its position: later adds must keep it.
                predicate, position = rng.choice(GETTER_POSITIONS)
                term = rng.choice(GETTER_TERMS)
                got = list(instance.position_lookup(predicate, position)(term, EMPTY))
                assert got == reference.bucket(predicate, position, term)
            if step % 20 == 19:
                assert_getters_match(instance, reference)
        assert_getters_match(instance, reference)

    def test_getter_taken_before_later_adds_sees_them(self, empty):
        rng = random.Random(7)
        instance, reference = empty, EagerIndex()
        getters = {key: instance.position_lookup(*key) for key in GETTER_POSITIONS}
        for _ in range(60):
            atom = random_atom(rng)
            instance.add(atom)
            reference.add(atom)
        assert_getters_match(instance, reference, getters)

    def test_empty_answers(self, empty):
        instance = empty
        instance.add(Atom("R", [Constant("c0"), Constant("c1")]))
        for predicate, position, term in [
            ("R", 0, Constant("c0")),  # position 0
            ("R", 3, Constant("c0")),  # past the arity
            ("U", 1, Constant("c0")),  # unseen predicate
            ("R", 1, Constant("unseen")),  # unseen term
        ]:
            bucket = instance.position_lookup(predicate, position)(term, EMPTY)
            assert not bucket and len(bucket) == 0 and list(bucket) == []


class CountingAtom(Atom):
    """An atom that counts, on its class, how often atoms of it are hashed."""

    __slots__ = ()
    hashes = 0

    def __hash__(self):
        CountingAtom.hashes += 1
        return super().__hash__()


class TestAddHashes:
    @pytest.mark.parametrize("probed", [(), (1,), (1, 2)])
    def test_new_atom_on_a_tracked_instance(self, probed, monkeypatch):
        instance = Instance([Atom("R", [Constant("a"), Constant("b")])])
        for position in probed:
            instance.with_term_at("R", position, Constant("a"))
        # A new atom is hashed into the birth log, its predicate bucket and
        # one bucket per indexed position: no delta records it again.
        start = instance.next_birth()
        atom = CountingAtom("R", [Constant("b"), Constant("c")])
        monkeypatch.setattr(CountingAtom, "hashes", 0)
        assert instance.add(atom)
        assert CountingAtom.hashes == 2 + len(probed)
        CountingAtom.hashes = 0
        assert not instance.add(atom)
        assert CountingAtom.hashes == 1
        assert instance.born_since(start) == [(atom, start)]
