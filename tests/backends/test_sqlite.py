"""The ``SQLiteInstance`` contract: drop-in for the memory backend.

Every behaviour the chase kernel relies on — insertion-order iteration,
``(birth, canonical_key)``-stable ``sorted_atoms``, set semantics on
``add``, the bucket index views, births, pickling as an atom
list — is asserted against a memory :class:`Instance` built from the
same operations.
"""

import os
import pickle

import pytest

from repro.backends import SQLiteInstance
from repro.backends.sqlite import decode_terms, encode_terms
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, Variable


def atom(p, *terms):
    return Atom(p, [t if not isinstance(t, str) else Constant(t) for t in terms])


SAMPLE = [
    atom("R", "a", "b"),
    atom("R", "b", "c"),
    atom("S", "a"),
    Atom("R", [Constant("a"), Null("n1")]),
    Atom("T", [Null("n1"), Null("n2"), Constant("x")]),
]


@pytest.fixture
def pair():
    """(memory, sqlite) instances fed the same atoms; sqlite auto-cleans."""
    memory = Instance(SAMPLE)
    sqlite = SQLiteInstance(SAMPLE)
    yield memory, sqlite
    sqlite.close()


class TestTermCodec:
    def test_round_trip(self):
        terms = (Constant("a"), Null("n:1"), Constant("with:colon"), Null("n2"))
        assert tuple(decode_terms(encode_terms(terms))) == terms

    def test_injective_on_tricky_names(self):
        # Names containing the length-prefix delimiter must not collide.
        a = encode_terms((Constant("a:b"), Constant("c")))
        b = encode_terms((Constant("a"), Constant("b:c")))
        assert a != b


class TestContract:
    def test_len_and_membership(self, pair):
        memory, sqlite = pair
        assert len(sqlite) == len(memory)
        for a in SAMPLE:
            assert a in sqlite
        assert atom("R", "z", "z") not in sqlite

    def test_membership_agrees_on_pairs_and_non_atoms(self, pair):
        # The join plans test a bound step's ``(predicate, terms)`` pair
        # through ``membership()``; both backends answer it as they answer
        # the atom, and refuse what names no ground atom.
        memory, sqlite = pair
        probes = [(a.predicate, a.terms) for a in SAMPLE] + [
            ("R", (Constant("z"), Constant("z"))),
            ("R", (Constant("a"), Null("b"))),
            ("R", (Constant("a"), Variable("n1"))),
            Atom("R", [Constant("a"), Variable("n1")]),
            ("R",),
            "R",
        ]
        for probe in probes:
            expected = probe in memory.membership()
            assert (probe in sqlite.membership()) == expected, probe
            assert (probe in sqlite) == expected, probe
        assert all(probe in sqlite for probe in probes[: len(SAMPLE)])

    def test_insertion_order_iteration(self, pair):
        memory, sqlite = pair
        assert list(sqlite) == list(memory)

    def test_sorted_atoms(self, pair):
        memory, sqlite = pair
        assert sqlite.sorted_atoms() == memory.sorted_atoms()

    def test_equality_across_backends(self, pair):
        memory, sqlite = pair
        assert sqlite == memory
        assert memory == sqlite

    def test_add_is_set_semantics(self, pair):
        _, sqlite = pair
        assert not sqlite.add(SAMPLE[0])
        assert sqlite.add(atom("S", "new"))
        assert len(sqlite) == len(SAMPLE) + 1

    def test_add_rejects_non_ground(self, pair):
        _, sqlite = pair
        with pytest.raises(ValueError):
            sqlite.add(Atom("R", [Variable("x"), Constant("a")]))
        with pytest.raises(TypeError):
            sqlite.add("R(a,b)")

    def test_with_predicate(self, pair):
        memory, sqlite = pair
        for predicate in ("R", "S", "T", "missing"):
            assert list(sqlite.with_predicate(predicate)) == list(
                memory.with_predicate(predicate)
            )
            assert len(sqlite.with_predicate(predicate)) == len(
                memory.with_predicate(predicate)
            )

    def test_with_term_at(self, pair):
        memory, sqlite = pair
        probes = [
            ("R", 0, Constant("a")),
            ("R", 1, Null("n1")),
            ("T", 2, Constant("x")),
            ("R", 0, Constant("zzz")),
            ("R", 7, Constant("a")),
        ]
        for predicate, position, term in probes:
            assert list(sqlite.with_term_at(predicate, position, term)) == list(
                memory.with_term_at(predicate, position, term)
            )
            assert len(sqlite.with_term_at(predicate, position, term)) == len(
                memory.with_term_at(predicate, position, term)
            )

    def test_predicates(self, pair):
        memory, sqlite = pair
        assert sqlite.predicates() == memory.predicates()

    def test_domain_and_schema(self, pair):
        memory, sqlite = pair
        assert sqlite.domain() == memory.domain()
        assert sqlite.schema() == memory.schema()

    def test_copy_is_memory_scratch(self, pair):
        _, sqlite = pair
        clone = sqlite.copy()
        assert type(clone) is Instance
        assert list(clone) == list(sqlite)
        clone.add(atom("S", "only-in-copy"))
        assert atom("S", "only-in-copy") not in sqlite

    def test_delta_tracking(self, pair):
        # A delta is the atoms born since a birth, on both backends alike.
        memory, sqlite = pair
        start = memory.next_birth()
        assert sqlite.next_birth() == start
        for a in (atom("S", "d1"), atom("S", "d2")):
            memory.add(a)
            sqlite.add(a)
        assert sqlite.born_since(start) == memory.born_since(start)
        assert [birth for _, birth in memory.born_since(start)] == [start, start + 1]
        memory_births, sqlite_births = memory.births(), sqlite.births()
        for a in list(memory) + [atom("S", "absent")]:
            assert sqlite_births(a, -1) == memory_births(a, -1)
            assert sqlite_births((a.predicate, a.terms), -1) == memory_births(a, -1)


class TestPersistence:
    def test_reattach_preserves_birth_order(self):
        # An unpickled copy is rebuilt from the birth-ordered atom list, so
        # it iterates in the same order, and new atoms continue the birth
        # sequence after the old maximum.
        first = SQLiteInstance(SAMPLE)
        order = list(first)
        second = pickle.loads(pickle.dumps(first))
        first.close()
        try:
            assert second.path != first.path
            assert list(second) == order
            second.add(atom("S", "after-reattach"))
            assert list(second)[-1] == atom("S", "after-reattach")
            assert second.sorted_atoms() == Instance(order + [atom("S", "after-reattach")]).sorted_atoms()
        finally:
            second.close()

    def test_temp_file_removed_on_close(self):
        sqlite = SQLiteInstance([])
        path = sqlite.path
        assert os.path.exists(path)
        sqlite.close()
        assert not os.path.exists(path)


class TestChaseMemory:
    def test_finished_rounds_leave_no_atoms_in_memory(self):
        """A chase on sqlite holds one round's delta, not the whole closure.

        The copy chain ``R_i(x,y,z) -> R_{i+1}(x,y,z)`` adds ``width`` atoms
        per round.  Four times the rounds must not raise the traced Python
        peak: anything that kept finished rounds' atoms would (12,300 atoms
        at depth 40 are well over a megabyte as ``Atom`` objects).
        """
        import tracemalloc

        from repro.chase.oblivious import oblivious_chase
        from repro.tgds.tgd import parse_tgds

        database = [atom("R0", f"a{i}", f"b{i}", f"c{i}") for i in range(300)]
        peaks = []
        for depth in (10, 40):
            tgds = parse_tgds(
                [f"R{i}(x,y,z) -> R{i + 1}(x,y,z)" for i in range(depth)]
            )
            tracemalloc.start()
            try:
                result = oblivious_chase(database, tgds, backend="sqlite")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(result.instance) == 300 * (depth + 1)
            result.instance.close()
        assert peaks[1] < 1.5 * peaks[0], peaks
