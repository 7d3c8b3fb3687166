"""Unit tests for repro.core.atoms."""

import copy
import pickle

import pytest

from repro.chase.trigger import Trigger
from repro.core.atoms import Atom, positions_of_atom
from repro.core.parsing import parse_atom
from repro.core.terms import Constant, Null, Variable
from repro.tgds.tgd import TGD


def atom(*names):
    return Atom("R", [Constant(n) for n in names])


class TestConstruction:
    def test_basic(self):
        a = atom("a", "b")
        assert a.predicate == "R"
        assert a.arity == 2

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("", [Constant("a")])

    def test_non_term_rejected(self):
        with pytest.raises(TypeError):
            Atom("R", ["a"])  # type: ignore[list-item]

    def test_immutable(self):
        a = atom("a")
        with pytest.raises(AttributeError):
            a.predicate = "S"  # type: ignore[misc]


class TestIndexing:
    def test_one_based_at(self):
        a = atom("a", "b")
        assert a.at(1) == Constant("a")
        assert a.at(2) == Constant("b")

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            atom("a").at(2)
        with pytest.raises(IndexError):
            atom("a").at(0)

    def test_items_are_the_pair(self):
        a = atom("a", "b")
        assert a[0] == "R"
        assert a[1] == (Constant("a"), Constant("b"))
        predicate, terms = a
        assert (predicate, terms) == (a.predicate, a.terms)

    def test_positions_of(self):
        a = Atom("R", [Constant("a"), Constant("b"), Constant("a")])
        assert a.positions_of(Constant("a")) == frozenset({1, 3})
        assert a.positions_of(Constant("z")) == frozenset()

    def test_positions_of_atom_helper(self):
        assert positions_of_atom(atom("a", "b")) == [("R", 1), ("R", 2)]


class TestKinds:
    def test_is_fact(self):
        assert atom("a").is_fact
        assert not Atom("R", [Null("n")]).is_fact

    def test_is_ground(self):
        assert Atom("R", [Null("n")]).is_ground
        assert not Atom("R", [Variable("x")]).is_ground

    def test_term_partitions(self):
        a = Atom("R", [Constant("a"), Null("n"), Variable("x")])
        assert a.constants() == {Constant("a")}
        assert a.nulls() == {Null("n")}
        assert a.variables() == {Variable("x")}
        assert a.term_set() == {Constant("a"), Null("n"), Variable("x")}


class TestApply:
    def test_apply_dict(self):
        a = Atom("R", [Variable("x"), Variable("y")])
        image = a.apply({Variable("x"): Constant("a")})
        assert image == Atom("R", [Constant("a"), Variable("y")])

    def test_apply_preserves_original(self):
        a = Atom("R", [Variable("x")])
        a.apply({Variable("x"): Constant("a")})
        assert a.at(1) == Variable("x")

    def test_apply_grounds(self):
        image = Atom("R", [Variable("x")]).apply({Variable("x"): Constant("a")})
        assert image.is_ground


class TestEqualityAndOrder:
    def test_structural_equality(self):
        assert atom("a", "b") == atom("a", "b")
        assert atom("a", "b") != atom("b", "a")
        assert atom("a") != Atom("S", [Constant("a")])

    def test_hashable(self):
        assert len({atom("a"), atom("a"), atom("b")}) == 2

    def test_sort_key_deterministic(self):
        atoms = [atom("b"), atom("a"), Atom("Q", [Constant("z")])]
        ordered = sorted(atoms)
        assert ordered[0].predicate == "Q"
        assert ordered[1] == atom("a")

    def test_repr(self):
        assert repr(atom("a", "b")) == "R(a,b)"

    def test_equals_its_bare_pair(self):
        # Equality is the tuple's own: an atom equals the pair it stores.
        a = atom("a", "b")
        assert a == ("R", (Constant("a"), Constant("b")))
        assert hash(a) == hash(("R", (Constant("a"), Constant("b"))))

    def test_order_is_sort_key_order(self):
        atoms = [
            Atom("R", [Null("n"), Constant("a")]),
            Atom("R", [Constant("b")]),
            Atom("R", [Constant("a"), Constant("c")]),
            Atom("R", [Constant("a")]),
            Atom("P", [Variable("x")]),
        ]
        assert sorted(atoms) == sorted(atoms, key=Atom.sort_key)


#: ``pickle.dumps(Atom("R", [Constant("a"), Null("n1")]))``, protocol 4:
#: the bytes the slot-class atom pickled to, which checkpoints hold.
PICKLED_GROUND = (
    b"\x80\x04\x95c\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.core.atoms\x94"
    b"\x8c\x04Atom\x94\x93\x94\x8c\x01R\x94\x8c\x10repro.core.terms\x94"
    b"\x8c\x08Constant\x94\x93\x94\x8c\x01a\x94\x85\x94R\x94h\x04\x8c\x04Null"
    b"\x94\x93\x94\x8c\x02n1\x94\x85\x94R\x94\x86\x94\x86\x94R\x94."
)
#: ``pickle.dumps(Atom("R", [Variable("x"), Constant("b")]))``, likewise.
PICKLED_OPEN = (
    b"\x80\x04\x95f\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.core.atoms\x94"
    b"\x8c\x04Atom\x94\x93\x94\x8c\x01R\x94\x8c\x10repro.core.terms\x94"
    b"\x8c\x08Variable\x94\x93\x94\x8c\x01x\x94\x85\x94R\x94h\x04\x8c\x08Constant"
    b"\x94\x93\x94\x8c\x01b\x94\x85\x94R\x94\x86\x94\x86\x94R\x94."
)


class TestKernelBuiltAtoms:
    """An atom a head kernel (or the fact parser) builds unchecked is
    indistinguishable from one the public constructor builds over the
    same terms."""

    @pytest.mark.parametrize(
        "rule, values",
        [
            ("E(x,y) -> F(y,x)", ("a", "b")),
            ("E(x,y) -> F(y,z)", ("a", "b")),
            ("E(x,y) -> F(z,x,x)", ("a", "b")),
        ],
    )
    def test_same_as_public_constructor(self, rule, values):
        tgd = TGD.parse(rule)
        built = Trigger.from_row(tgd, tuple(map(Constant, values))).result()
        public = Atom(built.predicate, list(built.terms))
        assert built == public
        assert hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert built.sort_key() == public.sort_key()
        assert type(built) is type(public) is Atom
        assert built.is_ground
        assert pickle.dumps(built) == pickle.dumps(public)

    def test_pickled_bytes_are_pinned(self):
        ground = Atom("R", [Constant("a"), Null("n1")])
        kernel = Trigger.from_row(TGD.parse("E(x,y) -> R(x,y)"), ground.terms).result()
        parsed = parse_atom("R(a, ?n1)", data=True)
        assert pickle.dumps(ground) == PICKLED_GROUND
        assert pickle.dumps(kernel) == PICKLED_GROUND
        assert pickle.dumps(parsed) == PICKLED_GROUND and parsed.is_ground
        assert pickle.dumps(Atom("R", [Variable("x"), Constant("b")])) == PICKLED_OPEN

    @pytest.mark.parametrize("blob", [PICKLED_GROUND, PICKLED_OPEN])
    def test_round_trips_keep_groundness(self, blob):
        a = pickle.loads(blob)
        assert pickle.dumps(a) == blob
        assert a.is_ground == (blob is PICKLED_GROUND)
        for copied in (copy.copy(a), copy.deepcopy(a)):
            assert copied == a and copied.is_ground == a.is_ground


class TestPublicConstructorChecks:
    def test_non_string_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom(3, [Constant("a")])  # type: ignore[arg-type]

    def test_non_term_among_terms_rejected(self):
        with pytest.raises(TypeError):
            Atom("R", [Constant("a"), ("b",)])  # type: ignore[list-item]

    def test_is_ground_per_argument(self):
        assert Atom("R", [Constant("a"), Null("n")]).is_ground
        assert Atom("R", []).is_ground
        assert not Atom("R", [Constant("a"), Variable("x")]).is_ground
        assert not Atom("R", [Variable("x"), Null("n")]).is_ground

    def test_is_ground_is_read_only(self):
        with pytest.raises(AttributeError):
            atom("a").is_ground = False  # type: ignore[misc]
