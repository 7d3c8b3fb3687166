"""Unit tests for repro.core.parsing."""

import re
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.atoms import Atom
from repro.core.parsing import (
    ParseError,
    parse_atom,
    parse_atoms,
    parse_database,
    parse_instance,
    parse_query_parts,
    parse_rule_parts,
)
from repro.core.terms import Constant, Null, Variable
from repro.tgds.tgd import TGD, MultiHeadTGD


class TestAtomParsing:
    def test_rule_atom_variables(self):
        assert parse_atom("R(x,y)") == Atom("R", [Variable("x"), Variable("y")])

    def test_data_atom_constants(self):
        assert parse_atom("R(a,b)", data=True) == Atom(
            "R", [Constant("a"), Constant("b")]
        )

    def test_numeric_constants(self):
        assert parse_atom("R(1,2)", data=True) == Atom(
            "R", [Constant("1"), Constant("2")]
        )

    def test_nulls_in_data(self):
        assert parse_atom("R(?n)", data=True) == Atom("R", [Null("n")])

    def test_nulls_rejected_in_rules(self):
        with pytest.raises(ParseError):
            parse_atom("R(?n)")

    def test_whitespace_insensitive(self):
        assert parse_atom(" R ( x , y ) ") == parse_atom("R(x,y)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_atom("R(x) extra")

    def test_malformed(self):
        for bad in ["R(", "R)", "(x)", "R(x", "R(x,)"]:
            with pytest.raises(ParseError):
                parse_atom(bad)


class TestAtomListParsing:
    def test_comma_separated(self):
        atoms = parse_atoms("R(x,y), S(y)")
        assert len(atoms) == 2

    def test_iterable_of_strings(self):
        atoms = parse_atoms(["R(x,y)", "S(y)"])
        assert len(atoms) == 2

    def test_databases(self):
        db = parse_database("R(a,b), S(b)")
        assert len(db) == 2
        assert db.is_database()

    def test_instances_allow_nulls(self):
        inst = parse_instance("R(a,?n)")
        assert inst.nulls() == {Null("n")}


class TestRuleParsing:
    def test_basic_rule(self):
        body, head = parse_rule_parts("R(x,y), P(y,z) -> T(x,y,w)")
        assert len(body) == 2 and len(head) == 1

    def test_unicode_arrow(self):
        body, head = parse_rule_parts("R(x,y) → S(y)")
        assert len(body) == 1

    def test_multi_head(self):
        _, head = parse_rule_parts("R(x,y) -> S(x), S(y)")
        assert len(head) == 2

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_rule_parts("R(x,y), S(y)")


class TestQueryParsing:
    def test_basic_query(self):
        name, answer_vars, body = parse_query_parts("Q(x) :- R(x,y), S(y,x)")
        assert name == "Q"
        assert answer_vars == [Variable("x")]
        assert len(body) == 2

    def test_boolean_query_rejected_head_var(self):
        with pytest.raises(ParseError):
            parse_query_parts("Q(z) :- R(x,y)")


# -- round trips: built objects, rendered with random whitespace -------------

WHITESPACE = st.text(alphabet=" \t\n\r  ", max_size=2)
WORDS = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True)
NAMES = st.one_of(WORDS, st.from_regex(r"[0-9]{1,4}", fullmatch=True))


def _render(draw, tokens):
    """``tokens`` joined with independently drawn whitespace around each."""
    return "".join(draw(WHITESPACE) + token for token in tokens) + draw(WHITESPACE)


def _atom_tokens(atom):
    tokens = [atom.predicate, "("]
    for index, term in enumerate(atom.terms):
        tokens += ([","] if index else []) + [repr(term)]
    return tokens + [")"]


def _list_tokens(atoms):
    tokens = []
    for index, atom in enumerate(atoms):
        tokens += ([","] if index else []) + _atom_tokens(atom)
    return tokens


@st.composite
def atoms(draw, data):
    if data:
        term = st.one_of(st.builds(Constant, NAMES), st.builds(Null, WORDS))
    else:
        term = st.builds(Variable, NAMES)
    return Atom(draw(NAMES), draw(st.lists(term, min_size=1, max_size=4)))


@st.composite
def rendered_atom_lists(draw, data):
    built = draw(st.lists(atoms(data), min_size=1, max_size=4))
    return built, _render(draw, _list_tokens(built))


@st.composite
def rendered_rules(draw):
    body = draw(st.lists(atoms(False), min_size=1, max_size=3))
    head = draw(st.lists(atoms(False), min_size=1, max_size=2))
    arrow = draw(st.sampled_from(["->", "→"]))
    return body, head, _render(draw, _list_tokens(body) + [arrow] + _list_tokens(head))


def _without_quantifier(text):
    # The ``∃z̄`` prefix of a TGD's repr is display only; the grammar reads
    # head-only variables as existential without it.
    return re.sub(r"∃\S* ", "", text)


class TestRoundTrips:
    @given(atoms(True), st.data())
    def test_atom(self, atom, data):
        text = _render(data.draw, _atom_tokens(atom))
        assert parse_atom(text, data=True) == atom
        assert parse_atom(repr(atom), data=True) == atom

    @given(rendered_atom_lists(True))
    def test_data_atom_list(self, case):
        built, text = case
        assert parse_atoms(text, data=True) == built
        assert parse_atoms([repr(atom) for atom in built], data=True) == built

    @given(rendered_atom_lists(False))
    def test_rule_atom_list(self, case):
        built, text = case
        assert parse_atoms(text) == built

    @given(rendered_rules())
    def test_rule(self, case):
        body, head, text = case
        assert parse_rule_parts(text) == (body, head)
        multi = MultiHeadTGD.parse(text)
        assert multi == MultiHeadTGD(body, head)
        assert MultiHeadTGD.parse(repr(multi)) == multi
        if len(head) == 1:
            tgd = TGD.parse(text)
            assert tgd == TGD(body, head[0])
            back = TGD.parse(_without_quantifier(repr(tgd)))
            assert back == tgd and repr(back) == repr(tgd)
            assert back.digest_prefix() == TGD(body, head[0]).digest_prefix()
            if tgd.existential_variables:
                with pytest.raises(ParseError):
                    TGD.parse(repr(tgd))
            else:
                assert TGD.parse(repr(tgd)) == tgd

    @given(st.lists(atoms(False), min_size=1, max_size=3), st.data())
    def test_query(self, body, data):
        variables = sorted({v for atom in body for v in atom.variables()})
        answer = data.draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3))
        head = Atom(data.draw(NAMES), answer)
        text = _render(data.draw, _atom_tokens(head) + [":-"] + _list_tokens(body))
        assert parse_query_parts(text) == (head.predicate, answer, body)


# -- refusals ----------------------------------------------------------------

VALID_ATOMS = ["R(x,y)", "R ( a , ?n )", "12(3,4)", "Rel_1( x1 ,\t_y )", "٣(x)"]


class TestRefusals:
    @pytest.mark.parametrize("text", VALID_ATOMS)
    def test_every_strict_prefix_of_an_atom(self, text):
        parse_atom(text, data=True)
        for end in range(len(text)):
            for parse in (parse_atom, parse_atoms):
                with pytest.raises(ParseError):
                    parse(text[:end], data=True)

    @given(atoms(True), st.data())
    def test_every_strict_prefix_of_a_generated_atom(self, atom, data):
        text = _render(data.draw, _atom_tokens(atom)).rstrip()
        for end in range(len(text)):
            with pytest.raises(ParseError):
                parse_atom(text[:end], data=True)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_atom, "R(?n)"),
            (parse_atoms, "R(x), S(x,?n)"),
            (parse_rule_parts, "R(x) -> S(?n)"),
            (parse_rule_parts, "R(?n, x) -> S(x)"),
            (parse_query_parts, "Q(x) :- R(x,?n)"),
            (TGD.parse, "R(x,y) -> S(y,?z)"),
        ],
    )
    def test_nulls_in_rules(self, parse, text):
        with pytest.raises(ParseError, match="nulls like '\\?"):
            parse(text)

    @pytest.mark.parametrize(
        "text",
        ["-> R(x)", "R(x) ->", "R(x), -> S(x)", "R(x) -> , S(x)", " → ", "R(x) → "],
    )
    def test_arrow_with_an_empty_side(self, text):
        with pytest.raises(ParseError):
            parse_rule_parts(text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_atom, "R(x,,y)"),
            (parse_atom, "R(,x)"),
            (parse_atoms, "R(x),,S(y)"),
            (parse_atoms, "R(x) , , S(y)"),
            (parse_rule_parts, "R(x) -> S(x),,T(x)"),
            (parse_query_parts, "Q(x) :- R(x),,S(x)"),
        ],
    )
    def test_doubled_commas(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "", "  ", "R()", "R( )", "R(x,)", "R(x y)", "R(x) S(x)", "R(x))",
            "R(x)(y)", "?n(x)", "R(?1)", "R(1x)", "R(x-y)", "R(x),", "R(x)->S(x)",
        ],
    )
    def test_malformed_atom_lists(self, text):
        with pytest.raises(ParseError):
            parse_atoms(text, data=True)

    @pytest.mark.parametrize(
        "text", ["Q(x) :- ", ":- R(x)", "Q(x) : - R(x)", "Q(x), R(x) :- R(x)"]
    )
    def test_malformed_queries(self, text):
        with pytest.raises(ParseError):
            parse_query_parts(text)

    def test_error_names_position_and_text(self):
        with pytest.raises(ParseError, match="position 6, got 'S\\(x y\\)'"):
            parse_atoms("R(a), S(x y)", data=True)
        with pytest.raises(ParseError, match="position 5, got end of input"):
            parse_atoms("R(a),", data=True)
        with pytest.raises(ParseError, match="'\\?n' .* at position 8"):
            parse_rule_parts("R(x) -> S(?n)")

    @pytest.mark.parametrize(
        "text",
        [
            "R(" + "x," * 500_000 + ")",
            "R(" + "x," * 500_000,
            "R(" + " " * 1_000_000,
            "R(" + "x" * 1_000_000 + " y)",
            "R" + " " * 1_000_000 + "x",
        ],
        ids=["trailing-comma", "unclosed", "blank-arguments", "two-names", "no-parenthesis"],
    )
    def test_megabyte_malformed_atom_is_refused_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_atom(text, data=True)
        assert time.perf_counter() - start < 1.0
