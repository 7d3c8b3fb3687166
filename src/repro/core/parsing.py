"""Textual syntax for atoms, databases, TGDs, and conjunctive queries.

Grammar (whitespace-insensitive)::

    atom      ::=  NAME '(' term (',' term)* ')'
    term      ::=  NAME            (variable in rules, constant in data)
                |  '?' NAME        (labeled null, data only)
    tgd       ::=  atom (',' atom)*  '->'  atom (',' atom)*
    query     ::=  NAME '(' vars ')' ':-' atom (',' atom)*

``NAME`` is a letter or underscore followed by letters, digits and
underscores, or a run of digits; a null's name after the ``?`` is the
former kind only.

In a TGD, head variables that do not occur in the body are existentially
quantified (the paper writes them under ``∃``); TGDs are constant-free as
in Section 2.  ``->`` may also be written ``→``.

There is one scanning path and no token stream: a compiled atom pattern
is matched at a position, and consumes the whitespace around the atom,
so what follows it is read off the next character — ``,`` continues an
atom list, ``->``/``→`` and ``:-`` separate a rule's or query's sides.
The pattern only captures the argument text between the parentheses (a
run with no parenthesis in it, so the scan is linear and holds no
per-argument backtracking state); that text is split on its commas and
every piece must be a whole term.  A refusal is a :class:`ParseError`
naming the position where the offending atom or separator was expected.

Examples::

    parse_tgd("R(x,y), P(y,z) -> T(x,y,w)")     # w is existential
    parse_database("R(a,b), S(b,c)")
    parse_instance("R(a,?n1)")
    parse_query("Q(x) :- R(x,y), S(y,x)")
"""

from __future__ import annotations

import re
from typing import Iterable, List, Tuple, Union

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable
from repro.errors import ParseError

#: One atom with the whitespace around it: predicate, then argument text.
_ATOM = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+)\s*\(([^()]*)\)\s*")
#: A whole argument between commas: a name, or a ``?``-prefixed null name.
_is_term = re.compile(r"\s*(?:\??[A-Za-z_][A-Za-z_0-9]*|\d+)\s*").fullmatch
_SPACE = re.compile(r"\s*")


def _refuse(text: str, position: int, expected: str) -> ParseError:
    position = _SPACE.match(text, position).end()
    found = repr(text[position:position + 30]) if position < len(text) else "end of input"
    return ParseError(f"expected {expected} at position {position}, got {found}")


def _atom(text: str, position: int, data_mode: bool) -> Tuple[Atom, int]:
    """The atom starting at ``position`` and the position after it."""
    match = _ATOM.match(text, position)
    if match is None:
        raise _refuse(text, position, "an atom")
    predicate, arguments = match.group(1, 2)
    pieces = arguments.split(",")
    if not all(map(_is_term, pieces)):
        raise _refuse(text, position, "an atom with comma-separated terms")
    names = map(str.strip, pieces)
    if "?" not in arguments:
        terms = map(Constant if data_mode else Variable, names)
    elif data_mode:
        terms = [Null(name[1:]) if name[0] == "?" else Constant(name) for name in names]
    else:
        null = next(name for name in names if name[0] == "?")
        raise ParseError(
            f"nulls like {null!r} are not allowed in rules (atom at position {match.start(1)})"
        )
    return Atom(predicate, terms), match.end()


def _atom_list(text: str, position: int, data_mode: bool) -> Tuple[List[Atom], int]:
    """The comma-separated atoms starting at ``position``; at least one."""
    atoms = []
    while True:
        atom, position = _atom(text, position, data_mode)
        atoms.append(atom)
        if not text.startswith(",", position):
            return atoms, position
        position += 1


def _finish(text: str, position: int, what: str) -> None:
    if position != len(text):
        raise _refuse(text, position, f"the end of the {what}")


def parse_atom(text: str, data: bool = False) -> Atom:
    """Parse a single atom; ``data=True`` reads names as constants."""
    atom, position = _atom(text, 0, data)
    _finish(text, position, "atom")
    return atom


def parse_atoms(text: Union[str, Iterable[str]], data: bool = False) -> List[Atom]:
    """Parse a comma-separated atom list (or an iterable of atom strings)."""
    if not isinstance(text, str):
        return [parse_atom(part, data=data) for part in text]
    atoms, position = _atom_list(text, 0, data)
    _finish(text, position, "atom list")
    return atoms


def parse_database(text: Union[str, Iterable[str]]) -> Database:
    """Parse a database: a set of facts with constants only."""
    return Database(parse_atoms(text, data=True))


def parse_instance(text: Union[str, Iterable[str]]) -> Instance:
    """Parse an instance: facts may also contain ``?``-prefixed nulls."""
    return Instance(parse_atoms(text, data=True))


def parse_rule_parts(text: str) -> Tuple[List[Atom], List[Atom]]:
    """Split ``body -> head`` into parsed body and head atom lists."""
    body, position = _atom_list(text, 0, False)
    if not text.startswith(("->", "→"), position):
        raise _refuse(text, position, "'->'")
    position += 1 if text[position] == "→" else 2
    head, position = _atom_list(text, position, False)
    _finish(text, position, "rule")
    return body, head


def parse_query_parts(text: str) -> Tuple[str, List[Variable], List[Atom]]:
    """Split ``Q(x,y) :- body`` into (name, answer variables, body atoms)."""
    head, position = _atom(text, 0, False)
    if not text.startswith(":-", position):
        raise _refuse(text, position, "':-'")
    position += 2
    body, position = _atom_list(text, position, False)
    _finish(text, position, "query")
    answer_vars: List[Variable] = list(head.terms)
    body_vars = {v for atom in body for v in atom.variables()}
    for var in answer_vars:
        if var not in body_vars:
            raise ParseError(f"answer variable {var!r} not in query body")
    return head.predicate, answer_vars, body
