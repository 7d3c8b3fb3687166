"""Conjunctive queries and certain answers.

The chase's raison d'être (Section 1): the instance it builds is a
*universal model*, so a conjunctive query evaluated naively over the chase
result — keeping only null-free answer tuples — computes exactly the
*certain answers* over all models.  This module provides that substrate for
the data-exchange and ontology examples.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Instance
from repro.core.parsing import parse_query_parts
from repro.core.terms import Constant, Term, Variable


class ConjunctiveQuery:
    """A conjunctive query ``Q(x̄) :- φ(x̄, ȳ)``."""

    def __init__(self, name: str, answer_vars: Sequence[Variable], body: Iterable[Atom]):
        self.name = name
        self.answer_vars: Tuple[Variable, ...] = tuple(answer_vars)
        self.body: Tuple[Atom, ...] = tuple(body)
        body_vars = {v for atom in self.body for v in atom.variables()}
        for var in self.answer_vars:
            if var not in body_vars:
                raise ValueError(f"answer variable {var!r} does not occur in the body")

    @staticmethod
    def parse(text: str) -> "ConjunctiveQuery":
        """Parse ``Q(x,y) :- R(x,z), S(z,y)``."""
        name, answer_vars, body = parse_query_parts(text)
        return ConjunctiveQuery(name, answer_vars, body)

    def variables(self) -> Set[Variable]:
        return {v for atom in self.body for v in atom.variables()}

    def evaluate(self, instance: Instance) -> Set[Tuple[Term, ...]]:
        """All answer tuples over ``instance`` (may contain nulls)."""
        answers: Set[Tuple[Term, ...]] = set()
        for h in homomorphisms(self.body, instance):
            answers.add(tuple(h[v] for v in self.answer_vars))
        return answers

    def certain_answers(self, universal_model: Instance) -> Set[Tuple[Constant, ...]]:
        """Certain answers: evaluate on a universal model, keep null-free tuples."""
        return {
            tuple(answer)
            for answer in self.evaluate(universal_model)
            if all(isinstance(term, Constant) for term in answer)
        }

    def holds_in(self, instance: Instance) -> bool:
        """Boolean-query semantics: does some homomorphism exist?"""
        for _ in homomorphisms(self.body, instance):
            return True
        return False

    def __repr__(self) -> str:
        head_args = ",".join(v.name for v in self.answer_vars)
        body = ", ".join(repr(a) for a in self.body)
        return f"{self.name}({head_args}) :- {body}"
