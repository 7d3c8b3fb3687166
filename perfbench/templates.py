"""TGD-set templates whose termination answer is known from first principles.

A template is a tuple of rule texts.  ``rename`` gives it fresh predicate
and variable names, which changes no answer.
"""

from __future__ import annotations

import random
import re
from typing import List

ALL_TERMINATING = "all-terminating"
NOT_ALL_TERMINATING = "not-all-terminating"

#: Terminating sets the portfolio's certificate stage settles.
TERMINATING = [
    # Full TGDs never invent a null.
    ("E(x,y), E(y,z) -> E(x,z)", "E(x,y) -> E(y,x)"),
    # Weakly acyclic: each rule's null lands in a later predicate.
    ("A(x,y) -> B(y,z)", "B(x,y) -> C(y,z)", "C(x,y) -> D(x)"),
    # The swap closes the loop: P fires once per P-fact, R only swaps.
    ("P(x) -> R(x,y)", "R(x,y) -> R(y,x)"),
    # The sticky example of the paper's Section 2: R and P are never
    # derived, so the second rule fires on database atoms only.
    ("T(x,y,z) -> S(y,w)", "R(x,y), P(y,z) -> T(x,y,w)"),
]

#: Diverging sets that pass every cheap stage and need the sticky decider.
STICKY_DIVERGING = [
    # Shift chain: every new null starts a new R-edge.
    ("R(x,y) -> R(y,z)",),
    # Alternating chain over two predicates.
    ("R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"),
    # Feed-forward loop: each null becomes a new A-element.
    ("A(x) -> R(x,y)", "R(x,y) -> A(y)"),
]

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename(rules, rng: random.Random, taken: set) -> List[str]:
    """The rules with fresh predicates (never in ``taken``, which grows) and
    fresh variables, in shuffled order."""
    predicates = {}
    renamed = []
    for text in rules:
        variables = {}

        def replace(match):
            token = match.group(0)
            is_predicate = text[match.end():match.end() + 1] == "("
            table = predicates if is_predicate else variables
            while token not in table:
                if is_predicate:
                    name = f"{token}{rng.randrange(10_000)}"
                    if name not in taken:
                        taken.add(name)
                        table[token] = name
                else:
                    name = f"{token.lower()}{rng.randrange(100)}"
                    if name not in variables.values():
                        table[token] = name
            return table[token]

        renamed.append(_TOKEN.sub(replace, text))
    rng.shuffle(renamed)
    return renamed
