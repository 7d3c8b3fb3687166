"""The derivation searches' answers, pinned across commits.

``exists_derivation_of_length`` and ``multihead_exists_derivation_of_length``
are memoized depth-first searches over trigger choices.  Which derivation
they find depends on the order they try triggers in, and whether they
answer at all depends on how they count explored nodes against
``max_nodes``.  These tests run a seeded corpus through both and compare
a digest of every outcome with the digest the searches gave when it was
pinned, so a change to the search order or the node accounting fails
here even when every answer is still a correct one.

Each case records one outcome: the found derivation's canonical keys,
``None``, or ``SearchBudgetExceeded``.  Only a change meant to alter the
searches' answers re-pins a digest, and says so.
"""

import hashlib
import random
from collections import Counter

from repro.core.instance import Database
from repro.core.parsing import parse_database
from repro.chase.multihead import example_b1_tgds, multihead_exists_derivation_of_length
from repro.chase.restricted import exists_derivation_of_length
from repro.errors import SearchBudgetExceeded
from repro.guarded.decision import candidate_databases
from repro.tgds.generators import GeneratorProfile, corpus

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")

#: Small rule sets with many existentials: most searches end quickly, and
#: the diverging ones run into their length or their node budget.
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.6
)

PINNED_SINGLE_HEAD_SHA256 = "0619c256f00ed19403eaa666edca7a061820ee1c552f51f31315b75e6440aebb"
PINNED_MULTIHEAD_SHA256 = "76ff08c77975a2f2da51820de6955e6fef7547ffcb6d4f579d62f245aa5e7964"


def single_head_cases(size=300, seed=37):
    """``(tgds, database, length, max_nodes)``: the union of the rule set's
    candidate databases, lengths 1-30, and node budgets log-uniform from 3
    to 20,000."""
    rng = random.Random(seed)
    for index in range(size):
        family = FAMILIES[index % len(FAMILIES)]
        (tgds,) = corpus(family, 1, base_seed=seed * 1000 + index, profile=PROFILE)
        database = Database(atom for db in candidate_databases(tgds) for atom in db)
        length = rng.randint(1, 30)
        max_nodes = round(3 * (20_000 / 3) ** rng.random())
        yield tgds, database, length, max_nodes


def multihead_cases():
    """Example B.1 from its unfair start and from its fair point."""
    tgds = example_b1_tgds()
    for facts in ("R(a,b,b)", "R(a,b,b), R(b,b,b)"):
        for length in (1, 2, 5, 12, 30):
            for max_nodes in (3, 30, 300, 20_000):
                yield tgds, parse_database(facts), length, max_nodes


def outcome(search, case):
    tgds, database, length, max_nodes = case
    try:
        found = search(database, tgds, length, max_nodes)
    except SearchBudgetExceeded:
        return "budget"
    if found is None:
        return "none"
    steps = getattr(found, "steps", found)
    return "found " + " ".join(trigger.canonical_key for trigger in steps)


def digest(outcomes):
    text = "\n".join(f"{index} {line}" for index, line in enumerate(outcomes))
    return hashlib.sha256(text.encode()).hexdigest()


def kinds(outcomes):
    return Counter(line.split(" ", 1)[0] for line in outcomes)


def test_single_head_search_is_pinned():
    outcomes = [outcome(exists_derivation_of_length, case) for case in single_head_cases()]
    assert len(outcomes) == 300
    counts = kinds(outcomes)
    assert set(counts) == {"found", "none", "budget"}, counts
    assert digest(outcomes) == PINNED_SINGLE_HEAD_SHA256


def test_multihead_search_is_pinned():
    outcomes = [
        outcome(multihead_exists_derivation_of_length, case) for case in multihead_cases()
    ]
    counts = kinds(outcomes)
    assert set(counts) == {"found", "none", "budget"}, counts
    assert digest(outcomes) == PINNED_MULTIHEAD_SHA256
