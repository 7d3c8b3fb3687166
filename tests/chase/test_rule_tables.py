"""Rule tables: the ranked trigger order and the tables' owners.

:func:`repro.chase.trigger.in_birth_order` sorts discovery hits by
``(birth, rule rank)`` and formats canonical keys only to break ties
inside a rank.  It must equal the plain ``(birth, canonical_key)`` sort on
any rule list, ties kept in input order — including rules whose canonical
leads are prefixes of one another (they share a rank), equal rules under
different names (identical keys), and many same-birth hits of one rule.

:class:`repro.chase.plans.RuleTables` is built once by its owner (an
engine, a matcher, a weakly-restricted chase) and kept for every round;
the tables of an equal but distinct list (whose rule names may differ,
and names feed the null digests) hold that list's own rule objects.
"""

import random

import pytest

from repro.core.atoms import Atom
from repro.core.parsing import parse_database
from repro.core.terms import Constant, Variable
from repro.chase.plans import RuleTables
from repro.chase.real_oblivious import RealObliviousChase
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger, in_birth_order, in_canonical_order
from repro.chase.weakly_restricted import WeaklyRestrictedChase
from repro.tgds.tgd import TGD, parse_tgds

#: Constant names mixing cases and punctuation, so a value can sort before
#: or after the text that extends a lead.
NAMES = ["a", "B", "c", "S", "Zz", "q%", "(", "m,n"]
VARIABLES = [Variable(name) for name in ("x", "y", "z", "w")]
PREDICATES = ["P", "Q", "E", "PQ", "P%r"]


def lead_of(tgd):
    return tgd.head_kernel().lead


def extend(tgd, suffix, name):
    """A rule whose lead starts with ``tgd``'s lead: its head predicate
    continues the text ``tgd``'s canonical keys have before their first
    value."""
    tail = lead_of(tgd)[len("(" + repr(tgd)):]
    head = Atom(repr(tgd.head) + tail + suffix, tgd.head.terms)
    return TGD(tgd.body, head, name)


def random_rule(rng, name):
    body = []
    for _ in range(rng.randint(1, 2)):
        arity = rng.randint(0, 2)
        body.append(Atom(rng.choice(PREDICATES), [rng.choice(VARIABLES[:3]) for _ in range(arity)]))
    pool = sorted({v for atom in body for v in atom.terms}, key=lambda v: v.name)
    pool.append(VARIABLES[3])  # existential
    head = Atom(rng.choice(PREDICATES), [rng.choice(pool) for _ in range(rng.randint(0, 2))])
    return TGD(body, head, name)


def random_rules(rng):
    rules = [random_rule(rng, f"r{i}") for i in range(rng.randint(2, 6))]
    for index in range(rng.randint(1, 3)):
        base = rng.choice(rules)
        rules.append(extend(base, rng.choice(NAMES), f"x{index}"))
        if rng.random() < 0.5:
            rules.append(extend(rules[-1], rng.choice(NAMES), f"xx{index}"))
    for index in range(rng.randint(1, 2)):
        base = rng.choice(rules)
        rules.append(TGD(base.body, base.head, f"{base.name}-renamed{index}"))
    rng.shuffle(rules)
    return rules


def random_hits(rng, rules):
    values = [Constant(name) for name in NAMES]
    hits = []
    for _ in range(rng.randint(1, 40)):
        tgd = rng.choice(rules)
        row = tuple(rng.choice(values) for _ in tgd.body_order)
        hits.append((rng.randint(0, 3), Trigger.from_row(tgd, row)))
    # Many same-birth hits of one rule (one rule, one birth, few values:
    # repeats of one key too).
    tgd = rng.choice(rules)
    for _ in range(rng.randint(2, 12)):
        row = tuple(rng.choice(values[:2]) for _ in tgd.body_order)
        hits.append((1, Trigger.from_row(tgd, row)))
    rng.shuffle(hits)
    return hits


def assert_same_objects(got, expected):
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


@pytest.mark.parametrize("seed", range(40))
def test_ranked_order_is_the_canonical_order(seed):
    rng = random.Random(seed)
    rules = random_rules(rng)
    ranks = RuleTables(rules).ranks
    hits = random_hits(rng, rules)
    # Fresh triggers: the ranked sort must not lean on cached keys.
    got = in_birth_order(list(hits), ranks)
    # A stable sort keeps ties (equal keys of renamed rules) in input order.
    expected = sorted(hits, key=lambda hit: (hit[0], hit[1].canonical_key))
    assert_same_objects(got, [t for _, t in expected])
    fresh = [(birth, Trigger.from_row(t.tgd, t.values)) for birth, t in hits]
    canonical = sorted((t for _, t in fresh), key=lambda t: t.canonical_key)
    assert_same_objects(in_canonical_order([t for _, t in fresh], ranks), canonical)


def test_prefix_leads_share_a_rank_and_unrelated_leads_do_not():
    base = TGD([Atom("P", [VARIABLES[0]])], Atom("Q", [VARIABLES[0]]), "base")
    longer = extend(base, "S", "longer")
    longest = extend(longer, "a", "longest")
    sibling = extend(base, "T", "sibling")
    other = TGD([Atom("E", [VARIABLES[0]])], Atom("Q", [VARIABLES[0]]), "other")
    rules = [longest, other, base, sibling, longer]
    assert lead_of(longer).startswith(lead_of(base))
    ranks = RuleTables(rules).ranks
    assert len({ranks[id(rule)] for rule in (base, longer, longest, sibling)}) == 1
    assert ranks[id(other)] < ranks[id(base)]  # "(E" < "(P"
    # Within the shared rank the values decide: "Q(x), ((x, S" vs "a".
    triggers = [Trigger.from_row(rule, (Constant("a"),)) for rule in rules]
    got = in_canonical_order(triggers, ranks)
    assert [t.canonical_key for t in got] == sorted(t.canonical_key for t in triggers)


def test_rules_outside_the_ranks_fall_back_to_canonical_keys():
    rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
    ranks = RuleTables(rules).ranks
    copy = TGD(rules[1].body, rules[1].head, rules[1].name)  # equal, not ranked
    a, b = Constant("a"), Constant("b")
    hits = [
        (0, Trigger.from_row(copy, (a, b))),
        (0, Trigger.from_row(rules[0], (b, a))),
        (0, Trigger.from_row(rules[0], (a, b))),
    ]
    expected = sorted(hits, key=lambda hit: (hit[0], hit[1].canonical_key))
    assert_same_objects(in_birth_order(list(hits), ranks), [t for _, t in expected])


def test_round_discovery_formats_no_key_when_births_separate_each_rule():
    # Copy and existential layers over a chain: within a round every rule
    # fires once per chain edge, each edge at its own birth.
    rules = parse_tgds(
        [f"P{j}(x,y) -> P{j + 1}(x,y)" for j in range(4)]
        + [f"P{j}(x,y) -> Q{j}(y,w)" for j in range(4)]
    )
    database = parse_database(", ".join(f"P0(c{i},c{i + 1})" for i in range(5)))
    result = restricted_chase(database, rules, strategy="semi_naive", prune=False)
    assert result.terminated
    later = [t for t in result.derivation.steps if t.tgd.body[0].predicate != "P0"]
    assert later and all(t._canonical is None for t in later)


def test_owners_build_their_tables_once_for_every_round(monkeypatch):
    built = []
    build = RuleTables.__init__

    def counting(self, tgds):
        built.append(tuple(tgds))
        build(self, tgds)

    monkeypatch.setattr(RuleTables, "__init__", counting)
    rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(x,y)", "G(x,y) -> H(y,w)"])
    result = restricted_chase(
        parse_database("E(a,b), E(b,c)"), rules, strategy="semi_naive", prune=False
    )
    assert result.terminated and len(result.derivation.steps) == 6
    # The engine's discovery and ranks, and its witness index's routing.
    assert built == [tuple(rules)] * 2
    built.clear()
    chase = WeaklyRestrictedChase([(atom, 0) for atom in parse_database("E(a,b)")], rules)
    assert chase.run(10) and len(chase.occurrences) == 4
    assert built == [tuple(rules)] * 2
    built.clear()
    assert len(RealObliviousChase(parse_database("E(a,b)"), rules)) == 4
    assert built == [tuple(rules)]


def test_equal_but_distinct_rule_lists_keep_their_own_rules():
    texts = ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"]
    first = parse_tgds(texts)
    second = [TGD(rule.body, rule.head, rule.name + "-b") for rule in first]
    assert first == second  # equality ignores the names
    tables = RuleTables(second)
    assert all(a is b for a, b in zip(tables.tgds, second))
    for entries in tables.discovery.values():
        for tgd_index, pivot_index, plan in entries:
            assert plan is second[tgd_index].join_plans()[pivot_index]
    for routes in tables.heads.values():
        assert all(any(tgd is rule for rule in second) for tgd, _, _ in routes)
    database = parse_database("E(a,b)")
    ours = restricted_chase(database, second, strategy="semi_naive", prune=False)
    theirs = restricted_chase(database, first, strategy="semi_naive", prune=False)
    assert all(any(t.tgd is rule for rule in second) for t in ours.derivation.steps)
    # The names feed the nulls: the lists' closures differ in them alone.
    assert ours.instance.sorted_atoms() != theirs.instance.sorted_atoms()
