"""Rule tables: the ranked trigger order and the tables' owners.

:meth:`repro.chase.plans.RuleTables.order` sorts discovery rows by
``(birth, rule rank)`` and formats canonical keys only to break ties
inside a rank.  The triggers built from its rows must equal the plain
``(birth, canonical_key)`` sort on any rule list, ties kept in input
order — including rules whose canonical leads are prefixes of one another
(they share a rank), equal rules under different names (identical keys),
and many same-birth rows of one rule.

:class:`repro.chase.plans.RuleTables` is taken once by its owner (an
engine, a weakly-restricted chase) and kept for every round;
the next owner over the identical rule objects shares them
(:meth:`RuleTables.of`).  The tables of an equal but distinct list (whose
rule names may differ, and names feed the null digests) hold that list's
own rule objects, and a stream of fresh lists keeps at most one alive.
"""

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.core.atoms import Atom
from repro.core.parsing import parse_database
from repro.core.terms import Constant, Variable
from repro.chase.engine import ChaseEngine
from repro.chase.plans import RuleTables
from repro.chase.real_oblivious import RealObliviousChase
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger, in_canonical_order, triggers_of
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


def random_rows(rng, rules):
    values = [Constant(name) for name in NAMES]
    rows = []
    for _ in range(rng.randint(1, 40)):
        index = rng.randrange(len(rules))
        row = tuple(rng.choice(values) for _ in rules[index].body_order)
        rows.append((index, row, rng.randint(0, 3)))
    # Many same-birth rows of one rule (one rule, one birth, few values:
    # repeats of one key too).
    index = rng.randrange(len(rules))
    for _ in range(rng.randint(2, 12)):
        row = tuple(rng.choice(values[:2]) for _ in rules[index].body_order)
        rows.append((index, row, 1))
    rng.shuffle(rows)
    return rows


def assert_same_triggers(got, expected):
    """Equal triggers of the very same rule objects, in the same order."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tgd is b.tgd and a.values == b.values


def assert_same_objects(got, expected):
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


@pytest.mark.parametrize("seed", range(40))
def test_ranked_order_is_the_canonical_order(seed):
    rng = random.Random(seed)
    rules = random_rules(rng)
    tables = RuleTables(rules)
    rows = random_rows(rng, rules)
    got = triggers_of(rules, tables.order(list(rows)))
    # A stable sort keeps ties (equal keys of renamed rules) in input order.
    expected = sorted(
        zip(triggers_of(rules, rows), rows),
        key=lambda pair: (pair[1][2], pair[0].canonical_key),
    )
    assert_same_triggers(got, [t for t, _ in expected])
    # Births ignored: the canonical order alone, for rows and triggers.
    canonical = sorted(triggers_of(rules, rows), key=lambda t: t.canonical_key)
    assert_same_triggers(triggers_of(rules, tables.order(rows, by_birth=False)), canonical)
    fresh = triggers_of(rules, rows)
    expected = sorted(fresh, key=lambda t: t.canonical_key)
    assert_same_objects(in_canonical_order(fresh, tables), expected)


def test_prefix_leads_share_a_rank_and_unrelated_leads_do_not():
    base = TGD([Atom("P", [VARIABLES[0]])], Atom("Q", [VARIABLES[0]]), "base")
    longer = extend(base, "S", "longer")
    longest = extend(longer, "a", "longest")
    sibling = extend(base, "T", "sibling")
    other = TGD([Atom("E", [VARIABLES[0]])], Atom("Q", [VARIABLES[0]]), "other")
    rules = [longest, other, base, sibling, longer]
    assert lead_of(longer).startswith(lead_of(base))
    tables = RuleTables(rules)
    ranks = tables.ranks
    assert len({ranks[rules.index(rule)] for rule in (base, longer, longest, sibling)}) == 1
    assert ranks[rules.index(other)] < ranks[rules.index(base)]  # "(E" < "(P"
    # Within the shared rank the values decide: "Q(x), ((x, S" vs "a".
    triggers = [Trigger.from_row(rule, (Constant("a"),)) for rule in rules]
    got = in_canonical_order(triggers, tables)
    assert [t.canonical_key for t in got] == sorted(t.canonical_key for t in triggers)


def test_rules_outside_the_ranks_fall_back_to_canonical_keys():
    rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
    tables = RuleTables(rules)
    copy = TGD(rules[1].body, rules[1].head, "renamed")  # equal: ranked as rules[1]
    outside = parse_tgds(["E(x,y) -> D(x,y)"])[0]  # equal to no rule of the list
    a, b = Constant("a"), Constant("b")
    triggers = [
        Trigger.from_row(copy, (a, b)),
        Trigger.from_row(rules[0], (b, a)),
        Trigger.from_row(rules[0], (a, b)),
    ]
    expected = sorted(triggers, key=lambda t: t.canonical_key)
    assert_same_objects(in_canonical_order(list(triggers), tables), expected)
    triggers.append(Trigger.from_row(outside, (b, b)))
    expected = sorted(triggers, key=lambda t: t.canonical_key)
    assert_same_objects(in_canonical_order(list(triggers), tables), expected)


def count_canonical_keys(monkeypatch, rules):
    """Count every canonical key formatted for ``rules``, by any path.

    Each rule's head-kernel template becomes a ``str`` whose ``%``
    (the only way a canonical key is formatted) counts its calls.
    """
    formatted = []

    class Template(str):
        def __mod__(self, values):
            formatted.append(values)
            return str.__mod__(self, values)

    for rule in rules:
        kernel = rule.head_kernel()
        monkeypatch.setattr(kernel, "canonical", Template(kernel.canonical))
    return formatted


def test_round_discovery_formats_no_key_when_births_separate_each_rule(monkeypatch):
    # Copy and existential layers over a chain: within a round every rule
    # fires once per chain edge, each edge at its own birth.
    rules = parse_tgds(
        [f"P{j}(x,y) -> P{j + 1}(x,y)" for j in range(4)]
        + [f"P{j}(x,y) -> Q{j}(y,w)" for j in range(4)]
    )
    database = parse_database(", ".join(f"P0(c{i},c{i + 1})" for i in range(5)))
    formatted = count_canonical_keys(monkeypatch, rules)
    engine = ChaseEngine(database, rules)
    # Seeding ignores births, so the five P0 rows of each P0 rule share a
    # rank and are ordered by their keys.
    assert len(formatted) == 2 * 5
    formatted.clear()
    with engine.running():
        reason, applied, _ = engine.drive()
    assert reason is None and engine.rounds > 1 and applied > 2 * 5
    assert formatted == []


def test_owners_build_their_tables_once_for_every_round(monkeypatch):
    built = []
    build = RuleTables.__init__

    def counting(self, tgds):
        built.append(tuple(tgds))
        build(self, tgds)

    monkeypatch.setattr(RuleTables, "__init__", counting)
    # Each owner starts without a previous owner's tables to share.
    monkeypatch.setattr(RuleTables, "_last", None)
    rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(x,y)", "G(x,y) -> H(y,w)"])
    result = restricted_chase(
        parse_database("E(a,b), E(b,c)"), rules, strategy="semi_naive", prune=False
    )
    assert result.terminated and len(result.derivation.steps) == 6
    # The engine's discovery, ranks and witness routing: one set of tables.
    assert built == [tuple(rules)]
    built.clear()
    RuleTables._last = None
    chase = WeaklyRestrictedChase([(atom, 0) for atom in parse_database("E(a,b)")], rules)
    assert chase.run(10) and len(chase.occurrences) == 4
    assert built == [tuple(rules)]
    built.clear()
    RuleTables._last = None
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
        assert all(any(kernel is rule.head_kernel() for rule in second) for _, kernel in routes)
    database = parse_database("E(a,b)")
    ours = restricted_chase(database, second, strategy="semi_naive", prune=False)
    theirs = restricted_chase(database, first, strategy="semi_naive", prune=False)
    assert all(any(t.tgd is rule for rule in second) for t in ours.derivation.steps)
    # The names feed the nulls: the lists' closures differ in them alone.
    assert ours.instance.sorted_atoms() != theirs.instance.sorted_atoms()


def test_chases_over_one_rule_list_share_its_tables(monkeypatch):
    built = []
    build = RuleTables.__init__

    def counting(self, tgds):
        built.append(tuple(tgds))
        build(self, tgds)

    monkeypatch.setattr(RuleTables, "__init__", counting)
    rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "H(x) -> H(x)"])
    database = parse_database("E(a,b), E(b,c)")
    first = ChaseEngine(database, rules)
    second = ChaseEngine(database, list(rules))
    # Pruning drops the H rule; both live subsets are new tuples of the
    # same rule objects.
    assert first.live is not second.live
    assert second._tables is first._tables and len(built) == 1
    runs = []
    for engine in (first, second):
        with engine.running():
            engine.drive()
        runs.append(engine.instance.sorted_atoms())
    assert runs[0] == runs[1] and len(built) == 1


def test_equal_renamed_rule_list_gets_its_own_tables_and_nulls():
    texts = ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"]
    first = parse_tgds(texts)
    second = [TGD(rule.body, rule.head, rule.name + "-b") for rule in first]
    assert first == second  # equality ignores the names
    database = parse_database("E(a,b)")
    ours, theirs = ChaseEngine(database, first), ChaseEngine(database, second)
    assert ours._tables is not theirs._tables
    assert all(a is b for a, b in zip(theirs._tables.tgds, second))
    # Back to the first list: equal to the last, but not identical to it.
    again = ChaseEngine(database, first)
    assert again._tables is not theirs._tables
    assert all(a is b for a, b in zip(again._tables.tgds, first))
    nulls = []
    for engine in (ours, theirs):
        with engine.running():
            engine.drive()
        nulls.append({t for atom in engine.instance for t in atom.nulls()})
    assert nulls[0] and nulls[1] and not nulls[0] & nulls[1]


def test_fresh_rule_lists_are_not_kept_alive():
    database = parse_database("E(a,b), E(b,c)")
    tables = []

    def chase_fresh_list(keep):
        rules = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
        engine = ChaseEngine(database, rules)
        with engine.running():
            engine.drive()
        if keep:
            tables.append(weakref.ref(engine._tables))

    for _ in range(1000):
        chase_fresh_list(keep=True)
    gc.collect()
    assert sum(ref() is not None for ref in tables) <= 1
    # The retained memory does not grow with the lists chased: one list's
    # tables, plans and kernels take kilobytes, so keeping each would add
    # megabytes over 900 lists.
    tracemalloc.start()
    try:
        for _ in range(100):
            chase_fresh_list(keep=False)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(900):
            chase_fresh_list(keep=False)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 256 * 1024
