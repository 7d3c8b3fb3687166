"""Compiled join plans ≡ the per-atom reference, on bodies the corpus lacks.

Every trigger the chase engines discover comes from the generated kernel
of one :class:`repro.chase.plans.JoinPlan` per ``(tgd, pivot)``.  These
tests check the plans against the per-atom
:func:`repro.chase.trigger.new_triggers` — in set, in the step-at-a-time
``(birth, canonical)`` order, and in the rule each trigger resolves to —
on body shapes the generator corpus does not produce: constants in body
atoms, a variable repeated inside one atom (at the pivot and at a later
step), self-joins where the strict/non-strict delta limit decides, equal
rules under different names, delta predicates no rule body uses, and body
atoms whose terms are all bound when the plan reaches them — constants
only, zero arity, a predicate of mixed arities, and one past
:data:`repro.chase.plans.LOOPS_PER_FUNCTION` — which the plans answer with
a membership test instead of a bucket walk.
They do so for a round's delta (``seminaive_triggers``) and for the
deltas outside a round: the engine's seeding, each ``apply``, and
``inject_atoms``.  Long bodies (a 25-atom chain, a 40-atom closed walk)
check the chain of generated functions a plan deeper than CPython's
nested-block limit compiles into; rules renamed to awkward predicate and
constant names check that no name reaches the generated source and that
equal shapes share one kernel.  Instances come from the default backend,
so the tier-1 ``CHASE_BACKEND=sqlite`` job runs the same checks on disk.
"""

import random

import pytest

from repro.backends import make_instance
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Variable
from repro.chase.engine import ChaseEngine
from repro.chase.plans import LOOPS_PER_FUNCTION, RuleTables, discovery_rows
from repro.chase.restricted import exists_derivation_of_length, restricted_chase
from repro.chase.trigger import new_triggers, seminaive_triggers
from repro.errors import SearchBudgetExceeded
from repro.guarded.decision import candidate_databases
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import TGD, parse_tgds

NODES = [Constant(name) for name in "abcd"]
x, y, z, w = (Variable(name) for name in "xyzw")
a, b = NODES[:2]

#: Predicates rule bodies draw from, with arities; ``V`` only ever shows
#: up in deltas.
SCHEMA = {"R": 2, "S": 2, "U": 1}


def R(*terms):
    return Atom("R", terms)


def S(*terms):
    return Atom("S", terms)


def U(*terms):
    return Atom("U", terms)


def Z():
    return Atom("Z", [])


#: ``x0``, ``x1``, … for the long bodies.
XS = [Variable(f"x{i}") for i in range(40)]


def chain(length):
    """``R(x0,x1), R(x1,x2), …`` — ``length`` atoms, self-joins all."""
    return [R(XS[i], XS[i + 1]) for i in range(length)]


def rule(body, head, name):
    """A TGD over ``body``, which may hold constants.

    TGDs are constant-free by construction; the plans still check
    constants by identity, so this builds one past the constructor's
    check: body constants become placeholder variables, then the real
    body is swapped in with the state derived from it.
    """
    placeholders = {}
    stand_in = [
        Atom(
            atom.predicate,
            [
                term
                if isinstance(term, Variable)
                else placeholders.setdefault(term, Variable(f"k{len(placeholders)}"))
                for term in atom.terms
            ],
        )
        for atom in body
    ]
    tgd = TGD(stand_in, head, name=name)
    body = tuple(body)
    variables = {v for atom in body for v in atom.variables()}
    body_order = tuple(sorted(variables, key=lambda v: v.name))
    object.__setattr__(tgd, "body", body)
    object.__setattr__(tgd, "_body_order", body_order)
    object.__setattr__(
        tgd, "_frontier_slots", tuple(body_order.index(v) for v in tgd.frontier_order)
    )
    object.__setattr__(tgd, "_hash", hash((body, tgd.head)))
    return tgd


#: One hand-written rule set per edge case.
CASES = {
    "constants": [
        rule([R(x, a)], U(x), "c1"),
        rule([R(x, y), S(y, b)], Atom("H", [x, z]), "c2"),
        rule([S(a, y), R(y, a)], U(y), "c3"),
    ],
    "repeat_at_pivot": [
        rule([R(x, x), S(x, y)], Atom("H", [x, y]), "p1"),
        rule([S(y, y)], Atom("H", [y, z]), "p2"),
    ],
    "repeat_at_step": [
        rule([U(x), R(x, x)], Atom("H", [x, z]), "s1"),
        rule([R(x, y), S(y, y)], Atom("H", [x, y]), "s2"),
        rule([R(x, y), S(z, z)], Atom("H", [x, z]), "s3"),
    ],
    "self_joins": [
        rule([R(x, y), R(y, z)], Atom("H", [x, z]), "j1"),
        rule([R(x, y), R(y, x)], Atom("H", [x, w]), "j2"),
        rule([R(x, y), R(y, z), R(z, x)], Atom("T", [x, y, z]), "j3"),
        rule([S(x, y), R(y, z), S(z, w)], Atom("H", [x, w]), "j4"),
    ],
    "equal_rules_renamed": [
        rule([R(x, y), S(y, z)], Atom("H", [x, w]), "first"),
        rule([R(x, y), S(y, z)], Atom("H", [x, w]), "second"),
        rule([R(x, y)], U(x), "other"),
        rule([R(x, y)], U(x), "again"),
    ],
    "unused_delta_predicates": [
        rule([R(x, y), S(y, z)], Atom("H", [x, z]), "u1"),
    ],
    "constants_only": [
        rule([R(x, y), S(a, b)], Atom("H", [x, y]), "k1"),
        rule([U(x), S(x, y), R(a, a)], Atom("H", [x, y]), "k2"),
    ],
    "zero_arity": [
        rule([R(x, y), Z()], Atom("H", [x, y]), "z1"),
        rule([U(x), Z(), S(x, y)], Atom("H", [x, y]), "z2"),
    ],
    "mixed_arities": [
        rule([R(x, y), U(x)], Atom("H", [x, y]), "m1"),
        rule([R(x, y), U(x, y)], Atom("H", [x, y]), "m2"),
        rule([U(x), U(x, y)], Atom("H", [x, y]), "m3"),
    ],
    # From the pivot R(x0,x1), S closes the walk as step LOOPS_PER_FUNCTION:
    # the step that opens the first chained function.
    "bound_past_chain": [
        rule(
            chain(LOOPS_PER_FUNCTION) + [S(XS[LOOPS_PER_FUNCTION], XS[0])],
            Atom("H", [XS[0]]),
            "b1",
        ),
    ],
}

#: Facts a case needs that the random draws never make, spliced into each
#: seed's facts (:func:`case_facts`): a zero-arity atom, and binary ``U``
#: atoms beside the unary ones.
CASE_FACTS = {
    "zero_arity": [Z()],
    "mixed_arities": [U(a, b), U(b, b), U(NODES[2], a), U(a, a)],
}


def random_atom(rng, predicate):
    if predicate == "V":
        return Atom("V", [rng.choice(NODES), rng.choice(NODES)])
    return Atom(predicate, [rng.choice(NODES) for _ in range(SCHEMA[predicate])])


def build_round(facts, old):
    """``(instance, start)``: the first ``old`` facts, then the rest as a
    round's delta, the atoms born since ``start``."""
    instance = make_instance(None, atoms=facts[:old])
    start = instance.next_birth()
    for atom in facts[old:]:
        instance.add(atom)
    return instance, start


def random_facts(seed, count):
    """``count`` distinct random facts — self-loops and body-less ``V``
    facts included."""
    rng = random.Random(seed)
    predicates = list(SCHEMA) + ["V"]
    facts = []
    while len(facts) < count:
        atom = random_atom(rng, rng.choice(predicates))
        if atom not in facts:
            facts.append(atom)
    return facts


def case_facts(case, seed, count):
    """``random_facts(seed, count)`` with the case's :data:`CASE_FACTS`
    spliced in at seed-drawn places, so they fall among the old atoms on
    some seeds and into the delta on others."""
    facts = random_facts(seed, count)
    rng = random.Random(f"splice:{seed}")
    for atom in CASE_FACTS.get(case, ()):
        facts.insert(rng.randint(0, len(facts)), atom)
    return facts


def random_round(seed, old=10, new=10):
    """``(instance, start)``: ``old`` random facts, then a delta of ``new``
    more."""
    return build_round(random_facts(seed, old + new), old)


def random_rules(seed, count=3):
    """Random bodies over a small variable pool (joins, self-joins and
    repeats come naturally), constants mixed in, one rule duplicated under
    another name."""
    rng = random.Random(f"rules:{seed}")
    pool = [x, y, z]
    rules = []
    for index in range(count):
        body = []
        for _ in range(rng.randint(1, 3)):
            predicate = rng.choice(list(SCHEMA))
            body.append(
                Atom(
                    predicate,
                    [
                        rng.choice(NODES[:2]) if rng.random() < 0.15 else rng.choice(pool)
                        for _ in range(SCHEMA[predicate])
                    ],
                )
            )
        variables = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        head = Atom("H", variables[:1] + [w])
        rules.append(rule(body, head, f"r{index}"))
    twin = rng.choice(rules)
    rules.append(rule(twin.body, twin.head, twin.name + "_twin"))
    return rules


def step_replay(tgds, facts, old):
    """The reference order: add the delta one atom at a time, discover
    per atom with ``new_triggers``, canonically sort each batch."""
    partial = Instance(facts[:old])
    seen = set()
    expected = []
    for atom in facts[old:]:
        if not partial.add(atom):
            continue
        batch = sorted(
            (t for t in new_triggers(tgds, partial, [atom]) if t.key not in seen),
            key=lambda t: t.canonical_key,
        )
        seen.update(t.key for t in batch)
        expected.extend(batch)
    return expected


def identity(triggers):
    """What byte-identity needs: key, the rule resolved to, result atom."""
    return [(t.key, t.tgd.name, t.result()) for t in triggers]


def close(instance):
    closer = getattr(instance, "close", None)
    if closer is not None:
        closer()


def assert_matches_reference(tgds, seed, old=10, new=10):
    return assert_round_matches_reference(tgds, random_facts(seed, old + new), old)


def assert_case_matches_reference(case, seed):
    return assert_round_matches_reference(CASES[case], case_facts(case, seed, 20), 10)


def assert_round_matches_reference(tgds, facts, old):
    instance, start = build_round(facts, old)
    try:
        got = seminaive_triggers(tgds, instance, start)
        delta = [atom for atom, _ in instance.born_since(start)]
        per_atom = {t.key for t in new_triggers(tgds, instance, delta)}
        assert {t.key for t in got} == per_atom
        assert identity(got) == identity(step_replay(tgds, facts, old))
        return got
    finally:
        close(instance)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(8))
def test_edge_case_bodies(case, seed):
    assert_case_matches_reference(case, seed)


def test_edge_cases_are_exercised():
    """The cases are not vacuous: each discovers something on some seed."""
    for case in CASES:
        found = set()
        for seed in range(8):
            found |= {t.tgd.name for t in assert_case_matches_reference(case, seed)}
        assert found, case
    # Equal rules resolve to the first of each pair.
    names = set()
    for seed in range(8):
        names |= {
            t.tgd.name
            for t in assert_case_matches_reference("equal_rules_renamed", seed)
        }
    assert names == {"first", "other"}


@pytest.mark.parametrize("seed", range(24))
def test_random_bodies(seed):
    assert_matches_reference(random_rules(seed), seed, old=12, new=14)


def test_delta_without_rule_predicates_discovers_nothing():
    instance = make_instance(None, atoms=[R(a, b)])
    try:
        start = instance.next_birth()
        instance.add(Atom("V", [a, b]))
        born = instance.born_since(start)
        assert len(born) == 1
        tgds = CASES["unused_delta_predicates"]
        assert discovery_rows(RuleTables(tgds).discovery, instance, born) == []
        assert seminaive_triggers(tgds, instance, start) == []
    finally:
        close(instance)


def test_plan_order_prefers_bound_positions():
    # Pivot R(x,y) binds x and y: S(y,z) has one bound position, R(z,x)
    # one, U(w) none — ties break on body index.
    tgd = rule([R(x, y), U(w), R(z, x), S(y, z)], Atom("H", [x]), "o")
    assert [plan.order for plan in tgd.join_plans()] == [
        (0, 2, 3, 1),
        (1, 0, 2, 3),
        (2, 0, 3, 1),
        (3, 0, 2, 1),
    ]
    assert tgd.join_plans() is tgd.join_plans()


def engine_batches(tgds, seed_facts, injected, steps=12):
    """Seed an engine, inject ``injected``, then apply ``steps`` pending
    triggers in FIFO order; after each of the three, check the enqueued
    batch against the canonically sorted ``new_triggers`` of the added
    atoms minus the keys enqueued before.  Returns the batches."""
    engine = ChaseEngine(seed_facts, tgds, "oblivious")
    seen = set()
    batches = []

    def check(batch, added):
        expected = sorted(
            (t for t in new_triggers(tgds, engine.instance, added) if t.key not in seen),
            key=lambda t: t.canonical_key,
        )
        assert identity(batch) == identity(expected)
        seen.update(t.key for t in batch)
        batches.append(batch)

    try:
        check(list(engine.pending), list(engine.instance))
        before = len(engine.pending)
        added = engine.inject_atoms(injected)
        check(engine.pending[before:], added)
        for _ in range(steps):
            if not engine.pending:
                break
            trigger = engine.pending.pop(0)
            before = len(engine.pending)
            added = engine.apply(trigger)
            check(engine.pending[before:], [trigger.result()] if added else [])
        return batches
    finally:
        close(engine.instance)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_engine_deltas_edge_case_bodies(case, seed):
    facts = case_facts(case, seed, 14)
    engine_batches(CASES[case], facts[:8], facts[8:])


@pytest.mark.parametrize("seed", range(8))
def test_engine_deltas_random_bodies(seed):
    facts = random_facts(seed, 14)
    engine_batches(random_rules(seed), facts[:8], facts[8:])


def test_one_atom_self_join_surfaces_once():
    # Applying the loop rule adds R(a,a), which is both body atoms of
    # R(x,y), R(y,x): one trigger, found at the first pivot only.
    loop = rule([U(x)], R(x, x), "loop")
    mirror = rule([R(x, y), R(y, x)], Atom("H", [x, w]), "mirror")
    seeded, injected, applied = engine_batches(
        [loop, mirror], [U(a), R(b, a)], [], steps=1
    )
    assert [t.tgd.name for t in seeded] == ["loop"]
    assert injected == []
    assert [(t.tgd.name, t.h[x], t.h[y]) for t in applied] == [("mirror", a, a)]


def test_injected_atoms_completing_one_body_surface_once():
    join = rule([R(x, y), S(y, z)], Atom("H", [x, z]), "join")
    batches = engine_batches([join], [U(a)], [R(a, b), S(b, a)])
    assert batches[0] == []
    assert [(t.h[x], t.h[y], t.h[z]) for t in batches[1]] == [(a, b, a)]


def test_seed_fires_one_rule_at_several_pivots():
    path = rule([R(x, y), R(y, z)], Atom("H", [x, z]), "path")
    c = NODES[2]
    batches = engine_batches([path], [R(a, b), R(b, c), R(c, a), R(a, a)], [])
    assert sorted((t.h[x], t.h[y], t.h[z]) for t in batches[0]) == sorted(
        [(a, b, c), (b, c, a), (c, a, b), (c, a, a), (a, a, b), (a, a, a)]
    )


# -- long bodies ---------------------------------------------------------

#: A 25-atom chain: more nested joins than CPython compiles in one function.
CHAIN_25 = TGD(chain(25), Atom("H", [XS[0], XS[25]]), name="chain25")
#: 40 atoms: a closed 39-step R walk (self-joins) with ``S(x19,x19)`` (a
#: repeated variable) in the middle.
CLOSED_40 = TGD(
    chain(38) + [Atom("S", [XS[19], XS[19]]), Atom("R", [XS[38], XS[0]])],
    Atom("C", [XS[0], XS[19]]),
    name="closed40",
)
LONG = [CHAIN_25, CLOSED_40]


def figure_eight():
    """R edges of a 3-cycle and a 5-cycle through ``n0``, in a fixed
    shuffled order, plus ``S`` loops on ``n0`` and ``n4``: walks of every
    long length, no blow-up."""
    n = [Constant(f"n{i}") for i in range(7)]
    cycles = [[n[0], n[1], n[2]], [n[0], n[3], n[4], n[5], n[6]]]
    edges = [R(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
    random.Random(0).shuffle(edges)
    return edges + [S(n[0], n[0]), S(n[4], n[4])]


def test_long_bodies_compile_into_chained_functions():
    plans = CHAIN_25.join_plans() + CLOSED_40.join_plans()
    assert all(len(plan.order) > LOOPS_PER_FUNCTION for plan in plans)
    assert all("def part1(" in plan.source for plan in plans)
    assert "def part3(" in CLOSED_40.join_plans()[0].source


#: The join rules of the perfbench ``chase_join`` workload.
JOIN_RULES = parse_tgds([
    "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
    "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
])


def test_plans_probe_through_position_getters():
    # One getter per probed position, taken at ``match`` entry; a chained
    # function receives the getters it and its successors probe.
    beyond = TGD(chain(LOOPS_PER_FUNCTION + 2), Atom("H", [XS[0]]), name="beyond")
    plans = [plan for tgd in JOIN_RULES + [beyond] for plan in tgd.join_plans()]
    assert any("def part1(" in plan.source for plan in plans)
    for plan in plans:
        assert "with_term_at" not in plan.source
        assert plan.source.count(" = lookup(") == len(plan.probes)


def fully_bound(tgd, plan):
    """``(steps, probes)``: the steps after the pivot whose terms are all
    bound when ``plan`` reaches them, and the ``(predicate, position)``
    pairs the other steps may probe."""
    body = tgd.body
    bound = {t for atom in body for t in atom.terms if not isinstance(t, Variable)}
    bound.update(body[plan.order[0]].terms)
    steps, probes = [], []
    for step, j in enumerate(plan.order[1:], 1):
        terms = body[j].terms
        if all(t in bound for t in terms):
            steps.append(step)
        else:
            probes += [(body[j].predicate, i) for i, t in enumerate(terms, 1) if t in bound]
        bound.update(terms)
    return steps, tuple(probes)


def test_fully_bound_steps_test_membership():
    # A step whose terms are all bound walks no bucket and takes no
    # getter: one births lookup of its one candidate tests membership and
    # the delta limit at once.
    probed = set()
    for case, tgds in CASES.items():
        for tgd in tgds + JOIN_RULES:
            for plan in tgd.join_plans():
                steps, probes = fully_bound(tgd, plan)
                assert plan.probes == probes
                assert "membership" not in plan.source
                assert plan.source.count("get = instance.births()") == 1
                assert plan.source.count(", UNBORN) ") == len(steps)
                for step in steps:
                    assert f"for a{step} in" not in plan.source
                    assert f"if get((p{step}, (" in plan.source
                if steps:
                    probed.add(case)
    assert {"constants_only", "zero_arity", "mixed_arities", "bound_past_chain"} <= probed


def test_fully_bound_step_opening_a_chained_function():
    tgd, = CASES["bound_past_chain"]
    plan = tgd.join_plans()[0]
    step = LOOPS_PER_FUNCTION
    assert fully_bound(tgd, plan)[0] == [step]
    # The probe opens ``part1``, outside any loop: failing returns.
    part = plan.source.split("def part1(")[1]
    assert "for " not in part
    assert f"if get((p{step}, (v{step}, v0)), UNBORN) > birth: return" in part
    found = assert_round_matches_reference(CASES["bound_past_chain"], figure_eight(), 3)
    assert {t.tgd.name for t in found} == {"b1"}


@pytest.mark.parametrize("old", [3, 6])
def test_long_bodies_match_the_reference(old):
    found = assert_round_matches_reference(LONG, figure_eight(), old)
    assert {t.tgd.name for t in found} == {"chain25", "closed40"}


def test_long_bodies_chase_semi_naive():
    # R arrives through a copy rule, so the long bodies join a delta of
    # atoms with distinct births in the second round.
    copy = TGD([Atom("E", [x, y])], R(x, y), name="copy")
    tgds = [copy] + LONG
    database = Instance(
        [Atom("E", atom.terms) if atom.predicate == "R" else atom for atom in figure_eight()]
    )
    semi = restricted_chase(database, tgds, strategy="semi_naive")
    fifo = restricted_chase(database, tgds, strategy="fifo")
    assert semi.terminated and semi.rounds == 2
    semi.derivation.validate(tgds, require_terminal=True)
    assert identity(semi.derivation.steps) == identity(fifo.derivation.steps)
    assert {a.predicate for a in semi.instance} == {"E", "R", "S", "H", "C"}


# -- generated source ------------------------------------------------------

#: Predicate and constant names a careless code generator would break on.
AWKWARD = ["it's", 'say "hi"', "back\\slash", "new\nline", "100%s%%", "naïve→ü", "None", "lambda"]


def awkward(tgds, facts):
    """``tgds`` and ``facts`` with every predicate and constant renamed to
    an :data:`AWKWARD` name (injectively, so shapes are kept)."""
    predicates = dict(zip(["R", "S", "U", "V", "H"], AWKWARD))
    constants = dict(zip(NODES, (Constant(name) for name in AWKWARD[5:] + AWKWARD[:1])))

    def rename(atom):
        terms = [constants.get(term, term) for term in atom.terms]
        return Atom(predicates.get(atom.predicate, atom.predicate), terms)

    renamed = [rule([rename(a) for a in t.body], rename(t.head), t.name) for t in tgds]
    return renamed, [rename(atom) for atom in facts]


@pytest.mark.parametrize("case", sorted(CASES))
def test_awkward_names_match_the_reference(case):
    found = []
    for seed in range(4):
        tgds, facts = awkward(CASES[case] + random_rules(seed), case_facts(case, seed, 20))
        found += assert_round_matches_reference(tgds, facts, 10)
        for tgd in tgds:
            for plan in tgd.join_plans():
                assert not [name for name in AWKWARD if name in plan.source]
    assert found


def test_equal_shapes_share_one_code_object():
    for case, tgds in CASES.items():
        renamed, _ = awkward(tgds, [])
        for tgd, other in zip(tgds, renamed):
            assert tgd.body != other.body
            for p, q in zip(tgd.join_plans(), other.join_plans()):
                assert p.source == q.source
                assert p.match.__code__ is q.match.__code__
    # A different shape is a different kernel.
    p, q = CASES["self_joins"][0].join_plans()[0], CASES["self_joins"][1].join_plans()[0]
    assert p.match.__code__ is not q.match.__code__


def test_zero_arity_pivot_emits_empty_values():
    # The critical chase's F#i() when a rule's frontier is empty.
    fired = Atom("F#0", [])
    tgds = [
        TGD([fired], Atom("H", [z, w]), name="fire"),
        TGD([fired, R(x, y)], Atom("H", [x, w]), name="join"),
    ]
    rows = []
    tgds[0].join_plans()[0].match([(fired, 0)], Instance([fired]), 0, rows)
    assert rows == [(0, (), 0)]
    found = assert_round_matches_reference(tgds, [R(a, b), R(b, a), fired], 1)
    assert [(t.tgd.name, t.values) for t in found] == [
        ("fire", ()), ("join", (a, b)), ("join", (b, a)),
    ]


# -- exactly once, with no runtime dedup ------------------------------------

#: The generator corpus' dense-existential profile (as the semi-naive suite's).
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)


def corpus_runs():
    """``(tgds, database)`` pairs: a corpus slice per family, plus the
    hand-written self-join rules, whose one-atom images the strict delta
    limit keeps from surfacing at two pivots."""
    runs = []
    for family in ("linear", "guarded", "sticky", "weakly-acyclic"):
        for tgds in corpus(family, 3, base_seed=5, profile=PROFILE):
            runs += [(tgds, db) for db in candidate_databases(tgds)[:2]]
    loops = [rule([U(x)], R(x, x), "loop"), rule([R(x, y)], S(y, x), "flip")]
    self_joins = CASES["self_joins"] + loops
    runs.append((self_joins, Instance([U(a), R(a, b), S(b, a), R(b, a)])))
    return runs


class EnqueueLog:
    """Every trigger key each engine enqueues, a fork's starting from its
    parent's; a key enqueued while still live fails the test on the spot."""

    def __init__(self, monkeypatch):
        self.live = {}
        self.enqueued = self.forks = self.enqueued_on_forks = 0
        forks = set()
        discover, fork = ChaseEngine._discover, ChaseEngine.fork

        def recording_discover(engine, start, round_pass=False):
            batch = discover(engine, start, round_pass)
            keys = self.live.setdefault(engine, set())
            for trigger in batch:
                assert trigger.key not in keys, f"enqueued twice: {trigger.canonical_key}"
                keys.add(trigger.key)
            self.enqueued += len(batch)
            if engine in forks:
                self.enqueued_on_forks += len(batch)
            return batch

        def recording_fork(engine):
            child = fork(engine)
            self.live[child] = set(self.live[engine])
            forks.add(child)
            self.forks += 1
            return child

        monkeypatch.setattr(ChaseEngine, "_discover", recording_discover)
        monkeypatch.setattr(ChaseEngine, "fork", recording_fork)


@pytest.mark.parametrize("strategy", ["fifo", "lifo", "semi_naive"])
def test_no_key_enqueued_twice_seeding_steps_and_rounds(strategy, monkeypatch):
    log = EnqueueLog(monkeypatch)
    for tgds, database in corpus_runs():
        restricted_chase(database, tgds, strategy=strategy, max_steps=40, prune=False)
    assert log.enqueued > 100


def test_no_key_enqueued_twice_with_injected_atoms(monkeypatch):
    log = EnqueueLog(monkeypatch)
    suspended = 0
    for tgds, database in corpus_runs():
        atoms = database.sorted_atoms()
        half = len(atoms) // 2
        # At a round boundary: the injected atoms run as their own delta.
        engine = ChaseEngine(atoms[:half], tgds, "oblivious")
        engine.drive(max_atoms=150, max_rounds=2)
        engine.inject_atoms(atoms[half:])
        engine.drive(max_atoms=300, max_rounds=5)
        engine.close()
        # Mid round: a cut leaves the round's start noted and the injected
        # atoms are born into its delta, so the round-completing pass
        # covers them.
        engine = ChaseEngine(atoms[:half], tgds, "oblivious")
        engine.run_round(max_applications=1)
        suspended += engine.mid_round()
        engine.inject_atoms(atoms[half:])
        engine.drive(max_atoms=300, max_rounds=5)
        engine.close()
    assert suspended and log.enqueued > 100


def test_no_key_enqueued_twice_across_search_forks(monkeypatch):
    log = EnqueueLog(monkeypatch)
    for tgds, database in corpus_runs():
        try:
            exists_derivation_of_length(database, tgds, 8, max_nodes=60)
        except SearchBudgetExceeded:
            pass
    # Sibling forks each discover from their own step, on top of the keys
    # their parent had already enqueued.
    assert log.forks > 0 and log.enqueued_on_forks > 0
