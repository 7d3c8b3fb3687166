"""The compiled head kernel ≡ the interpreted head, on edge-case heads.

Every chase step reads a TGD's head three ways: the head-witness cache
extracts the frontier tuple an added atom witnesses, ``Trigger.result()``
instantiates the head with digest-named nulls, and the canonical key
orders triggers.  :class:`repro.chase.plans.HeadKernel` compiles all three
once per TGD.  These tests hold it to the interpreted reference —
``tgd.head.apply`` with the nulls named from the digest payload,
``repr(trigger.key)``, and ``match_atom`` /
:meth:`HeadWitnessIndex.consistent_with` — on heads the corpus rarely
produces: zero arity, a repeated variable, a single body variable (the
one-element tuple repr), several existentials, ``%`` in names, and equal
rules under different names (which share a witness set but not nulls).
"""

import hashlib
import pickle
import random

import pytest

from repro.backends import make_instance
from repro.core.atoms import Atom
from repro.core.homomorphism import match_atom
from repro.core.terms import Constant, Null, Variable
from repro.chase.engine import HeadWitnessIndex
from repro.chase.trigger import Trigger
from repro.tgds.tgd import TGD

x, y, z, w, v = (Variable(name) for name in "xyzwv")
TERMS = [Constant(name) for name in "abc"] + [Null("n1"), Null("n2")]


def P(*terms):
    return Atom("P", terms)


def E(*terms):
    return Atom("E", terms)


#: One rule set per edge case.
CASES = {
    "zero_arity_head": [TGD([P(x)], Atom("Q", []), "q")],
    "zero_arity_body": [TGD([Atom("Z", [])], Atom("Q", []), "zq")],
    "zero_arity_body_existential_head": [TGD([Atom("Z", [])], P(z), "zp")],
    "repeated_head_variable": [
        TGD([E(x, y)], Atom("R", [x, x, z]), "rep1"),
        TGD([E(x, y)], Atom("R", [z, y, z]), "rep2"),
        TGD([P(x)], Atom("R", [x, x, x]), "rep3"),
    ],
    "single_body_variable": [
        TGD([P(x)], E(x, z), "one1"),
        TGD([P(x)], P(x), "one2"),
    ],
    "several_existentials": [
        TGD([E(x, y)], Atom("S", [z, y, w, x, v]), "ex1"),
        TGD([E(y, x)], Atom("S", [w, z, x, w, y]), "ex2"),
    ],
    "percent_in_names": [
        TGD(
            [E(Variable("x%s"), Variable("y%%"))],
            Atom("R", [Variable("y%%"), Variable("z%r"), Variable("x%s")]),
            "pct%d",
        )
    ],
    "equal_rules_renamed": [
        TGD([E(x, y)], E(y, z), "first"),
        TGD([E(x, y)], E(y, z), "second"),
    ],
}


def reference_result(trigger):
    """``result(σ,h)`` interpreted: the head applied to ``h`` plus nulls
    named from the digest of the trigger's key."""
    tgd = trigger.tgd
    items = trigger.key[1]
    mapping = dict(items)
    if tgd.existential_variables:
        payload = tgd.digest_prefix()
        payload += "\x1e".join(f"{var.name}\x1f{term!r}" for var, term in items)
        digest = hashlib.blake2b(payload.encode(), digest_size=9).hexdigest()
        for var in tgd.existential_variables:
            mapping[var] = Null(f"{digest}.{var.name}")
    return tgd.head.apply(mapping)


def reference_witness(tgd, atom):
    """The frontier tuple ``atom`` witnesses for ``tgd``, or None."""
    binding = match_atom(tgd.head, atom)
    if binding is None:
        return None
    return tuple(binding[var] for var in tgd.frontier_order)


def random_rows(tgd, seed, count=12):
    rng = random.Random(f"{tgd.name}:{seed}")
    return [
        tuple(rng.choice(TERMS) for _ in tgd.body_order) for _ in range(count)
    ]


def random_atoms(predicates, seed, count=40):
    """Ground atoms under the heads' predicates, arities 0..5, repeats
    likely (few terms) so repeated-variable heads match some of them."""
    rng = random.Random(f"atoms:{seed}")
    atoms = []
    for _ in range(count):
        arity = rng.randint(0, 5)
        atoms.append(
            Atom(rng.choice(predicates), [rng.choice(TERMS[:3]) for _ in range(arity)])
        )
    return atoms


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_result_and_keys_match_the_interpreted_head(case, seed):
    for tgd in CASES[case]:
        for values in random_rows(tgd, seed):
            trigger = Trigger.from_row(tgd, values)
            built = Trigger(tgd, dict(zip(tgd.body_order, values)))
            assert trigger == built and hash(trigger) == hash(built)
            assert trigger.result() == reference_result(trigger)
            assert repr(trigger.result()) == repr(reference_result(trigger))
            assert trigger.canonical_key == repr(trigger.key)
            assert trigger.frontier_tuple() == tuple(
                trigger.h[var] for var in tgd.frontier_order
            )
            assert trigger.h == built.h
            clone = pickle.loads(pickle.dumps(trigger))
            assert clone == trigger
            assert clone.canonical_key == trigger.canonical_key
            assert clone.result() == trigger.result()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_witness_index_matches_match_atom(case, seed):
    tgds = CASES[case]
    predicates = sorted({tgd.head.predicate for tgd in tgds})
    atoms = random_atoms(predicates, seed)
    instance = make_instance(None)
    try:
        index = HeadWitnessIndex(tgds)
        # Equal rules share one set, kept under the first of them.
        reference = {tgd: set() for tgd in tgds}
        for atom in atoms:
            if not instance.add(atom):
                continue
            expected = []
            for tgd in reference:
                key = reference_witness(tgd, atom)
                if key is not None and key not in reference[tgd]:
                    reference[tgd].add(key)
                    expected.append((tgd, key))
            assert index.note(atom) == expected
        assert index.consistent_with(instance)
        # Triggers whose result is in the instance are witnessed.
        for tgd in tgds:
            for values in random_rows(tgd, seed):
                trigger = Trigger.from_row(tgd, values)
                assert index.witnessed(trigger) == (
                    reference_witness(tgd, trigger.result()) in index._witnessed[tgd]
                )
    finally:
        closer = getattr(instance, "close", None)
        if closer is not None:
            closer()


def test_zero_arity_head_result_and_witness():
    tgd = CASES["zero_arity_head"][0]
    trigger = Trigger.from_row(tgd, (Constant("a"),))
    assert trigger.result() == Atom("Q", [])
    assert trigger.frontier_tuple() == ()
    assert trigger.canonical_key == "(P(x) -> Q(), ((x, a),))"
    index = HeadWitnessIndex([tgd])
    assert not index.witnessed(trigger)
    assert index.note(Atom("Q", [])) == [(tgd, ())]
    assert index.witnessed(trigger)


def test_single_body_variable_canonical_key_is_a_one_tuple():
    tgd = CASES["single_body_variable"][0]
    trigger = Trigger.from_row(tgd, (Constant("a"),))
    assert trigger.canonical_key == "(P(x) -> ∃z E(x,z), ((x, a),))"
    assert Trigger.from_row(CASES["zero_arity_body"][0], ()).canonical_key == (
        "(Z() -> Q(), ())"
    )


def test_repeated_head_variable_checks_the_repeat():
    rep1, rep2, rep3 = CASES["repeated_head_variable"]
    a, b, c = TERMS[:3]
    index = HeadWitnessIndex([rep1, rep2, rep3])
    assert index.note(Atom("R", [a, b, c])) == []
    assert index.note(Atom("R", [a, b, a])) == [(rep2, (b,))]
    assert index.note(Atom("R", [a, a, c])) == [(rep1, (a,))]
    # rep2's (b,) is witnessed already, by R(a,b,a).
    assert index.note(Atom("R", [b, b, b])) == [(rep1, (b,)), (rep3, (b,))]
    result = Trigger.from_row(rep1, (a, b)).result()
    assert result.terms[0] == result.terms[1] == a
    assert isinstance(result.terms[2], Null)


def test_several_existentials_get_distinct_digest_named_nulls():
    tgd = CASES["several_existentials"][0]
    trigger = Trigger.from_row(tgd, (Constant("a"), Constant("b")))
    nulls = [t for t in trigger.result().terms if isinstance(t, Null)]
    assert len(set(nulls)) == 3
    digests = {null.name.split(".")[0] for null in nulls}
    assert len(digests) == 1
    assert sorted(null.name.split(".")[1] for null in nulls) == ["v", "w", "z"]


def test_equal_rules_share_a_witness_set_but_not_nulls():
    first, second = CASES["equal_rules_renamed"]
    a, b = TERMS[:2]
    one = Trigger.from_row(first, (a, b))
    two = Trigger.from_row(second, (a, b))
    assert one == two and one.canonical_key == two.canonical_key
    assert one.result() != two.result()  # the rule name feeds the digest
    index = HeadWitnessIndex([first, second])
    assert index._tgds_by_head["E"][0][1] is index._witnessed[second]
    assert index.note(one.result()) == [(first, (b,))]
    assert index.witnessed(two)


def test_kernel_is_cached_per_rule():
    tgd = CASES["several_existentials"][0]
    assert tgd.head_kernel() is tgd.head_kernel()
    renamed = TGD(tgd.body, tgd.head, "other")
    assert renamed == tgd and renamed.head_kernel() is not tgd.head_kernel()
