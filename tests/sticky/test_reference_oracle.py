"""Differential oracle: the compiled caterpillar automaton against the
interpreted one (``reference_automaton.py``).

Per start pair, both automata must explore the same graph — the same
states in the same insertion order, each with the same ``(symbol,
successor)`` list — and ``find_lasso`` must return the same lasso.  Per
set, ``decide_sticky`` must give the same status, method, detail,
certificate repr and witness derivation on either family.
"""

import pytest

from repro.sticky import decision
from repro.sticky.automaton import CaterpillarAutomatonFamily
from repro.sticky.decision import decide_sticky
from repro.tgds.generators import GeneratorProfile, random_sticky_set
from repro.tgds.tgd import parse_tgds

from tests.sticky.reference_automaton import ReferenceAutomatonFamily

#: The X9 exhibit cases (``benchmarks/bench_x9_sticky_decision.py``).
X9_CASES = [
    ["R(x,y) -> R(x,z)"],
    ["R(x,y) -> R(y,z)"],
    ["R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"],
    ["P(x) -> R(x,y)", "R(x,y) -> R(y,x)"],
    ["T(x,y,z) -> S(y,w)", "R(x,y), P(y,z) -> T(x,y,w)"],
]

#: The perfbench sticky templates, renamed and reordered.
TEMPLATES = [
    ["Edge41(u7,v2) -> Edge41(v2,w9)"],
    ["Sb8(d,e) -> Ra3(e,f)", "Ra3(a,b) -> Sb8(b,c)"],
    ["Rk(x1,y1) -> Ak(y1)", "Ak(x2) -> Rk(x2,y2)"],
]


def ladder(arity):
    """``R(x̄) → ∃z R(x̄'z)``, ``R(x̄) → ∃z S(x̄'z)``, ``S(x̄) → ∃z R(x̄'z)``."""
    args = ",".join(f"x{i}" for i in range(arity))
    shifted = ",".join(f"x{i}" for i in range(1, arity)) + ",z"
    return [f"R({args}) -> R({shifted})", f"R({args}) -> S({shifted})", f"S({args}) -> R({shifted})"]


PROFILES = {
    "default": GeneratorProfile(),
    "wide": GeneratorProfile(
        num_predicates=2, max_arity=3, num_tgds=3, existential_probability=0.6
    ),
}

NAMED = [("x9", i, rules) for i, rules in enumerate(X9_CASES)]
NAMED += [("template", i, rules) for i, rules in enumerate(TEMPLATES)]
NAMED += [("ladder", arity, ladder(arity)) for arity in (2, 3)]


def compiled_key(family, state):
    thetas = frozenset(family.thetas[i] for i in state.theta)
    return (state.etype, thetas, state.pi1, state.pi2, state.accepting)


def reference_key(state):
    return (state.etype, state.theta, state.pi1, state.pi2, state.accepting)


def graph_of(edges, key):
    return [
        (key(state), [(symbol, key(successor)) for symbol, successor in out])
        for state, out in edges.items()
    ]


def lasso_of(lasso):
    return None if lasso is None else (lasso.prefix, lasso.cycle)


def assert_automata_agree(tgds):
    compiled = CaterpillarAutomatonFamily(tgds)
    reference = ReferenceAutomatonFamily(tgds)
    for etype, pi0 in compiled.start_pairs():
        fast = compiled.component(etype, pi0)
        slow = reference.component(etype, pi0)
        assert graph_of(fast.explore(), lambda s: compiled_key(compiled, s)) == graph_of(
            slow.explore(), reference_key
        ), (etype, pi0)
        assert lasso_of(fast.find_lasso()) == lasso_of(slow.find_lasso()), (etype, pi0)


def verdict_of(tgds):
    verdict = decide_sticky(tgds)
    row = [verdict.status, verdict.method, verdict.detail, repr(verdict.certificate)]
    witness = verdict.certificate.get("witness")
    if witness is not None:
        row.append([t.canonical_key for t in witness.derivation.steps])
        row.append([repr(atom) for atom in witness.initial])
    return row


def assert_verdicts_agree(tgds, monkeypatch):
    compiled = verdict_of(tgds)
    with monkeypatch.context() as patch:
        patch.setattr(decision, "CaterpillarAutomatonFamily", ReferenceAutomatonFamily)
        reference = verdict_of(tgds)
    assert compiled == reference


@pytest.mark.parametrize("kind, index, rules", NAMED, ids=[f"{k}-{i}" for k, i, _ in NAMED])
def test_named_sets(kind, index, rules, monkeypatch):
    tgds = parse_tgds(rules)
    assert_automata_agree(tgds)
    assert_verdicts_agree(tgds, monkeypatch)


@pytest.mark.parametrize("arity", [4, 5])
def test_wide_ladder(arity, monkeypatch):
    """Every start pair's graph is too slow to interpret here; compare the
    verdict and the component the search accepts in."""
    tgds = parse_tgds(ladder(arity))
    assert_verdicts_agree(tgds, monkeypatch)
    compiled = CaterpillarAutomatonFamily(tgds)
    reference = ReferenceAutomatonFamily(tgds)
    etype, pi0, _ = compiled.find_counterexample()
    fast = compiled.component(etype, pi0)
    slow = reference.component(etype, pi0)
    assert graph_of(fast.explore(), lambda s: compiled_key(compiled, s)) == graph_of(
        slow.explore(), reference_key
    )
    assert lasso_of(fast.find_lasso()) == lasso_of(slow.find_lasso())


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_sticky_sets(profile, monkeypatch):
    diverging = 0
    for seed in range(60):
        tgds = random_sticky_set(seed, PROFILES[profile])
        assert_automata_agree(tgds)
        assert_verdicts_agree(tgds, monkeypatch)
        diverging += decide_sticky(tgds).is_nonterminating
    assert diverging >= 3
