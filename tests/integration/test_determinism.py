"""Chase output does not depend on hashing.

Terms are interned and hash by identity, so set and dict iteration order
over terms (and over atoms, whose hash combines their terms') follows
memory addresses, and string hashes follow ``PYTHONHASHSEED``.  Neither
may leak into results: the same inputs chased in two fresh interpreters
with different hash seeds must produce the same derivation, trigger by
``canonical_key``, and the same instance, atom by atom in insertion order.

The output is also pinned across commits: its sha256 must equal
:data:`PINNED_SHA256`, so a change that moves a canonical key, a null name
or an insertion order fails here even when it is hash-seed independent.

A second script, :data:`STICKY_SCRIPT`, pins the sticky decider's outputs
the same way (:data:`PINNED_STICKY_SHA256`): the automaton's ``Θ`` is a
frozenset of types whose hash follows string hashes, so nothing derived
while iterating it may leak into a verdict, a lasso or a witness.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: sha256 of :data:`SCRIPT`'s standard output.  Re-pin only for a change
#: that is meant to alter chase results, and say so in the change log.
PINNED_SHA256 = "ea4d68e44aad1d0b61129ff4aa3fd8b6265102273802a23a9b1a0259177f4a63"

#: Chases a slice of the generator corpus plus a cycle-join workload under
#: the restricted (fifo, lifo and semi-naive) and oblivious engines, runs a
#: session-style engine (seed half the facts, inject the rest, drive) and
#: builds a real oblivious chase; per TGD set it also runs the critical
#: chase (digest-named nulls) and the portfolio and analyzer verdicts.
#: Prints one JSON list of (keys, digest) per run, where the keys are a
#: derivation, a pending list, a node list or a verdict's status and
#: method, and a verdict's digest covers its certificate repr.
SCRIPT = r"""
import hashlib
import json

from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.real_oblivious import RealObliviousChase
from repro.chase.restricted import restricted_chase
from repro.core.parsing import parse_database
from repro.guarded.decision import candidate_databases
from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.critical import critical_chase
from repro.termination.portfolio import TerminationPortfolio
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds


def digest(instance):
    text = "\n".join(repr(atom) for atom in instance)
    return hashlib.sha256(text.encode()).hexdigest()


profile = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)
runs = []
for family in ("linear", "guarded", "weakly-acyclic"):
    for tgds in corpus(family, 2, base_seed=11, profile=profile):
        runs.append([[], digest(critical_chase(tgds).instance)])
        for decide in (TerminationPortfolio().analyze, TerminationAnalyzer().analyze):
            verdict = decide(tgds)
            text = repr(verdict.certificate)
            runs.append(
                [[verdict.status, verdict.method], hashlib.sha256(text.encode()).hexdigest()]
            )
        for database in candidate_databases(tgds)[:2]:
            for strategy in ("fifo", "lifo", "semi_naive"):
                run = restricted_chase(database, tgds, strategy=strategy, max_steps=40)
                keys = [t.canonical_key for t in run.derivation.steps]
                runs.append([keys, digest(run.instance)])
            run = oblivious_chase(database, tgds, max_atoms=300, max_rounds=6)
            runs.append([[], digest(run.instance)])
            atoms = database.sorted_atoms()
            half = len(atoms) // 2
            engine = ChaseEngine(atoms[:half], tgds, "oblivious")
            engine.drive(max_atoms=150, max_rounds=2)
            engine.inject_atoms(atoms[half:])
            keys = [t.canonical_key for t in engine.pending]
            engine.drive(max_atoms=300, max_rounds=6)
            keys += [t.canonical_key for t in engine.pending]
            runs.append([keys, digest(engine.instance)])
            engine.close()
            graph = RealObliviousChase(database, tgds, max_nodes=60, max_depth=5)
            nodes = [
                [repr(n.atom), n.trigger and n.trigger.canonical_key, list(n.parents)]
                for n in graph.nodes
            ]
            runs.append([nodes, ""])
cycles = parse_tgds([
    "E(x,y) -> F(x,y)",
    "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
    "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
    "T(x,y,z) -> P(x,w)",
])
edges = ", ".join(f"E(c{i},c{(i * 3 + 1) % 7})" for i in range(7))
edges += ", " + ", ".join(f"E(c{i},c{(i + 2) % 7})" for i in range(7))
run = restricted_chase(parse_database(edges), cycles, strategy="semi_naive")
runs.append([[t.canonical_key for t in run.derivation.steps], digest(run.instance)])
print(json.dumps(runs))
"""


#: sha256 of :data:`STICKY_SCRIPT`'s standard output.  Re-pin only for a
#: change that is meant to alter sticky verdicts, lassos or witnesses.
PINNED_STICKY_SHA256 = "c68e2c41e096453ccf3819cf1492c2a292c98d2d0097563e82e050dc599f3003"

#: Decides the ``sticky`` generator family (two profiles), the sticky
#: templates of the benchmarks under fixed renamings and a small arity
#: ladder with ``decide_sticky`` and the portfolio.  Prints one JSON list
#: per verdict: status, method, detail, the lasso's start pair and symbols,
#: and the witness's initial atoms (insertion order) and derivation
#: ``canonical_key``s.
STICKY_SCRIPT = r"""
import json

from repro.sticky.decision import decide_sticky
from repro.termination.portfolio import TerminationPortfolio
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

sets = corpus("sticky", 12, base_seed=5)
sets += corpus(
    "sticky",
    12,
    base_seed=31,
    profile=GeneratorProfile(
        num_predicates=2, max_arity=3, num_tgds=3, existential_probability=0.6
    ),
)
templates = [
    ["R(x,y) -> R(x,z)"],
    ["Edge7(u,v) -> Edge7(v,w)"],
    ["Rq(a,b) -> Sq(b,c)", "Sq(d,e) -> Rq(e,f)"],
    ["Rr(x1,y1) -> Ar(y1)", "Ar(x2) -> Rr(x2,y2)"],
    ["P(x) -> R(x,y)", "R(x,y) -> R(y,x)"],
    ["T(x,y,z) -> S(y,w)", "R(x,y), P(y,z) -> T(x,y,w)"],
]
for arity in (2, 3, 4):
    args = ",".join(f"x{i}" for i in range(arity))
    shifted = ",".join(f"x{i}" for i in range(1, arity)) + ",z"
    templates.append([f"R({args}) -> R({shifted})"])
sets += [parse_tgds(rules) for rules in templates]
runs = []
for tgds in sets:
    for decide in (decide_sticky, TerminationPortfolio().analyze):
        verdict = decide(tgds)
        row = [verdict.status, verdict.method, verdict.detail]
        witness = (verdict.certificate or {}).get("witness")
        if witness is not None and hasattr(witness, "lasso"):
            row.append(repr(witness.start_etype))
            row.append(sorted(witness.start_positions))
            row.append([repr(s) for s in witness.lasso.prefix])
            row.append([repr(s) for s in witness.lasso.cycle])
            row.append([repr(atom) for atom in witness.initial])
            row.append([t.canonical_key for t in witness.derivation.steps])
        runs.append(row)
print(json.dumps(runs))
"""


def run_under_hash_seed(script: str, seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_results_independent_of_hash_seed_and_addresses():
    output = run_under_hash_seed(SCRIPT, "0")
    first = json.loads(output)
    second = json.loads(run_under_hash_seed(SCRIPT, "4242"))
    assert len(first) > 20
    assert any(keys for keys, _ in first)
    assert first == second
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_SHA256


def test_sticky_verdicts_independent_of_hash_seed():
    output = run_under_hash_seed(STICKY_SCRIPT, "0")
    first = json.loads(output)
    second = json.loads(run_under_hash_seed(STICKY_SCRIPT, "4242"))
    assert sum(len(row) > 3 for row in first) >= 10
    assert first == second
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_STICKY_SHA256


#: A diverging sticky set whose automaton has accepting states with equal
#: reprs: the lasso must not depend on which of them a set yields first.
LADDER_SCRIPT = r"""
import json

from repro.sticky.decision import decide_sticky
from repro.tgds.tgd import parse_tgds

verdict = decide_sticky(parse_tgds([
    "R(x0,x1,x2,x3) -> R(x1,x2,x3,z)",
    "R(x0,x1,x2,x3) -> S(x1,x2,x3,z)",
    "S(x0,x1,x2,x3) -> R(x1,x2,x3,z)",
]))
witness = verdict.certificate["witness"]
print(json.dumps([
    verdict.detail,
    [repr(s) for s in witness.lasso.prefix],
    [repr(s) for s in witness.lasso.cycle],
    [t.canonical_key for t in witness.derivation.steps],
]))
"""


def test_sticky_lasso_ties_independent_of_hash_seed():
    outputs = {seed: run_under_hash_seed(LADDER_SCRIPT, seed) for seed in ("0", "2", "4")}
    assert len(set(outputs.values())) == 1, outputs
