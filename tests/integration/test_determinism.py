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
            engine = ChaseEngine.open(atoms[:half], tgds, "oblivious", prune=False)
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


def chase_under_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_results_independent_of_hash_seed_and_addresses():
    output = chase_under_hash_seed("0")
    first = json.loads(output)
    second = json.loads(chase_under_hash_seed("4242"))
    assert len(first) > 20
    assert any(keys for keys, _ in first)
    assert first == second
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_SHA256
