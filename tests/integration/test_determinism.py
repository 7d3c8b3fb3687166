"""Chase output does not depend on hashing.

Terms are interned and hash by identity, so set and dict iteration order
over terms (and over atoms, whose hash combines their terms') follows
memory addresses, and string hashes follow ``PYTHONHASHSEED``.  Neither
may leak into results: the same inputs chased in two fresh interpreters
with different hash seeds must produce the same derivation, trigger by
``canonical_key``, and the same instance, atom by atom in insertion order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Chases a slice of the generator corpus plus a cycle-join workload under
#: the restricted (step and semi-naive) and oblivious engines; prints one
#: JSON list of (derivation keys, instance digest) per run.
SCRIPT = r"""
import hashlib
import json

from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.core.parsing import parse_database
from repro.guarded.decision import candidate_databases
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
        for database in candidate_databases(tgds)[:2]:
            for strategy in ("fifo", "semi_naive"):
                run = restricted_chase(database, tgds, strategy=strategy, max_steps=40)
                keys = [t.canonical_key for t in run.derivation.steps]
                runs.append([keys, digest(run.instance)])
            run = oblivious_chase(database, tgds, max_atoms=300, max_rounds=6)
            runs.append([[], digest(run.instance)])
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


def chase_under_hash_seed(seed: str) -> list:
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
    return json.loads(completed.stdout)


def test_results_independent_of_hash_seed_and_addresses():
    first = chase_under_hash_seed("0")
    second = chase_under_hash_seed("4242")
    assert len(first) > 20
    assert any(keys for keys, _ in first)
    assert first == second
