"""The two chase workloads: a restricted chase from a database to its fixpoint.

Both run the shipping serial engine, ``restricted_chase(...,
strategy="semi_naive")``, once per operation, cycling through a pool of
databases drawn from the seed.  They stress different layers:

* ``chase_join`` — cycle-closing join rules (triangles and 4-cycles) over a
  random digraph.  Nearly all the time is trigger discovery: join search
  and trigger materialization.  No rule has an existential, so the
  head-witness cache answers nothing.
* ``chase_dense`` — 32 layers of single-atom copy and existential rules
  plus 256 rules over predicates no fact uses, on a chain.  Half the
  existential layers are pre-witnessed by the database, so the
  head-witness cache and the apply sweep carry much of the cost, over 32
  rounds.  Dependency pruning is off, as in the repository's
  ``seminaive_dense`` workload: the unused rules are the point.

Correctness is checked against closures the benchmark computes itself: the
whole atom set on each database's first chase, and the atom and step
counts on every later one.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro import Null, parse_database, parse_tgds, restricted_chase
from repro.obs.stats import ChaseStats

from common import HostSpeed, Outcome, mean, median, ratio

#: Databases per run; every pass over the pool chases each one once.  An
#: odd count puts the median and the 90th percentile mid-way through one
#: database's samples, not between two databases of different cost.
POOL = 13

JOIN_RULES = (
    "E(x,y) -> F(x,y)",
    "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
    "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
)
#: Digraph size: about 75 ms per chase on a 2-CPU x86 container.
JOIN_NODES = 16
JOIN_DEGREE = 3

DENSE_WIDTH = 32
DENSE_DISTRACTORS = 256
#: Chain length: about 60 ms per chase on the same container.
DENSE_EDGES = 12


def _labels(rng: random.Random, count: int) -> List[str]:
    return [f"c{k}" for k in rng.sample(range(100_000), count)]


# -- chase_join -------------------------------------------------------------


def _join_database(rng: random.Random, index: int) -> Tuple[List[str], dict]:
    """A random digraph without self-loops, and its expected closure.

    The graph's shape depends on ``index`` only; the seed relabels the
    nodes and orders the facts.  Cycle counts, hence chase cost, vary a
    lot between random graphs this small, and a run should measure the
    program, not its draw of shapes.
    """
    shape = random.Random(f"chase_join:shape:{index}")
    nodes = _labels(rng, JOIN_NODES)
    out: Dict[str, List[str]] = {}
    for position, node in enumerate(nodes):
        targets = shape.sample(
            [k for k in range(JOIN_NODES) if k != position], JOIN_DEGREE
        )
        out[node] = [nodes[k] for k in targets]
    edges = [(x, y) for x in nodes for y in out[x]]
    expected = {f"E({x},{y})" for x, y in edges} | {f"F({x},{y})" for x, y in edges}
    triangles = 0
    squares = 0
    for x in nodes:
        for y in out[x]:
            for z in out[y]:
                if x in out[z]:
                    expected.add(f"T({x},{y},{z})")
                    triangles += 1
                for w in out[z]:
                    if x in out[w]:
                        expected.add(f"Q({x},{y},{z},{w})")
                        squares += 1
    facts = [f"E({x},{y})" for x, y in edges]
    rng.shuffle(facts)
    return facts, {
        "atoms": expected,
        "size": len(expected),
        "steps": len(edges) + triangles + squares,
    }


def _check_join(instance, expected: dict) -> str:
    got = {repr(atom) for atom in instance}
    if got != expected["atoms"]:
        return (
            f"join closure differs: {len(got - expected['atoms'])} unexpected, "
            f"{len(expected['atoms'] - got)} missing atoms"
        )
    return ""


# -- chase_dense ------------------------------------------------------------


def _dense_rules() -> List[str]:
    rules = []
    for j in range(DENSE_WIDTH):
        rules.append(f"P{j}(x,y) -> P{j + 1}(x,y)")
        rules.append(f"P{j}(x,y) -> Q{j}(y,w)")
    for k in range(DENSE_DISTRACTORS):
        rules.append(f"D{k}(x,y) -> D{k + 1}(x,y)")
    return rules


def _dense_database(rng: random.Random, index: int) -> Tuple[List[str], dict]:
    """A chain over shuffled constants, even layers pre-witnessed."""
    nodes = _labels(rng, DENSE_EDGES + 1)
    edges = [(nodes[i], nodes[i + 1]) for i in range(DENSE_EDGES)]
    facts = [f"P0({x},{y})" for x, y in edges]
    for j in range(0, DENSE_WIDTH, 2):
        facts += [f"Q{j}({c},{c})" for c in nodes]
    rng.shuffle(facts)
    odd_layers = DENSE_WIDTH // 2
    copies = DENSE_WIDTH * len(edges)
    # Odd layers get one fresh null per edge target: the restricted chase
    # fires the first trigger per target, the chain has no repeated target.
    fired_odd = odd_layers * len(edges)
    return facts, {
        "edges": edges,
        "nodes": nodes,
        "size": len(facts) + copies + fired_odd,
        "steps": copies + fired_odd,
    }


def _check_dense(instance, expected: dict) -> str:
    edge_set = {f"({x},{y})" for x, y in expected["edges"]}
    by_predicate: Dict[str, List] = {}
    for atom in instance:
        by_predicate.setdefault(atom.predicate, []).append(atom)
    for j in range(DENSE_WIDTH + 1):
        got = {repr(atom)[len(f"P{j}"):] for atom in by_predicate.get(f"P{j}", [])}
        if got != edge_set:
            return f"P{j} is not a copy of the chain"
    targets = sorted(y for _, y in expected["edges"])
    nulls = set()
    for j in range(1, DENSE_WIDTH, 2):
        atoms = by_predicate.get(f"Q{j}", [])
        firsts = sorted(repr(atom.terms[0]) for atom in atoms)
        if firsts != targets:
            return f"Q{j} does not hold one atom per chain target"
        for atom in atoms:
            if not isinstance(atom.terms[1], Null):
                return f"Q{j} witness {atom!r} is not a null"
            nulls.add(atom.terms[1])
    if len(nulls) != (DENSE_WIDTH // 2) * len(targets):
        return "existential witnesses are not pairwise distinct"
    if any(predicate.startswith("D") for predicate in by_predicate):
        return "an unused rule fired"
    return ""


# -- shared measurement ----------------------------------------------------


class _Spec:
    def __init__(self, rules, make_database, check, prune):
        self.rules = rules
        self.make_database = make_database
        self.check = check
        self.prune = prune


SPECS = {
    "chase_join": _Spec(list(JOIN_RULES), _join_database, _check_join, True),
    "chase_dense": _Spec(_dense_rules(), _dense_database, _check_dense, False),
}


def build_inputs(name: str, seed: int) -> dict:
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    databases, expected = [], []
    for index in range(POOL):
        facts, reference = spec.make_database(rng, index)
        databases.append(facts)
        expected.append(reference)
    return {"name": name, "rules": spec.rules, "databases": databases, "expected": expected}


def setup(inputs: dict, trace: bool) -> dict:
    return {
        "tgds": parse_tgds(inputs["rules"]),
        "databases": [parse_database(facts) for facts in inputs["databases"]],
    }


def teardown(state: dict) -> None:
    pass


def measure(state: dict, inputs: dict, seconds: float, trace: bool) -> Outcome:
    """Chase the pool round-robin, whole passes, until ``seconds`` have passed."""
    spec = SPECS[inputs["name"]]
    tgds = state["tgds"]
    outcome = Outcome()
    verified = set()
    totals = {name: [] for name in (
        "wall", "apply", "discover", "discovered", "fired", "lookups", "hits",
    )}
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latencies = []
        for index, database in enumerate(state["databases"]):
            expected = inputs["expected"][index]
            stats = ChaseStats() if trace else None
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                result = restricted_chase(
                    database, tgds, strategy="semi_naive", max_steps=1_000_000,
                    prune=spec.prune, stats=stats,
                )
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                outcome.fail(f"chase raised {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - started
            problem = ""
            if not result.terminated:
                problem = "chase did not reach its fixpoint"
            elif len(result.instance) != expected["size"] or result.steps != expected["steps"]:
                problem = (
                    f"{len(result.instance)} atoms / {result.steps} steps, expected "
                    f"{expected['size']} / {expected['steps']}"
                )
            elif index not in verified:
                problem = spec.check(result.instance, expected)
                verified.add(index)
            if problem:
                outcome.fail(problem)
                continue
            latencies.append(elapsed)
            if stats is not None:
                totals["wall"].append(elapsed)
                totals["apply"].append(stats.apply_seconds)
                totals["discover"].append(stats.discover_seconds)
                totals["discovered"].append(stats.triggers_discovered)
                totals["fired"].append(stats.triggers_fired)
                totals["lookups"].append(stats.cache_lookups)
                totals["hits"].append(stats.cache_hits)
        outcome.add_slice(latencies, sum(latencies), speed.factor())
    outcome.speed = median(speed.factors)
    if trace:
        apply_ms = mean(totals["apply"]) * 1000
        discover_ms = mean(totals["discover"]) * 1000
        outcome.layers.update(
            chase_apply_ms=apply_ms,
            chase_discover_ms=discover_ms,
            chase_other_ms=mean(totals["wall"]) * 1000 - apply_ms - discover_ms,
            triggers_discovered=mean(totals["discovered"]),
            fired_per_discovered=ratio(sum(totals["fired"]), sum(totals["discovered"])),
            witness_hit_rate=ratio(sum(totals["hits"]), sum(totals["lookups"])),
        )
    return outcome
