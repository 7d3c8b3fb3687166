"""The ``verdict_corpus`` workload: one termination verdict per operation.

Each operation asks the cheap-first ``TerminationPortfolio`` whether a TGD
set terminates on all instances under every fair restricted chase
derivation.  Every set is an instance of a template whose answer is known
from first principles (``templates.py``), with predicates and variables
renamed from the seed and the rule order shuffled, so the expected verdict
is checked on every operation without trusting the program.

The mix follows the repository's own measured verdict traffic: the
generator corpus of ``benchmarks/bench_portfolio.py`` (16 sets of 3 TGDs,
recorded in ``BENCH_chase.json`` under ``portfolio.stage_counts``) has 15
sets settled by the certificate stage and 1 diverging sticky set that runs
every stage down to the sticky decider.  A pass here is the same 15 + 1:
15 terminating templates the certificate stage settles, and 1 diverging
sticky template.  The corpus holds ``REPEATS`` passes per diverging
template, and a slice of the run is the whole corpus, so every slice has
the same composition.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from repro import parse_tgds
from repro.obs.stats import ChaseStats
from repro.termination.portfolio import TerminationPortfolio

from common import HostSpeed, Outcome, mean, median, ratio
from templates import (
    ALL_TERMINATING,
    NOT_ALL_TERMINATING,
    STICKY_DIVERGING,
    TERMINATING,
    rename,
)

#: Sets per pass of each ``TERMINATING`` template, by index: 15 in all, as
#: ``portfolio.stage_counts`` has 15 certificate-settled sets to 1 decider
#: set.  That count fixes only the total; the split puts the median mid-way
#: through the samples of template 2 and the 90th percentile mid-way
#: through those of template 3 (the costliest), so that neither falls
#: between two templates of different cost.
SETTLED_MIX = {0: 3, 1: 1, 2: 10, 3: 1}
#: Passes per diverging template.  The cost of one renamed instance differs
#: from another's by several percent, so each template needs many
#: instances for the percentiles not to depend on the seed's few draws.
REPEATS = 4


def build_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    corpus: List[Tuple[List[str], str]] = []
    for diverging in STICKY_DIVERGING * REPEATS:
        batch = [
            (rename(TERMINATING[index], rng, set()), ALL_TERMINATING)
            for index, count in SETTLED_MIX.items()
            for _ in range(count)
        ]
        batch.append((rename(diverging, rng, set()), NOT_ALL_TERMINATING))
        rng.shuffle(batch)
        corpus += batch
    return {"corpus": corpus}


def setup(inputs: dict, trace: bool) -> dict:
    return {
        "portfolio": TerminationPortfolio(),
        "sets": [parse_tgds(rules) for rules, _ in inputs["corpus"]],
    }


def teardown(state: dict) -> None:
    pass


def measure(state: dict, inputs: dict, seconds: float, trace: bool) -> Outcome:
    """Analyze the corpus in whole passes until ``seconds`` have passed."""
    portfolio = state["portfolio"]
    outcome = Outcome()
    stage_seconds = {}
    cheap = 0
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latencies = []
        for tgds, (_, expected) in zip(state["sets"], inputs["corpus"]):
            stats = ChaseStats() if trace else None
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                verdict = portfolio.analyze(tgds, stats=stats)
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                outcome.fail(f"analyze raised {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - started
            if verdict.status != expected:
                outcome.fail(f"verdict {verdict.status}, expected {expected}")
                continue
            latencies.append(elapsed)
            if stats is not None:
                for entry in stats.portfolio:
                    stage_seconds.setdefault(entry["stage"], []).append(entry["seconds"])
                if not any(entry["stage"] == "decider" for entry in stats.portfolio):
                    cheap += 1
        outcome.add_slice(latencies, sum(latencies), speed.factor())
    outcome.speed = median(speed.factors)
    if trace:
        for metric, stage in (
            ("stage_certificate_ms", "certificate"),
            ("stage_stratification_ms", "c-stratification"),
            ("stage_hierarchical_ms", "hierarchical"),
            ("stage_decider_ms", "decider"),
        ):
            outcome.layers[metric] = mean(stage_seconds[stage]) * 1000
        outcome.layers["settled_cheaply_share"] = ratio(cheap, len(outcome.latencies))
    return outcome
