"""X10 — corpus classification (the 'table' a systems reader expects).

Shape: weakly-acyclic corpora are 100% terminating; sticky corpora decide
completely (no unknowns — Theorem 6.1 is a decision procedure); guarded
corpora may contain honest unknowns (the documented MSOL substitution).
"""

from collections import Counter

import pytest

from repro import Status, TerminationPortfolio
from repro.tgds.generators import GeneratorProfile, corpus
from conftest import report

# Dense-existential profile so the corpora contain genuinely diverging
# sets alongside terminating ones.
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)
SIZE = 8


@pytest.fixture(scope="module")
def portfolio():
    return TerminationPortfolio()


def tally(portfolio, sets):
    """Verdict statuses over a corpus (the X10 'table' row)."""
    return Counter(portfolio.analyze(tgds).status for tgds in sets)


def test_shape_corpus_table(portfolio):
    rows = [("family", "terminating", "diverging", "unknown")]
    for family in ("linear", "sticky", "guarded", "weakly-acyclic"):
        counts = tally(portfolio, corpus(family, SIZE, base_seed=50, profile=PROFILE))
        rows.append(
            (
                family,
                counts[Status.ALL_TERMINATING],
                counts[Status.NOT_ALL_TERMINATING],
                counts[Status.UNKNOWN],
            )
        )
        if family == "weakly-acyclic":
            assert counts[Status.ALL_TERMINATING] == SIZE
        if family in ("linear", "sticky"):
            assert counts[Status.UNKNOWN] == 0  # complete procedure
            assert counts[Status.NOT_ALL_TERMINATING] >= 1  # non-trivial corpus
    report("X10: verdicts per corpus family", rows)


def test_bench_analyze_sticky_corpus(benchmark, portfolio):
    sets = corpus("sticky", 4, base_seed=50, profile=PROFILE)
    counts = benchmark(tally, portfolio, sets)
    assert sum(counts.values()) == 4
