"""X5 — Example B.1: the Fairness Theorem fails for multi-head TGDs.

Shape: the unfair strategy runs unboundedly; from the fairness-forced
instance (with R(b,b,b) added) every strategy terminates, and exhaustive
search confirms no long derivation exists.
"""


from repro.core.parsing import parse_database
from repro.chase.multihead import (
    example_b1_tgds,
    multihead_exists_derivation_of_length,
    multihead_restricted_chase,
)
from conftest import report


def test_shape_unfair_vs_fair():
    tgds = example_b1_tgds()
    unfair = multihead_restricted_chase(
        parse_database("R(a,b,b)"), tgds, strategy=0, max_steps=12
    )
    fair_point = parse_database("R(a,b,b), R(b,b,b)")
    rows = [("scenario", "terminated", "steps")]
    rows.append(("prefer σ1 forever (unfair)", unfair.terminated, unfair.steps))
    for strategy in ("fifo", "lifo"):
        run = multihead_restricted_chase(fair_point, tgds, strategy=strategy, max_steps=50)
        rows.append((f"after fairness obligation ({strategy})", run.terminated, run.steps))
        assert run.terminated
    assert not unfair.terminated
    assert (
        multihead_exists_derivation_of_length(fair_point, tgds, 30, max_nodes=20_000)
        is None
    )
    report("X5: Example B.1", rows)


def test_bench_unfair_prefix(benchmark):
    tgds = example_b1_tgds()
    db = parse_database("R(a,b,b)")
    result = benchmark(
        multihead_restricted_chase, db, tgds, 0, 10
    )
    assert not result.terminated


def test_bench_exhaustive_fair_search(benchmark):
    tgds = example_b1_tgds()
    db = parse_database("R(a,b,b), R(b,b,b)")
    found = benchmark(
        multihead_exists_derivation_of_length, db, tgds, 30, 20_000
    )
    assert found is None
