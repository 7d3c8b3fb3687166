"""Corpus-scale termination analysis (the exhibit X10 'table').

Generates reproducible corpora of linear / guarded / sticky /
weakly-acyclic TGD sets, runs the termination portfolio on each, and prints
the verdict tally per family together with the methods that produced them
(``portfolio-*`` methods come from the cheap stages in front of the
deciders).

Run:  python examples/termination_analysis.py
"""

from collections import Counter

from repro import Status, TerminationPortfolio
from repro.tgds.generators import GeneratorProfile, corpus


def main() -> None:
    portfolio = TerminationPortfolio()
    profile = GeneratorProfile(
        num_predicates=3, max_arity=2, num_tgds=2, existential_probability=0.6
    )
    families = ["linear", "sticky", "guarded", "weakly-acyclic"]
    size = 12

    print(f"{'family':<16} {'terminating':>12} {'diverging':>10} {'unknown':>8}")
    print("-" * 50)
    method_tally: Counter = Counter()
    for family in families:
        sets = corpus(family, size, base_seed=100, profile=profile)
        counts = Counter()
        for tgds in sets:
            verdict = portfolio.analyze(tgds)
            counts[verdict.status] += 1
            method_tally[verdict.method] += 1
        print(
            f"{family:<16} {counts[Status.ALL_TERMINATING]:>12} "
            f"{counts[Status.NOT_ALL_TERMINATING]:>10} "
            f"{counts[Status.UNKNOWN]:>8}"
        )

    print("\nDecision methods used:")
    for method, count in method_tally.most_common():
        print(f"  {method:<28} {count}")

    print(
        "\nNotes: the sticky route is the complete Büchi procedure of "
        "Theorem 6.1; weak/joint acyclicity and the critical-database "
        "chase are sound certificates; 'unknown' is only "
        "reported outside the decidable classes or past search bounds."
    )


if __name__ == "__main__":
    main()
