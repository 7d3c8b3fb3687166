"""Quickstart: parse TGDs, run the chase, decide termination.

Reproduces the paper's Section 1 motivating example and shows the three
entry points most users need: the restricted chase, the oblivious chase,
and the all-instances termination portfolio.

Run:  python examples/quickstart.py
"""

from repro import (
    TerminationPortfolio,
    oblivious_chase,
    parse_database,
    parse_tgds,
    restricted_chase,
)


def main() -> None:
    # The Section 1 example: the TGD is already satisfied by the database.
    tgds = parse_tgds(["R(x,y) -> R(x,z)"])
    database = parse_database("R(a,b)")

    print("== Restricted (standard) chase ==")
    restricted = restricted_chase(database, tgds)
    print(f"terminated: {restricted.terminated} after {restricted.steps} steps")
    print(f"instance:   {restricted.instance.sorted_atoms()}")

    print("\n== Oblivious chase (bounded) ==")
    oblivious = oblivious_chase(database, tgds, max_atoms=10, max_rounds=10)
    print(f"terminated: {oblivious.terminated}")
    print(f"instance grew to {len(oblivious.instance)} atoms before the cut-off:")
    for atom in sorted(oblivious.instance.sorted_atoms(), key=repr)[:5]:
        print(f"  {atom}")
    print("  ... (the oblivious chase of this input is infinite)")

    print("\n== All-instances restricted chase termination ==")
    portfolio = TerminationPortfolio()
    for rules in (
        ["R(x,y) -> R(x,z)"],            # terminating (the example above)
        ["R(x,y) -> R(y,z)"],            # diverging shift chain
        ["P(x) -> Q(x,y)", "Q(x,y) -> S(y)"],  # weakly acyclic
    ):
        tgd_set = parse_tgds(rules)
        verdict = portfolio.analyze(tgd_set)
        print(f"{rules!r:60} -> {verdict.status} (via {verdict.method})")
        if verdict.is_nonterminating:
            witness = verdict.certificate["witness"]
            print(f"   witness database: {witness.initial.sorted_atoms()}")


if __name__ == "__main__":
    main()
