"""Ontological query answering with guarded TGDs (the setting of [2,7,8]).

A small "organization" ontology written as guarded single-head TGDs is
materialized with the restricted chase; before trusting materialization we
ask the termination portfolio whether the chase is guaranteed to terminate
for *every* database — the paper's CT_res_∀∀ question.

Run:  python examples/ontology_reasoning.py
"""

from repro import (
    ConjunctiveQuery,
    TerminationPortfolio,
    is_guarded,
    parse_database,
    parse_tgds,
    restricted_chase,
)


def main() -> None:
    ontology = parse_tgds(
        [
            # Every professor is a researcher holding some position.
            "Professor(p) -> Researcher(p)",
            "Researcher(r) -> Holds(r,q)",
            # Supervision happens inside a common department.
            "Supervises(s,t) -> Researcher(t)",
            "Supervises(s,t) -> Researcher(s)",
            # A held position makes its holder employed.
            "Holds(r,q) -> Employed(r)",
        ]
    )
    assert is_guarded(ontology)

    print("== Ontology ==")
    for tgd in ontology:
        print(f"  {tgd}")

    portfolio = TerminationPortfolio()
    verdict = portfolio.analyze(ontology)
    print(f"\nCT_res_∀∀ verdict: {verdict.status} (via {verdict.method})")
    assert verdict.is_terminating, "materialization is safe for every database"

    data = parse_database(
        "Professor(turing), Supervises(turing,good), Supervises(good,michie)"
    )
    result = restricted_chase(data, ontology)
    print(f"\n== Materialization ({result.steps} steps) ==")
    for atom in result.instance.sorted_atoms():
        print(f"  {atom}")

    print("\n== Queries over the materialization ==")
    for text in (
        "Q1(r) :- Researcher(r)",
        "Q2(r) :- Employed(r)",
        "Q3(s,t) :- Supervises(s,t), Employed(s)",
    ):
        query = ConjunctiveQuery.parse(text)
        answers = sorted(query.certain_answers(result.instance), key=repr)
        print(f"  {query} -> {answers}")

    print("\n== A dangerous extension ==")
    extended = ontology + parse_tgds(
        ["Holds(r,q) -> Supervises(q,s)"]  # positions start supervising...
    )
    risky = portfolio.analyze(extended)
    print(f"extended ontology verdict: {risky.status} (via {risky.method})")
    if risky.is_nonterminating:
        witness = risky.certificate["witness"]
        print(f"  witness database: {sorted(map(repr, witness.initial))}")
        print("  -> materialization must NOT be attempted on this ontology")


if __name__ == "__main__":
    main()
