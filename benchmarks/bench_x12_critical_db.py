"""X12 — §1.2: the critical database D* is sound for the oblivious chase
but NOT critical for the restricted chase.

Shape: on the intro example the oblivious chase on D* diverges although
the set is in CT_res_∀∀ (per the complete sticky procedure); on a genuinely
diverging set both agree.
"""


from repro import critical_database, decide_sticky, oblivious_chase, parse_tgds
from repro.termination.verdict import Status
from conftest import report


def test_shape_dstar_not_critical():
    rows = [("set", "oblivious on D*", "true CT_res_∀∀ verdict")]
    intro = parse_tgds(["R(x,y) -> R(x,z)"])
    shift = parse_tgds(["R(x,y) -> R(y,z)"])
    for name, tgds in (("intro", intro), ("shift", shift)):
        oblivious = oblivious_chase(critical_database(tgds), tgds, max_atoms=60)
        verdict = decide_sticky(tgds)
        rows.append(
            (
                name,
                "terminates" if oblivious.terminated else "diverges",
                verdict.status,
            )
        )
    report("X12: D* vs the restricted-chase ground truth", rows)
    assert rows[1][1] == "diverges" and rows[1][2] == Status.ALL_TERMINATING
    assert rows[2][1] == "diverges" and rows[2][2] == Status.NOT_ALL_TERMINATING


def test_bench_critical_check(benchmark):
    tgds = parse_tgds(["R(x,y) -> S(y,x)", "S(x,y) -> R(y,x)"])
    result = benchmark(
        oblivious_chase, critical_database(tgds), tgds, 5_000, 100
    )
    assert result.terminated
