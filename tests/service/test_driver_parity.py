"""One round driver: sessions and ``oblivious_chase`` cut at the same point.

``ChaseSession.post_facts`` and the semi-naive ``oblivious_chase`` both run
on :meth:`repro.chase.engine.ChaseEngine.drive`.  This suite pins them to
the same cut order on a diverging chain set: for every round count ``k`` of
a capped cold run, under a ``max_rounds=k`` ceiling and under a
``Budget(max_rounds=k)``, both report the same reason, round count,
application count, and canonical atoms.  The pool width comes from
``CHASE_EQUIV_WORKERS`` (default 1), so the CI parallel-equivalence job
runs the shared driver pooled.
"""

import os

import pytest

from repro.core.instance import Instance
from repro.core.parsing import parse_atoms
from repro.chase import parallel
from repro.chase.checkpoint import Budget
from repro.chase.oblivious import oblivious_chase
from repro.errors import ChaseInterrupted
from repro.service.session import ChaseSession
from repro.tgds.tgd import parse_tgds

WORKERS = int(os.environ.get("CHASE_EQUIV_WORKERS", "1"))

#: Diverging: every E-edge spawns a fresh G-successor that becomes an edge.
DIVERGING_CHAIN = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> E(x,y)",
    ]
)

FACTS = parse_atoms("E(a,b), E(b,c), E(c,d)", data=True)

#: Rounds of the capped cold run; every cut depth up to it is checked.
COLD_ROUNDS = 7


def canonical(instance):
    return [repr(atom) for atom in instance.sorted_atoms()]


def test_cold_run_is_capped_not_finished():
    cold = oblivious_chase(
        Instance(FACTS), DIVERGING_CHAIN, max_rounds=COLD_ROUNDS, prune=False
    )
    assert not cold.terminated
    assert cold.rounds == COLD_ROUNDS


@pytest.mark.parametrize("limit", ["ceiling", "budget"])
@pytest.mark.parametrize("k", range(1, COLD_ROUNDS + 1))
def test_session_and_oblivious_chase_cut_alike(k, limit, monkeypatch):
    monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
    if limit == "ceiling":
        ceiling, budget = k, None
    else:
        ceiling, budget = 10_000, Budget(max_rounds=k)
    session = ChaseSession("p", DIVERGING_CHAIN, [], workers=WORKERS, max_rounds=ceiling)
    try:
        answer = session.post_facts(FACTS, budget=budget)
        atoms = session.canonical_atoms()
    finally:
        session.close()
    try:
        cold = oblivious_chase(
            Instance(FACTS),
            DIVERGING_CHAIN,
            max_rounds=ceiling,
            workers=WORKERS,
            budget=Budget(max_rounds=k) if budget is not None else None,
            prune=False,
        )
        reason = None if cold.terminated else "max_rounds"
        rounds, applications, instance = cold.rounds, cold.applications, cold.instance
    except ChaseInterrupted as error:
        reason = error.reason
        rounds = error.partial["rounds"]
        applications = error.partial["applications"]
        instance = error.instance
    assert answer["reason"] == reason
    assert reason == ("max_rounds" if limit == "ceiling" else "budget:rounds")
    assert answer["rounds"] == rounds == k
    assert answer["applications"] == applications
    assert atoms == canonical(instance)
