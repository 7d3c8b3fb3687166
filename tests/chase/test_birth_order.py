"""Every delta discovery joins is the suffix of the instance's birth log.

The compiled join plans (:mod:`repro.chase.plans`) end a bucket walk at
the first atom past the birth limit, and take an atom born before the
delta's first birth for an old one.  That is sound only because births
increase along every bucket a plan walks, and a delta is exactly the
atoms born at or after its start.  These tests check both at every
discovery pass, walking every predicate bucket and every position bucket,
for every source of a delta: a round, seeding, ``apply``,
``inject_atoms`` at a round boundary and mid round, a mid-round
checkpoint resume, and an ``apply`` on a fork and then on its parent —
on the memory and the sqlite backend.  Instances only grow, so a birth
is an insertion position: ``next_birth() == len(instance)`` at every
pass.
"""

import pytest

from repro.backends import make_instance
from repro.chase import engine as engine_module
from repro.chase.checkpoint import ChaseCheckpoint
from repro.chase.engine import ChaseEngine
from repro.core.parsing import parse_atoms
from repro.tgds.tgd import parse_tgds

BACKENDS = ["memory", "sqlite"]

#: Joins over ``R`` and ``S`` that derive both, an existential among them,
#: so every round adds atoms to buckets that already hold older ones.
TGDS = parse_tgds([
    "R(x,y), R(y,z) -> S(x,z)",
    "S(x,y) -> R(y,w)",
    "R(x,y), S(y,x) -> U(x)",
    "U(x), R(x,y) -> R(y,x)",
])

DATABASE = parse_atoms("R(a,b), R(b,c), R(c,a), U(a)", data=True)
INJECTED = parse_atoms("R(a,d), S(d,b), U(c)", data=True)


def buckets(instance):
    """Every predicate bucket of ``instance`` and every position bucket of
    each of its terms."""
    atoms = list(instance)
    domain = {term for atom in atoms for term in atom.terms}
    for predicate in sorted(instance.predicates()):
        yield instance.with_predicate(predicate)
        arity = max(len(atom.terms) for atom in atoms if atom.predicate == predicate)
        for position in range(1, arity + 1):
            get = instance.position_lookup(predicate, position)
            for term in domain:
                yield get(term, {})


class Passes:
    """Checks the invariant at every discovery pass of every engine.

    ``passes`` counts the checked passes, ``mixed`` the buckets that held
    atoms from both sides of the delta."""

    def __init__(self, monkeypatch):
        self.passes = self.mixed = 0
        discovery_rows = engine_module.discovery_rows

        def checked(table, instance, born):
            assert born
            get = instance.births()
            start = born[0][1]
            assert instance.next_birth() == len(instance)
            # The delta is the suffix of the birth log born since start.
            assert [(atom, get(atom)) for atom in instance if get(atom) >= start] == born
            for bucket in buckets(instance):
                births = [get(atom) for atom in bucket]
                assert births == sorted(set(births)), births
                self.mixed += births[0] < start <= births[-1] if births else 0
            self.passes += 1
            return discovery_rows(table, instance, born)

        monkeypatch.setattr(engine_module, "discovery_rows", checked)

    def reset(self):
        self.passes = self.mixed = 0


@pytest.fixture
def passes(monkeypatch):
    return Passes(monkeypatch)


@pytest.fixture(params=BACKENDS)
def engines(request):
    """Opens engines on the parametrized backend; closes their instances."""
    opened = []

    def open_engine(database=DATABASE, resume=None):
        engine = ChaseEngine(database, TGDS, resume=resume, backend=request.param)
        opened.append(engine)
        return engine

    yield open_engine
    for engine in opened:
        engine.close()
        getattr(engine.instance, "close", lambda: None)()


def test_seeding(engines, passes):
    engines()
    assert passes.passes == 1


def test_rounds(engines, passes):
    engine = engines()
    passes.reset()
    engine.drive(max_rounds=4, max_atoms=60)
    assert engine.rounds >= 3 and passes.passes >= 3 and passes.mixed


def test_apply(engines, passes):
    engine = engines()
    passes.reset()
    added = sum(engine.apply(engine.pending.pop(0)) for _ in range(8))
    assert added >= 4 and passes.passes == added and passes.mixed


def test_inject_at_a_round_boundary(engines, passes):
    engine = engines()
    engine.drive(max_rounds=2)
    passes.reset()
    assert engine.inject_atoms(INJECTED)
    assert passes.passes == 1 and passes.mixed


def test_inject_mid_round(engines, passes):
    engine = engines()
    engine.drive(max_rounds=1)
    engine.run_round(max_applications=1)
    assert engine.mid_round()
    assert engine.inject_atoms(INJECTED)
    passes.reset()
    engine.drive(max_rounds=4, max_atoms=80)
    assert passes.passes >= 1 and passes.mixed


def test_mid_round_checkpoint_resume(engines, passes):
    engine = engines()
    engine.drive(max_rounds=1)
    engine.run_round(max_applications=1)
    assert engine.mid_round()
    checkpoint = ChaseCheckpoint.capture(engine)
    resumed = engines(None, resume=checkpoint)
    passes.reset()
    resumed.drive(max_rounds=4, max_atoms=80)
    assert passes.passes >= 1 and passes.mixed


def test_apply_on_a_fork_then_on_its_parent(engines, passes):
    engine = engines()
    for _ in range(3):
        engine.apply(engine.pending.pop(0))
    first, second = engine.pending.pop(0), engine.pending.pop(0)
    fork = engine.fork()
    passes.reset()
    assert fork.apply(first)
    assert passes.passes == 1 and passes.mixed
    passes.reset()
    assert engine.apply(second)
    assert passes.passes == 1 and passes.mixed
    assert first.result() in fork.instance and first.result() not in engine.instance


@pytest.mark.parametrize("backend", BACKENDS)
def test_births_are_insertion_positions(backend):
    instance = make_instance(backend, atoms=DATABASE)
    try:
        get = instance.births()
        assert instance.next_birth() == len(instance) == len(DATABASE)
        assert [get(atom) for atom in instance] == list(range(len(DATABASE)))
        for atom in INJECTED:
            birth = instance.next_birth()
            assert birth == len(instance)
            assert instance.add(atom)
            assert get(atom) == birth > max(get(other) for other in DATABASE)
            assert instance.born_since(birth) == [(atom, birth)]
        # A present atom keeps its birth and takes none.
        assert not instance.add(DATABASE[0])
        assert get(DATABASE[0]) == 0
        assert instance.next_birth() == birth + 1 == len(instance)
        for bucket in buckets(instance):
            births = [get(atom) for atom in bucket]
            assert births == sorted(set(births)), births
    finally:
        getattr(instance, "close", lambda: None)()
