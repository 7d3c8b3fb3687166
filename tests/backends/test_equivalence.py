"""Cross-backend equivalence on the generator corpus.

The backend is storage, not semantics: every chase variant must produce a
byte-identical run — instance, ``sorted_atoms`` serialization, derivation
keys, round/application counts — on sqlite as on memory.  Checkpoints
captured on one backend must restore onto the other.
"""

import pytest

from repro.backends.spec import ENV_VAR, make_instance
from repro.backends.sqlite import SQLiteInstance
from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.core.parsing import parse_atoms
from repro.errors import ChaseInterrupted
from repro.guarded.decision import canonical_body_database
from repro.termination.portfolio import TerminationPortfolio
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

CASES = [
    (family, tgds)
    for family in ("guarded", "weakly-acyclic", "sticky")
    for tgds in corpus(family, 3, base_seed=11, profile=PROFILE)
]


#: Example 5.6 of the paper: guarded, not sticky, settled by a pump.
EXAMPLE_56 = parse_tgds(
    ["S(x,y) -> T(x)", "R(x,y), T(y) -> P(x,y)", "P(x,y) -> P(y,z)"]
)


def identical(memory_run, sqlite_run):
    assert memory_run.instance.sorted_atoms() == sqlite_run.instance.sorted_atoms()
    assert list(memory_run.instance) == list(sqlite_run.instance)


class TestChaseEquivalence:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_restricted(self, case):
        _, tgds = CASES[case]
        database = canonical_body_database(tgds[0])
        memory_run = restricted_chase(database, tgds, max_steps=200)
        sqlite_run = restricted_chase(database, tgds, max_steps=200, backend="sqlite")
        assert memory_run.terminated == sqlite_run.terminated
        assert memory_run.steps == sqlite_run.steps
        assert [t.key for t in memory_run.derivation.steps] == [
            t.key for t in sqlite_run.derivation.steps
        ]
        identical(memory_run, sqlite_run)

    @pytest.mark.parametrize("case", range(0, len(CASES), 3))
    def test_seminaive(self, case):
        _, tgds = CASES[case]
        database = canonical_body_database(tgds[0])
        memory_run = seminaive_chase(database, tgds, max_steps=200)
        sqlite_run = seminaive_chase(database, tgds, max_steps=200, backend="sqlite")
        assert memory_run.rounds == sqlite_run.rounds
        identical(memory_run, sqlite_run)

    @pytest.mark.parametrize("case", range(0, len(CASES), 2))
    def test_oblivious(self, case):
        _, tgds = CASES[case]
        database = canonical_body_database(tgds[0])
        memory_run = oblivious_chase(database, tgds, max_atoms=3000, max_rounds=40)
        sqlite_run = oblivious_chase(
            database, tgds, max_atoms=3000, max_rounds=40, backend="sqlite"
        )
        assert memory_run.terminated == sqlite_run.terminated
        assert memory_run.rounds == sqlite_run.rounds
        assert memory_run.applications == sqlite_run.applications
        identical(memory_run, sqlite_run)

    def test_analyzer_verdicts(self, monkeypatch):
        # The portfolio's chases (layer checks and deciders) are scratch
        # state and always run in memory, so a process-wide sqlite default
        # leaves every verdict unchanged.
        # The corpus sets settle before any suspect chase; Example 5.6
        # reaches the suspect scan.
        sets = [tgds for _, tgds in CASES[:4]] + [EXAMPLE_56]
        monkeypatch.delenv(ENV_VAR, raising=False)
        memory_verdicts = [TerminationPortfolio().analyze(tgds) for tgds in sets]
        monkeypatch.setenv(ENV_VAR, "sqlite")

        def no_disk(*args, **kwargs):
            raise AssertionError("a decider chase was stored on sqlite")

        monkeypatch.setattr(SQLiteInstance, "__init__", no_disk)
        for tgds, memory_verdict in zip(sets, memory_verdicts):
            sqlite_verdict = TerminationPortfolio().analyze(tgds)
            assert memory_verdict.status == sqlite_verdict.status
            assert memory_verdict.method == sqlite_verdict.method
        assert memory_verdicts[-1].method == "guarded-replay"


class TestBucketViews:
    def test_views_answer_a_predicate_terms_pair_alike(self):
        # An atom equals its ``(predicate, terms)`` pair, so a bucket view
        # answers the pair as it answers the atom, on either backend.
        atoms = parse_atoms("R(a,b), R(b,c), S(a,b)", data=True)
        a = atoms[0].terms[0]
        answers = {}
        for backend in ("memory", "sqlite"):
            instance = make_instance(backend, atoms=atoms)
            try:
                views = [instance.with_predicate("R"), instance.with_term_at("R", 1, a)]
                answers[backend] = [
                    ((atom.predicate, atom.terms) in view, atom in view)
                    for view in views
                    for atom in atoms
                ]
            finally:
                getattr(instance, "close", lambda: None)()
        hit, miss = (True, True), (False, False)
        assert answers["memory"] == [hit, hit, miss, hit, miss, miss]
        assert answers["sqlite"] == answers["memory"]


DIVERGING = parse_tgds(["R(x,y) -> R(y,z)"])


class TestCheckpointPortability:
    def cut_run(self, backend):
        database = canonical_body_database(DIVERGING[0])
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                database,
                DIVERGING,
                max_steps=100,
                budget=Budget(max_rounds=3),
                backend=backend,
            )
        return database, excinfo.value.checkpoint

    @pytest.mark.parametrize(
        "first,second",
        [("memory", "sqlite"), ("sqlite", "memory"), ("sqlite", "sqlite")],
    )
    def test_cross_backend_resume(self, first, second):
        database, checkpoint = self.cut_run(first)
        resumed = seminaive_chase(
            None, DIVERGING, max_steps=10, resume=checkpoint, backend=second
        )
        baseline = seminaive_chase(database, DIVERGING, max_steps=10)
        assert resumed.instance.sorted_atoms() == baseline.instance.sorted_atoms()

    def test_round_trip_through_serialization(self, tmp_path):
        import pickle

        _, checkpoint = self.cut_run("sqlite")
        path = tmp_path / "cut.ckpt"
        path.write_bytes(pickle.dumps(checkpoint))
        restored = pickle.loads(path.read_bytes())
        assert isinstance(restored, ChaseCheckpoint)
        engine = ChaseEngine(None, DIVERGING, resume=restored, backend="sqlite")
        assert engine.instance.sorted_atoms() == ChaseEngine(
            None, DIVERGING, resume=checkpoint
        ).instance.sorted_atoms()
