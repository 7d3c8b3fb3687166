"""The unified error hierarchy: one base, historical names intact.

Every exception the package raises descends from
:class:`repro.errors.ReproError`, so ``except ReproError`` catches any
failure the library signals on purpose.  Two compatibility contracts ride
along: each pre-existing exception keeps its historical base (``ParseError``
is still a ``ValueError``, budget errors still ``RuntimeError``), and each
stays importable from the module that used to define it.
"""

import pickle

import pytest

from repro import errors
from repro.errors import (
    ChaseInterrupted,
    CheckpointError,
    DerivationError,
    ExtractionError,
    FairnessError,
    ParseError,
    ReproError,
    ResultIntegrityError,
    SearchBudgetExceeded,
    StateBudgetExceeded,
)

ALL_ERRORS = [
    ChaseInterrupted,
    CheckpointError,
    DerivationError,
    ExtractionError,
    FairnessError,
    ParseError,
    ResultIntegrityError,
    SearchBudgetExceeded,
    StateBudgetExceeded,
]

# (exception, historical module) — the aliased import paths that must keep
# working for code written before repro.errors existed.
HISTORICAL_HOMES = [
    (ParseError, "repro.core.parsing"),
    (DerivationError, "repro.chase.derivation"),
    (FairnessError, "repro.chase.fairness"),
    (SearchBudgetExceeded, "repro.chase.restricted"),
    (StateBudgetExceeded, "repro.automata.buchi"),
    (ExtractionError, "repro.sticky.extraction"),
]

# Exceptions that legacy code catches by a builtin type.
LEGACY_BASES = [
    (ParseError, ValueError),
    (DerivationError, ValueError),
    (ExtractionError, ValueError),
    (CheckpointError, ValueError),
    (FairnessError, RuntimeError),
    (SearchBudgetExceeded, RuntimeError),
    (StateBudgetExceeded, RuntimeError),
    (ResultIntegrityError, RuntimeError),
]


class TestHierarchy:
    @pytest.mark.parametrize("exc", ALL_ERRORS, ids=lambda e: e.__name__)
    def test_subclasses_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(ReproError, Exception)

    def test_blanket_except_clause_catches_everything(self):
        for exc in ALL_ERRORS:
            with pytest.raises(ReproError):
                raise exc("boom") if exc is not ChaseInterrupted else exc(
                    "budget:wall"
                )

    @pytest.mark.parametrize(
        "exc, base", LEGACY_BASES, ids=lambda x: getattr(x, "__name__", "")
    )
    def test_historical_builtin_bases_survive(self, exc, base):
        assert issubclass(exc, base)
        with pytest.raises(base):
            raise exc("boom")


class TestHistoricalImportPaths:
    @pytest.mark.parametrize(
        "exc, module_name", HISTORICAL_HOMES, ids=lambda x: str(x)
    )
    def test_alias_is_the_canonical_class(self, exc, module_name):
        module = __import__(module_name, fromlist=[exc.__name__])
        assert getattr(module, exc.__name__) is exc

    def test_package_root_exports(self):
        import repro

        for name in (
            "ReproError",
            "ChaseInterrupted",
            "CheckpointError",
            "ResultIntegrityError",
            "ParseError",
            "DerivationError",
            "FairnessError",
            "SearchBudgetExceeded",
            "StateBudgetExceeded",
            "ExtractionError",
        ):
            assert getattr(repro, name) is getattr(errors, name)


class TestChaseInterrupted:
    def test_carries_reason_and_payloads(self):
        exc = ChaseInterrupted(
            "budget:atoms", checkpoint=None, instance=None, partial={"steps": 3}
        )
        assert exc.reason == "budget:atoms"
        assert exc.partial == {"steps": 3}
        assert "budget:atoms" in str(exc)

    def test_pickle_round_trip(self):
        exc = ChaseInterrupted("budget:wall", partial={"completed": 2, "total": 5})
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, ChaseInterrupted)
        assert clone.reason == "budget:wall"
        assert clone.partial == {"completed": 2, "total": 5}
