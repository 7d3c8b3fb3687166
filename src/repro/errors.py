"""The unified exception hierarchy.

Every error this library raises on purpose derives from :class:`ReproError`,
so callers embedding the deciders (services, notebooks, the benchmark
harness) can catch one base class instead of six module-local types.  The
pre-existing exceptions keep their historical bases too — ``ParseError`` is
still a ``ValueError``, ``SearchBudgetExceeded`` still a ``RuntimeError`` —
so every ``except`` clause written against the old hierarchy keeps working,
and the old import paths (``repro.core.parsing.ParseError`` etc.) remain
valid aliases of the classes defined here.

The one stateful member is :class:`ChaseInterrupted`: the typed outcome of
a budget cut.  It carries the partial instance and a resume checkpoint
(:class:`repro.chase.checkpoint.ChaseCheckpoint`), so exhausting a budget
is a *pause*, not a failure — ``resume=`` on the chase entry points picks
the run back up byte-identically.  This module imports nothing from the
rest of the package (it sits below everything in the import graph).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class of every intentional error in this library."""


# -- budget interruption (the fault-tolerance contract) ---------------------


class ChaseInterrupted(ReproError):
    """A budget expired mid-chase; the run is paused, not poisoned.

    ``checkpoint`` (when the interrupted loop supports resume) restores the
    run byte-identically via ``resume=`` on the chase entry point that
    raised; ``instance`` is the partial instance at the cut; ``partial``
    holds loop-specific progress counters (steps, rounds, suspects
    completed, ...).  ``reason`` is one of the ``"budget:*"`` strings
    produced by :meth:`repro.chase.checkpoint.Budget.exceeded`.
    """

    def __init__(
        self,
        reason: str,
        checkpoint=None,
        instance=None,
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(reason)
        self.reason = reason
        self.checkpoint = checkpoint
        self.instance = instance
        self.partial = dict(partial or {})

    def __reduce__(self):
        # Exceptions pickle by re-calling cls(*args); the default args tuple
        # only holds ``reason``, so ship the full state explicitly (decider
        # suspect chases cross process boundaries).
        return (type(self), (self.reason, self.checkpoint, self.instance, self.partial))

    def __repr__(self) -> str:
        return (
            f"ChaseInterrupted({self.reason!r}, "
            f"checkpoint={'yes' if self.checkpoint is not None else 'no'})"
        )


class CheckpointError(ReproError, ValueError):
    """A checkpoint cannot be restored (wrong TGD set, kind, or version)."""


# -- parallel tier ----------------------------------------------------------


class ResultIntegrityError(ReproError, RuntimeError):
    """A parallel worker returned malformed rows (caught by validation).

    Raised by the master-side row validation in
    :mod:`repro.chase.parallel`; like any failure of a pooled round, it
    makes the matcher recompute the round serially rather than merge
    garbage.
    """


# -- service layer -----------------------------------------------------------


class ServiceError(ReproError, ValueError):
    """A chase-service request is invalid (bad payload, unknown session).

    Carries the HTTP status the front end should answer with; the session
    layer raises it without knowing it is being served over HTTP, so the
    same errors surface identically under direct (in-process) use.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


# -- historical per-module errors, unified ----------------------------------


class ParseError(ReproError, ValueError):
    """Raised on malformed input text."""


class DerivationError(ReproError, ValueError):
    """Raised when a recorded derivation violates the chase rules."""


class ExtractionError(ReproError, ValueError):
    """Raised when the prefix is too short to exhibit a caterpillar chain."""


class FairnessError(ReproError, RuntimeError):
    """Raised when the fairness construction cannot proceed (theory violated

    or the prefix horizon is too short to exhibit the required structure)."""


class SearchBudgetExceeded(ReproError, RuntimeError):
    """Raised when an exhaustive search runs out of its node budget."""


class StateBudgetExceeded(ReproError, RuntimeError):
    """Raised when automaton exploration would materialize too many states."""
