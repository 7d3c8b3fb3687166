"""The oblivious chase (Section 3.1, set semantics).

The oblivious chase of ``D`` w.r.t. ``T`` is the ⊆-minimal instance that
contains ``D`` and is closed under (active or not) trigger applications.
Null invention is deterministic per trigger (Definition 3.1's
``c_x^{σ,h}``), so the fixpoint is unique and order-independent: we compute
it round by round on the shared driver, :meth:`ChaseEngine.drive`, with
the witness cache disabled (activity checks are skipped entirely).

Although the fixpoint is order-independent, the *run* is still
deterministic — digest-named nulls, ``(birth, canonical_key)`` batch
order, digest-guarded checkpoint resume — so round boundaries and
derivation logs are reproducible too.  ``prune=True`` (the default)
drops assessor-proven dead rules from discovery, byte-identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.instance import Instance
from repro.chase.checkpoint import Budget, ChaseCheckpoint, interrupt
from repro.chase.engine import ChaseEngine
from repro.tgds.tgd import TGD


class ObliviousResult:
    """Outcome of an oblivious chase run."""

    def __init__(
        self,
        instance: Instance,
        terminated: bool,
        rounds: int,
        applications: int,
        stats=None,
    ):
        #: The fixpoint (or cut-off) instance.
        self.instance = instance
        #: True iff a fixpoint was reached within the bounds.
        self.terminated = terminated
        #: Number of saturation rounds performed.
        self.rounds = rounds
        #: Number of trigger applications (counting only atom-producing ones).
        self.applications = applications
        #: The caller's :class:`repro.obs.stats.ChaseStats` sink, echoed
        #: back filled (None when the run carried no telemetry).
        self.stats = stats

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "cut off"
        return (
            f"ObliviousResult({state} after {self.rounds} rounds, "
            f"{len(self.instance)} atoms)"
        )


def oblivious_chase(
    database: Optional[Instance],
    tgds: Sequence[TGD],
    max_atoms: int = 100_000,
    max_rounds: int = 10_000,
    workers: int = 1,
    budget: Optional[Budget] = None,
    resume: Optional[ChaseCheckpoint] = None,
    stats=None,
    prune: bool = True,
    backend=None,
) -> ObliviousResult:
    """Compute the oblivious chase ``I_{D,T}`` up to the given bounds.

    Applies every trigger (active or not); set semantics deduplicates
    results.  A round applies the triggers discovered from the atoms of
    the previous round (the engine's pending batch).  The rounds run on
    :meth:`ChaseEngine.drive`, which also owns the ``max_rounds`` and
    ``max_atoms`` ceilings and the round count.  With ``workers > 1``
    each round's discovery pass fans out over a
    :class:`repro.chase.parallel.ParallelMatcher` pool (byte-identical
    rounds: the merge replays the serial order).

    ``budget`` exhaustion raises :class:`repro.errors.ChaseInterrupted`
    with a resume checkpoint; ``resume`` continues one byte-identically
    (``database`` is then ignored).

    ``backend`` selects the instance storage backend (see
    :func:`repro.backends.make_instance`); the fixpoint is byte-identical
    across backends.
    """
    engine = ChaseEngine(
        database, tgds, "oblivious", resume, workers, stats, prune, backend
    )
    applications = resume.applications if resume is not None else 0
    with engine.running():
        reason, _, added = engine.drive(
            max_atoms=max_atoms, max_rounds=max_rounds, budget=budget
        )
        applications += added
        if reason not in (None, "max_rounds", "max_atoms"):
            interrupt(engine, reason, applications)
    return ObliviousResult(
        engine.instance, reason is None, engine.rounds, applications, stats=stats
    )


def satisfies_all(instance: Instance, tgds: Sequence[TGD]) -> bool:
    """Model check ``I |= T`` (Section 2): every trigger is non-active."""
    from repro.chase.trigger import active_triggers_on

    return next(iter(active_triggers_on(tgds, instance)), None) is None
