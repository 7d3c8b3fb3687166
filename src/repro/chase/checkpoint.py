"""Budgets and checkpoints: stop a chase, carry it around, resume it.

The fault-tolerance contract (ROADMAP: "chase-as-a-service with incremental
resume") has two halves:

* :class:`Budget` — a first-class resource envelope (wall-clock seconds,
  instance atoms, trigger applications, rounds) threaded through
  :meth:`repro.chase.engine.ChaseEngine.run_round` and the chase entry
  points.  Exhaustion is *graceful*: the loop raises
  :class:`repro.errors.ChaseInterrupted` carrying the partial instance and
  a checkpoint — the engine is suspended, never poisoned.

* :class:`ChaseCheckpoint` — a picklable snapshot of everything a
  deterministic chase needs to continue byte-identically: the instance's
  insertion-ordered atom list (index-identical rebuild, like
  ``Instance.__reduce__``), the pending worklist in order, the cut
  round's delta when the cut fell inside a round, and the loop counters
  (derivation steps, rounds, applications).  The delta is the atom list's
  tail, so the version-3 layout's ``(atom, position)`` pairs and count
  name nothing the list does not hold: restore reads the round's start
  birth off the count and refuses pairs that are not that tail.
  Everything else the engine holds — births, the head-witness cache, the
  per-predicate indexes — is a pure function of the atom list and is
  rebuilt on restore.

Why resume is byte-identical: the semi-naive engines derive every ordering
decision from (a) instance insertion order, (b) worklist order, and (c)
per-trigger digest-based null invention.  (a) and (b) are restored exactly;
(c) depends only on the TGD set, which :meth:`ChaseCheckpoint.check`
verifies by digest prefix.  A checkpoint taken mid-round keeps the round's
delta (the atom list's tail), so the completed round's discovery pass sees
exactly the atoms — in exactly the order — an uninterrupted round would
have seen.  Resuming is the engine constructor's job
(``ChaseEngine(None, tgds, kind, resume=checkpoint)``): it calls
:meth:`ChaseCheckpoint.check`, then rebuilds the engine from the snapshot.
"""

from __future__ import annotations

import logging
from typing import List, NoReturn, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.chase.derivation import Derivation
from repro.chase.engine import ChaseEngine
from repro.chase.trigger import Trigger
from repro.errors import ChaseInterrupted, CheckpointError
from repro.obs import clock, trace
from repro.obs.log import get_logger, log_event
from repro.tgds.tgd import TGD

_LOGGER = get_logger(__name__)

#: Bumped when the snapshot layout or counter meaning changes; restore
#: refuses other versions.  Version 2: ``rounds`` counts rounds *started*,
#: so a semi-naive checkpoint cut mid-round counts its cut round.  Version
#: 3: no seen-key set (discovery surfaces each trigger exactly once), and
#: pending triggers pickle as their rows ``(tgd, values)``.
CHECKPOINT_VERSION = 3


class Budget:
    """A resource envelope for one chase (or decider) run.

    All limits are optional; ``None`` means unlimited.  ``wall_seconds`` is
    measured from :meth:`start` (armed once, idempotent); ``max_atoms`` is
    an absolute instance size; ``max_applications`` and ``max_rounds``
    count consumption *charged through this object*, so one budget threaded
    through several loops (decider tiers) is a shared envelope, not a
    per-loop allowance.

    The budget records where it stopped a run (``"budget:wall"``,
    ``"budget:atoms"``, ``"budget:applications"``, ``"budget:rounds"``) —
    the ``reason`` carried by :class:`repro.errors.ChaseInterrupted`.
    """

    __slots__ = (
        "wall_seconds",
        "max_atoms",
        "max_applications",
        "max_rounds",
        "applications",
        "rounds",
        "_deadline",
    )

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        max_atoms: Optional[int] = None,
        max_applications: Optional[int] = None,
        max_rounds: Optional[int] = None,
    ):
        for name, value in (
            ("wall_seconds", wall_seconds),
            ("max_atoms", max_atoms),
            ("max_applications", max_applications),
            ("max_rounds", max_rounds),
        ):
            if value is not None and not value >= 0:  # also refuses NaN
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        self.wall_seconds = wall_seconds
        self.max_atoms = max_atoms
        self.max_applications = max_applications
        self.max_rounds = max_rounds
        #: Applications charged so far (across every loop sharing the budget).
        self.applications = 0
        #: Completed rounds charged so far.
        self.rounds = 0
        self._deadline: Optional[float] = None

    # -- arming ------------------------------------------------------------

    def start(self) -> "Budget":
        """Arm the wall clock (first call wins; later calls are no-ops).

        Time comes from the process-wide obs clock
        (:func:`repro.obs.clock.monotonic`), the single monotonic source
        every budget and timer shares — tests install a
        :class:`repro.obs.clock.FakeClock` and drive deadlines without
        sleeping.
        """
        if self.wall_seconds is not None and self._deadline is None:
            self._deadline = clock.monotonic() + self.wall_seconds
        return self

    # -- checks ------------------------------------------------------------

    def out_of_time(self) -> bool:
        return self._deadline is not None and clock.monotonic() >= self._deadline

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the wall deadline (None if no wall limit is set)."""
        if self.wall_seconds is None:
            return None
        if self._deadline is None:
            return self.wall_seconds
        return max(0.0, self._deadline - clock.monotonic())

    def exceeded(self, atom_count: Optional[int] = None) -> Optional[str]:
        """The reason this budget is exhausted, or None if it is not.

        Checked by the engine before every application and by the loops at
        every round boundary; the first limit to bind names the reason.
        """
        if self.out_of_time():
            return "budget:wall"
        if (
            self.max_applications is not None
            and self.applications >= self.max_applications
        ):
            return "budget:applications"
        if (
            atom_count is not None
            and self.max_atoms is not None
            and atom_count >= self.max_atoms
        ):
            return "budget:atoms"
        return None

    def rounds_exhausted(self) -> bool:
        return self.max_rounds is not None and self.rounds >= self.max_rounds

    # -- charging ----------------------------------------------------------

    def charge_application(self) -> None:
        self.applications += 1

    def charge_round(self) -> None:
        self.rounds += 1

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in ("wall_seconds", "max_atoms", "max_applications", "max_rounds")
            if getattr(self, name) is not None
        )
        return f"Budget({limits or 'unlimited'})"


def _refuse(version) -> NoReturn:
    raise CheckpointError(
        f"checkpoint version {version!r} is not supported "
        f"(expected {CHECKPOINT_VERSION})"
    )


class ChaseCheckpoint:
    """A picklable, resumable snapshot of one chase run.

    Produced by :meth:`capture` at any round boundary or budget cut;
    consumed by ``resume=`` on ``restricted_chase`` / ``seminaive_chase`` /
    ``oblivious_chase`` (which pass it to the
    :class:`~repro.chase.engine.ChaseEngine` constructor).  The
    ``kind`` string pins the loop the snapshot came from (``"semi_naive"``,
    ``"restricted:fifo"``, ``"restricted:lifo"``, ``"oblivious"``) so a
    checkpoint cannot silently resume under different semantics.
    """

    __slots__ = (
        "version",
        "kind",
        "tgd_digests",
        "atoms",
        "pending",
        "delta",
        "initial_atoms",
        "derivation_steps",
        "steps",
        "rounds",
        "applications",
        "track_witnesses",
    )

    def __new__(cls, *fields, **named):
        # Positional fields come from a pickled blob (``capture`` passes
        # keywords), and every version's blob lists them version last:
        # refuse another version or field count here, before a stale shape
        # reaches __init__ as a TypeError.
        if fields and (
            len(fields) != len(cls.__slots__) or fields[-1] != CHECKPOINT_VERSION
        ):
            _refuse(fields[-1])
        return super().__new__(cls)

    def __init__(
        self,
        kind: str,
        tgd_digests: List[str],
        atoms: list,
        pending: List[Trigger],
        delta: Optional[Tuple[list, int]],
        initial_atoms: Optional[list],
        derivation_steps: Optional[List[Trigger]],
        steps: int,
        rounds: int,
        applications: int,
        track_witnesses: bool,
        version: int = CHECKPOINT_VERSION,
    ):
        self.version = version
        self.kind = kind
        self.tgd_digests = tgd_digests
        #: Instance atoms in insertion order (index-identical rebuild).
        self.atoms = atoms
        #: The worklist, in order.
        self.pending = pending
        #: ``([(atom, 0), …, (atom, k - 1)], k)``: the cut round's delta, the
        #: last ``k`` atoms of :attr:`atoms` in order, or None when the
        #: checkpoint sits on a round boundary.
        self.delta = delta
        #: The original database's atoms (rebuilds ``Derivation.initial``);
        #: None for derivation-free loops (oblivious).
        self.initial_atoms = initial_atoms
        #: Applied triggers so far, in order (the derivation log prefix).
        self.derivation_steps = derivation_steps
        self.steps = steps
        #: Rounds started (an interrupted round is counted already; its
        #: continuation on resume does not count it again).
        self.rounds = rounds
        self.applications = applications
        #: Part of the version-3 layout; a resumed engine derives the
        #: witness cache from ``kind`` (witness-free iff ``"oblivious"``).
        self.track_witnesses = track_witnesses

    def __reduce__(self):
        return (
            type(self),
            (
                self.kind,
                self.tgd_digests,
                self.atoms,
                self.pending,
                self.delta,
                self.initial_atoms,
                self.derivation_steps,
                self.steps,
                self.rounds,
                self.applications,
                self.track_witnesses,
                self.version,
            ),
        )

    # -- producing ---------------------------------------------------------

    @classmethod
    def capture(
        cls, engine: ChaseEngine, kind: Optional[str] = None, applications: int = 0
    ) -> "ChaseCheckpoint":
        """Snapshot a (possibly mid-round) engine plus its loop counters.

        ``kind`` defaults to the entry point that opened the engine; the
        derivation log, step count, and round count come from the engine.
        """
        kind = kind if kind is not None else engine.kind
        derivation = engine.derivation
        delta = None
        if engine._round_start is not None:
            born = engine.instance.born_since(engine._round_start)
            delta = ([(atom, i) for i, (atom, _) in enumerate(born)], len(born))
        with trace.span("checkpoint.capture", atoms=len(engine.instance)):
            checkpoint = cls(
                kind=kind,
                tgd_digests=[t.digest_prefix() for t in engine.tgds],
                atoms=list(engine.instance),
                pending=list(engine.pending),
                delta=delta,
                initial_atoms=(
                    list(derivation.initial) if derivation is not None else None
                ),
                derivation_steps=(
                    list(derivation.steps) if derivation is not None else None
                ),
                steps=len(derivation) if derivation is not None else 0,
                rounds=engine.rounds,
                applications=applications,
                track_witnesses=engine.witnesses is not None,
            )
        if engine.stats is not None:
            engine.stats.checkpoints_captured += 1
        log_event(
            _LOGGER,
            logging.DEBUG,
            "checkpoint.capture",
            kind=kind,
            atoms=len(checkpoint.atoms),
            pending=len(checkpoint.pending),
            mid_round=checkpoint.delta is not None,
        )
        return checkpoint

    # -- restoring ---------------------------------------------------------

    def check(self, tgds: Sequence[TGD], kind: str) -> None:
        """Refuse to resume this snapshot as ``kind`` over ``tgds``.

        Raises :class:`repro.errors.CheckpointError` on a different kind
        (the chase semantics would change), another layout version, or a
        rule list with different digest prefixes.  Digests, not TGD
        equality: null invention depends on rule *names*, so an
        equal-modulo-renaming set would silently break byte-identity.
        """
        if self.kind != kind:
            raise CheckpointError(
                f"checkpoint was taken by a {self.kind!r} chase; "
                f"cannot resume it as {kind!r}"
            )
        if self.version != CHECKPOINT_VERSION:
            _refuse(self.version)
        if [t.digest_prefix() for t in tgds] != list(self.tgd_digests):
            raise CheckpointError(
                "checkpoint was taken for a different TGD set "
                "(digest prefixes differ)"
            )

    def round_start(self) -> Optional[int]:
        """The birth the cut round started at in the restored instance, or
        None on a round boundary.

        The restored instance gives the atom list births ``0..n-1``, so a
        delta of ``k`` atoms starts at ``n - k``.  Raises
        :class:`repro.errors.CheckpointError` unless the delta pairs are
        exactly the list's last ``k`` atoms, in order, at ``0..k-1``.
        """
        if self.delta is None:
            return None
        items, count = self.delta
        start = len(self.atoms) - count if type(count) is int else -1
        if not 0 <= start <= len(self.atoms) or list(items) != [
            (atom, i) for i, atom in enumerate(self.atoms[start:])
        ]:
            raise CheckpointError(
                "checkpoint delta is not the tail of its atom list"
            )
        return start

    def restore_derivation(self) -> Derivation:
        """Rebuild the derivation log prefix recorded in this checkpoint."""
        if self.initial_atoms is None:
            raise CheckpointError(
                f"{self.kind!r} checkpoints carry no derivation log"
            )
        return Derivation(Instance(self.initial_atoms), self.derivation_steps)

    def __repr__(self) -> str:
        mid = "mid-round" if self.delta is not None else "round boundary"
        return (
            f"ChaseCheckpoint({self.kind}, {len(self.atoms)} atoms, "
            f"{len(self.pending)} pending, {mid}, steps={self.steps})"
        )


def interrupt(engine: ChaseEngine, reason: str, applications: int = 0) -> NoReturn:
    """Raise :class:`ChaseInterrupted` for an entry point a budget has cut.

    Records the cut on the engine's stats and carries the partial instance
    plus a resume checkpoint of the engine as it stands (a mid-round
    suspension included).
    """
    if engine.stats is not None:
        engine.stats.record_cut(reason)
    checkpoint = ChaseCheckpoint.capture(engine, applications=applications)
    raise ChaseInterrupted(
        reason,
        checkpoint=checkpoint,
        instance=engine.instance,
        partial={key: getattr(checkpoint, key) for key in ("steps", "rounds", "applications")},
    )
