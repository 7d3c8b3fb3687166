"""Long-lived chase sessions with incremental resume.

A *session* is a chased instance the server keeps warm: clients create it
from a TGD set plus base facts, then post new facts and receive only the
delta of newly derived atoms.  The increment is computed by resuming the
finished chase through the existing semi-naive machinery — the engine's
worklist/delta state survives between requests, so a post pays for the
triggers its facts enable (:meth:`repro.chase.engine.ChaseEngine.inject_atoms`
plus :meth:`~repro.chase.engine.ChaseEngine.drive` to the next fixpoint —
the same round driver ``oblivious_chase`` runs on) and nothing else.

Sessions serve the **oblivious closure** (Section 3.1), not a restricted
chase result, and that choice is what makes the increments honest: the
restricted chase is not confluent — ``R(x,y) → ∃z S(x,z)`` chased from
``{R(a,b)}`` invents ``S(a,⊥)``, while a cold chase that already knows a
later fact ``S(a,c)`` never fires the trigger — so "incremental equals
cold" would simply be false.  The oblivious fixpoint *is* confluent: null
identity is a pure function of ``(rule, body homomorphism)`` (the digest
naming of :mod:`repro.chase.trigger`), so
``closure(closure(D) ∪ F) = closure(D ∪ F)`` atom for atom, and the bench
equivalence gate compares the two canonical serializations byte for byte.
Termination verdicts are unaffected by the substitution — they are
properties of the TGD set alone (the paper's all-instances framing) and
are answered by the portfolio through the shared
:class:`repro.service.cache.VerdictCache`.

Engines run unpruned (``prune=False``): dependency pruning fixes the
live rule subset from the *seed* instance's predicates, and posted facts
may revive rules that were provably dead for the seed.

:class:`repro.chase.checkpoint.ChaseCheckpoint` is the session
persistence format — :meth:`ChaseSession.checkpoint` /
:meth:`ChaseSession.from_checkpoint` round-trip a session (including one
suspended mid-round by a budget cut) through the same digest-guarded
snapshot the fault-tolerance layer uses, byte-identically.

Everything here is HTTP-free and thread-safe (per-session locks; the
service-level counters update under the service lock), so the front end
(:mod:`repro.service.http`), the load bench, and the property tests all
drive the same object.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backends import BackendSpec
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.parsing import parse_atoms
from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.engine import ChaseEngine
from repro.errors import ParseError, ServiceError
from repro.obs.stats import ChaseStats
from repro.service.cache import CACHEABLE_STATUSES, VerdictCache
from repro.termination.portfolio import CACHE_STAGE, TerminationPortfolio
from repro.tgds.tgd import TGD, parse_tgds, tgd_set_digest

#: Request statuses: the chase reached its fixpoint, or a budget cut it
#: short (the session stays suspended and continuable — post more facts,
#: or an empty facts list, to keep going).
COMPLETE = "complete"
TIMEOUT = "timeout"

#: Hard per-session ceilings (a serving process must bound every tenant
#: even when a request ships no budget).
DEFAULT_MAX_ATOMS = 100_000
DEFAULT_MAX_ROUNDS = 10_000

#: Default wall envelope (seconds) applied to a request without a budget.
DEFAULT_WALL_SECONDS = 30.0

_BUDGET_FIELDS = ("wall_seconds", "max_atoms", "max_applications", "max_rounds")


def budget_from_payload(
    payload: Optional[dict], default_wall: Optional[float] = DEFAULT_WALL_SECONDS
) -> Optional[Budget]:
    """Build a request :class:`Budget` from a JSON ``budget`` object.

    Unknown keys and negative values are client errors
    (:class:`ServiceError`, HTTP 400).  A missing/empty payload gets the
    server's default wall envelope (None disables even that).
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ServiceError(f"budget must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_BUDGET_FIELDS))
    if unknown:
        raise ServiceError(f"unknown budget fields: {', '.join(unknown)}")
    values = {}
    for name in _BUDGET_FIELDS:
        value = payload.get(name)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServiceError(f"budget {name} must be a number, got {value!r}")
        values[name] = value
    if "wall_seconds" not in values and default_wall is not None:
        values["wall_seconds"] = default_wall
    if not values:
        return None
    try:
        return Budget(**values)
    except ValueError as error:
        raise ServiceError(str(error)) from error


def parse_fact_payload(value, field: str = "facts") -> List[Atom]:
    """Parse a request's facts: a textual atom list or a list of strings."""
    if value is None:
        return []
    if not isinstance(value, str):
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ServiceError(
                f"{field} must be a string or a list of strings"
            )
    try:
        return parse_atoms(value, data=True)
    except ParseError as error:
        raise ServiceError(f"malformed {field}: {error}") from error


def parse_backend_payload(value, default=None) -> BackendSpec:
    """Validate a request's ``backend`` field (string or config object).

    ``None`` falls back to ``default`` (the server-level backend, itself
    already a parsed :class:`repro.backends.BackendSpec`).  Anything
    :meth:`BackendSpec.parse` rejects is a client error (HTTP 400).
    """
    if value is None:
        return default if default is not None else BackendSpec.parse(None)
    try:
        return BackendSpec.parse(value)
    except (TypeError, ValueError) as error:
        raise ServiceError(f"invalid backend: {error}") from error


def parse_tgd_payload(value) -> List[TGD]:
    """Parse a request's TGD set (a list of rule strings)."""
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(item, str) for item in value)
    ):
        raise ServiceError("tgds must be a non-empty list of rule strings")
    try:
        return parse_tgds(value)
    except (ParseError, ValueError) as error:
        raise ServiceError(f"malformed tgds: {error}") from error


class ChaseSession:
    """One client's chased instance, held warm between requests."""

    def __init__(
        self,
        session_id: str,
        tgds: Sequence[TGD],
        base_facts: Iterable[Atom],
        max_atoms: int = DEFAULT_MAX_ATOMS,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend=None,
    ):
        self._open(
            session_id, tgds, max_atoms, max_rounds, backend,
            database=Instance(base_facts),
        )

    def _open(
        self, session_id, tgds, max_atoms, max_rounds, backend,
        database=None, checkpoint=None,
    ) -> None:
        """The one field setup behind ``__init__`` and :meth:`from_checkpoint`."""
        self.session_id = session_id
        self.tgds = tuple(tgds)
        #: The verdict-cache key of this session's rule set.
        self.digest = tgd_set_digest(self.tgds)
        self.max_atoms = max_atoms
        self.max_rounds = max_rounds
        #: The resolved storage backend of this session's instance.
        self.backend = BackendSpec.parse(backend)
        # Unpruned, witness-free: the oblivious closure (see module
        # docstring for why sessions must serve the confluent semantics).
        self.engine = ChaseEngine(
            database, self.tgds, "oblivious", checkpoint, backend=self.backend
        )
        #: Atom-producing applications, the same accounting
        #: ``oblivious_chase`` reports (rounds live on the engine).
        self.applications = checkpoint.applications if checkpoint is not None else 0
        #: Facts accepted over the session's lifetime (posted + base).
        self.facts_accepted = len(self.engine.instance) if checkpoint is None else 0
        #: Requests served (the create counts as the first increment).
        self.increments = 0
        #: The cut reason of this process's last request (None at a
        #: fixpoint, and on a restored session before its first request).
        self.suspended_reason: Optional[str] = None
        self.closed = False
        self.lock = threading.Lock()

    # -- restore ------------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        session_id: str,
        tgds: Sequence[TGD],
        checkpoint: ChaseCheckpoint,
        max_atoms: int = DEFAULT_MAX_ATOMS,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend=None,
    ) -> "ChaseSession":
        """Rebuild a session from its persisted checkpoint (digest-guarded).

        Checkpoints are backend-portable, so ``backend`` may differ from
        the backend the checkpointed session ran on.
        """
        session = cls.__new__(cls)
        session._open(
            session_id, tgds, max_atoms, max_rounds, backend,
            checkpoint=checkpoint,
        )
        return session

    def checkpoint(self) -> ChaseCheckpoint:
        """The session's persistence snapshot (mid-round suspensions included)."""
        with self.lock:
            return ChaseCheckpoint.capture(self.engine, applications=self.applications)

    @property
    def rounds(self) -> int:
        """Saturation rounds started over the session's lifetime."""
        return self.engine.rounds

    # -- the increment loop --------------------------------------------------

    def post_facts(self, facts: Iterable[Atom], budget: Optional[Budget] = None) -> dict:
        """Inject facts, resume to the next fixpoint, report the delta.

        Saturation is :meth:`ChaseEngine.drive` under the session's
        ceilings and ``budget``; a cut leaves the engine suspended in place,
        answers ``status=timeout``, and the next request (an empty
        ``facts`` list will do) continues it.  The response's ``derived``
        atoms are exactly the atoms this request added *beyond* the posted
        facts themselves, in insertion order.
        """
        with self.lock:
            if self.closed:
                raise ServiceError(
                    f"session {self.session_id} is closed", status=404
                )
            engine = self.engine
            try:
                added = engine.inject_atoms(facts)
            except ValueError as error:
                raise ServiceError(str(error)) from error
            self.facts_accepted += len(added)
            # The rounds' own deltas: the instance is never walked, so a
            # disk-backed session decodes no atom it already held.
            derived: List[Atom] = []
            reason, _, applications = engine.drive(
                max_atoms=self.max_atoms,
                max_rounds=self.max_rounds,
                budget=budget,
                into=derived,
            )
            self.applications += applications
            self.suspended_reason = reason
            self.increments += 1
            return {
                "status": TIMEOUT if reason is not None else COMPLETE,
                "reason": reason,
                "facts_added": len(added),
                "derived": derived,
                "atoms": len(engine.instance),
                "rounds": engine.rounds,
                "applications": self.applications,
            }

    # -- views ---------------------------------------------------------------

    def canonical_atoms(self) -> List[str]:
        """The instance's canonical serialization (sorted atom reprs).

        Byte-identical to a cold oblivious chase of the accumulated facts —
        the equivalence-gate view.
        """
        with self.lock:
            return [repr(atom) for atom in self.engine.instance.sorted_atoms()]

    def info(self) -> dict:
        with self.lock:
            return {
                "session": self.session_id,
                "digest": self.digest,
                "tgds": [repr(tgd) for tgd in self.tgds],
                "atoms": len(self.engine.instance),
                "rounds": self.rounds,
                "applications": self.applications,
                "facts_accepted": self.facts_accepted,
                "increments": self.increments,
                "backend": self.backend.describe(),
                # Read off the engine, so a restored suspension reports too.
                "suspended": bool(self.engine.pending) or self.engine.mid_round(),
                "suspended_reason": self.suspended_reason,
            }

    def close(self) -> None:
        with self.lock:
            self.closed = True
            self.engine.close()
            # Disk-backed instances release their connections (and a
            # session-private temp file) promptly rather than at GC time.
            instance_close = getattr(self.engine.instance, "close", None)
            if instance_close is not None:
                instance_close()

    def __repr__(self) -> str:
        return (
            f"ChaseSession({self.session_id}, {len(self.engine.instance)} atoms, "
            f"{self.increments} increments)"
        )


class ChaseService:
    """The session store + verdict cache + service counters — one facade.

    The HTTP front end, the load bench, and the tests all drive this
    object; it owns the session map, the digest-keyed
    :class:`VerdictCache`, and the service-level
    :class:`~repro.obs.stats.ChaseStats` counters (sessions opened and
    resumed, verdict-cache hits/misses, increment sizes).
    """

    def __init__(
        self,
        max_atoms: int = DEFAULT_MAX_ATOMS,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        default_wall_seconds: Optional[float] = DEFAULT_WALL_SECONDS,
        cache: Optional[VerdictCache] = None,
        stats: Optional[ChaseStats] = None,
        backend=None,
    ):
        self.max_atoms = max_atoms
        self.max_rounds = max_rounds
        self.default_wall_seconds = default_wall_seconds
        #: The default instance backend of new sessions (a per-request
        #: ``"backend"`` field overrides it session by session).
        self.backend = BackendSpec.parse(backend)
        self.cache = cache if cache is not None else VerdictCache()
        self.stats = stats if stats is not None else ChaseStats("service")
        if not self.stats.kind:
            self.stats.kind = "service"
        self.sessions: Dict[str, ChaseSession] = {}
        self.closed = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- sessions ------------------------------------------------------------

    def create_session(
        self,
        tgds: Sequence[TGD],
        facts: Iterable[Atom],
        budget: Optional[Budget] = None,
        backend=None,
    ) -> dict:
        """Open a session, chase the base facts, report the first increment.

        The session is registered only once that first increment succeeds;
        if it raises, or the service was closed meanwhile, the session is
        closed and nothing is registered.

        ``backend`` overrides the service-level instance backend for this
        session only (anything :meth:`BackendSpec.parse` accepts).
        """
        spec = parse_backend_payload(backend, default=self.backend)
        with self._lock:
            session_id = f"s{next(self._ids)}"
        session = ChaseSession(
            session_id,
            tgds,
            [],
            max_atoms=self.max_atoms,
            max_rounds=self.max_rounds,
            backend=spec,
        )
        try:
            result = session.post_facts(facts, budget=budget)
        except BaseException:
            # The client never learns the id: release the session (and a
            # disk-backed one's temp file) instead of registering it.
            session.close()
            raise
        with self._lock:
            closed = self.closed
            if not closed:
                self.sessions[session_id] = session
                self.stats.sessions_opened += 1
        if closed:
            session.close()
            raise ServiceError("service is closed", status=503)
        result["session"] = session_id
        result["digest"] = session.digest
        result["backend"] = session.backend.describe()
        return result

    def get(self, session_id: str) -> ChaseSession:
        with self._lock:
            session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError(f"no session {session_id!r}", status=404)
        return session

    def post_facts(
        self, session_id: str, facts: Iterable[Atom], budget: Optional[Budget] = None
    ) -> dict:
        """Resume one session with new facts; tallies the service counters."""
        session = self.get(session_id)
        result = session.post_facts(facts, budget=budget)
        with self._lock:
            self.stats.record_increment(len(result["derived"]))
        result["session"] = session_id
        return result

    def delete(self, session_id: str) -> dict:
        with self._lock:
            session = self.sessions.pop(session_id, None)
        if session is None:
            raise ServiceError(f"no session {session_id!r}", status=404)
        session.close()
        return {"session": session_id, "closed": True}

    def list_sessions(self) -> List[dict]:
        with self._lock:
            sessions = list(self.sessions.values())
        return [session.info() for session in sessions]

    def close(self) -> None:
        with self._lock:
            self.closed = True
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for session in sessions:
            session.close()

    # -- termination analysis -------------------------------------------------

    def analyze(self, tgds: Sequence[TGD], budget: Optional[Budget] = None) -> dict:
        """Portfolio verdict for a rule set, memoized by set digest.

        A warm cache answers without invoking any decider: the response's
        ``portfolio`` trail then holds exactly one ``"cache"``/``"hit"``
        entry (the acceptance-gate assertion) and ``cached`` is true.
        """
        run_stats = ChaseStats()
        portfolio = TerminationPortfolio(cache=self.cache)
        verdict = portfolio.analyze(tgds, budget=budget, stats=run_stats)
        trail = list(run_stats.portfolio)
        cached = bool(trail) and trail[0]["stage"] == CACHE_STAGE and (
            trail[0]["outcome"] == "hit"
        )
        digest = tgd_set_digest(tgds)
        with self._lock:
            if cached:
                self.stats.verdict_cache_hits += 1
            else:
                self.stats.verdict_cache_misses += 1
        if cached:
            suspects = self.cache.get_suspects(digest)
        else:
            suspects = list(run_stats.suspects) or None
            if suspects and verdict.status in CACHEABLE_STATUSES:
                self.cache.put_suspects(digest, suspects)
        return {
            "digest": digest,
            "verdict": {
                "status": verdict.status,
                "method": verdict.method,
                "detail": verdict.detail,
            },
            "cached": cached,
            "portfolio": trail,
            "suspects": suspects,
        }

    # -- views ----------------------------------------------------------------

    def budget_for(self, payload: Optional[dict]) -> Optional[Budget]:
        """A request budget under this service's default wall envelope."""
        return budget_from_payload(payload, default_wall=self.default_wall_seconds)

    def statz(self) -> dict:
        with self._lock:
            sessions = len(self.sessions)
            backends: Dict[str, int] = {}
            for session in self.sessions.values():
                name = session.backend.name
                backends[name] = backends.get(name, 0) + 1
        return {
            "sessions": sessions,
            "backends": backends,
            "stats": self.stats.as_dict(),
            "verdict_cache": self.cache.as_dict(),
        }
