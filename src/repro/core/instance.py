"""Instances and databases.

An *instance* is a (possibly large but here always finite) set of atoms over
constants and nulls; a *database* is a finite set of facts (constants only).
The multiset instances of Appendix C's weakly restricted chase are kept by
:class:`repro.chase.weakly_restricted.WeaklyRestrictedChase` as occurrences.

Indexing
--------

Instances keep two inverted indexes:

* a per-predicate index (``with_predicate``), maintained by every
  ``add``/``discard``, and
* a term-position index ``(predicate, position, term) → atoms``
  (positions 1-based as in the paper's ``(R, i)``), built on demand.

The term-position index holds one ``term → bucket`` dict per indexed
``(predicate, position)``.  ``position_lookup(predicate, position)``
returns that dict's bound ``get``: the compiled join plans
(:mod:`repro.chase.plans`) take it once per call and probe with
``get(term, empty)``, one C-level lookup.  ``with_term_at`` answers
through the same getter and wraps the bucket in a set-like view.  A body
atom whose terms are all bound needs no bucket: the plans test it with
one ``in`` against ``membership()``, the atom dict itself.

The index is demand-driven.  A ``(predicate, position)`` pair gets its
buckets the first time a getter is asked for it (``with_term_at`` asks
on every call; a join plan asks for every position it may probe when it
starts, before it knows whether it will reach them): one scan of the
predicate bucket, skipping atoms too short to have that position.  From
then on ``add`` and ``discard`` maintain the positions already indexed,
and no others.  Rules whose bodies are single atoms never probe, so a
chase over them builds no position bucket at all.  ``copy`` carries the
indexed positions; a pickled instance ships its atom list only.

All buckets are insertion-ordered (plain dicts), so iteration order is
deterministic for a deterministic insertion sequence — the chase engines
rely on this for reproducible derivations.  A lazy bucket has the order
an eagerly maintained one would have had: the predicate bucket it is
built from is in insertion order, and from then on ``add`` appends to
both and ``discard`` removes from both.

Probes may come from several threads at once when a caller shares an
instance between threads.  A position's buckets are built off to the
side under a lock and published before the position is marked indexed,
so a reader never sees a partial bucket.  Mutation stays single-threaded.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, KeysView, Optional, Set, Tuple

from repro.core.atoms import Atom
from repro.core.schema import Schema
from repro.core.terms import Constant, Null, Term

#: Shared empty bucket; never mutated.  Handed out as a keys view, and as
#: the default a position getter returns for a term it holds no bucket of.
_EMPTY: Dict = {}


class Delta:
    """An insertion-ordered record of the atoms added during one chase round.

    The semi-naive engines (:meth:`repro.chase.engine.ChaseEngine.run_round`)
    ask the instance to *track* additions for the duration of a round, then
    take the delta and match TGD bodies against it: at least one body atom
    must be bound to a delta atom for a trigger to be new — the classic
    semi-naive rewriting.  The delta therefore keeps its own per-round index
    snapshot: a per-predicate bucket over just the round's atoms, far
    smaller than the instance-wide buckets.

    Each atom carries its *birth position* (a monotone insertion counter).
    Round-based discovery uses it to reconstruct the exact step-at-a-time
    enqueue order: a trigger becomes discoverable at the moment its last
    body-image atom is added, so ordering a round's discoveries by
    ``(max birth position of the image's delta atoms, canonical key)``
    replays the per-application FIFO batches byte for byte.
    """

    __slots__ = ("_positions", "_by_predicate", "_counter")

    def __init__(self):
        self._positions: Dict[Atom, int] = {}
        self._by_predicate: Dict[str, Dict[Atom, None]] = {}
        self._counter = 0

    def record(self, atom: Atom) -> None:
        """Note one freshly added atom (called by ``Instance.add``)."""
        if atom in self._positions:
            return
        self._positions[atom] = self._counter
        self._counter += 1
        self._by_predicate.setdefault(atom.predicate, {})[atom] = None

    def remove(self, atom: Atom) -> None:
        """Forget a recorded atom (mirrors ``Instance.discard``)."""
        if self._positions.pop(atom, None) is None:
            return
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.pop(atom, None)
            if not bucket:
                del self._by_predicate[atom.predicate]

    def positions(self) -> Dict[Atom, int]:
        """Atom -> birth position within the round (insertion counter).

        The live mapping; treat as read-only.
        """
        return self._positions

    def snapshot(self) -> list:
        """``(atom, birth position)`` pairs in insertion order.

        What a :class:`repro.chase.checkpoint.ChaseCheckpoint` carries for
        a suspended round; :meth:`_restore` rebuilds an identical delta
        (per-predicate buckets re-derived, birth counters preserved).
        """
        return list(self._positions.items())

    @classmethod
    def _restore(cls, items, counter) -> "Delta":
        delta = cls()
        for atom, position in items:
            delta._positions[atom] = position
            delta._by_predicate.setdefault(atom.predicate, {})[atom] = None
        delta._counter = counter
        return delta

    def atoms(self) -> list:
        """The recorded atoms in insertion order."""
        return list(self._positions)

    def with_predicate(self, predicate: str) -> KeysView:
        """The round's atoms under ``predicate`` (a set-like view)."""
        return self._by_predicate.get(predicate, _EMPTY).keys()

    def predicates(self) -> KeysView:
        return self._by_predicate.keys()

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._positions

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __bool__(self) -> bool:
        return bool(self._positions)

    def __repr__(self) -> str:
        atoms = ", ".join(repr(a) for a in self._positions)
        return f"Delta([{atoms}])"


class Instance:
    """A mutable set of ground atoms with predicate and term-position indexes.

    The indexes make homomorphism search and active-trigger checks cheap:
    candidates for a body atom are the intersection of the buckets of its
    bound positions instead of a scan over the whole instance.  Position
    buckets are built on first probe (see the module docstring).

    This class is the *memory backend* of the instance contract; the
    disk-backed :class:`repro.backends.sqlite.SQLiteInstance` implements
    the same interface over an on-disk file.  Code that should stay
    backend-agnostic builds instances through
    :func:`repro.backends.make_instance` (or passes ``backend=`` to a
    chase entry point) instead of constructing ``Instance()`` directly —
    direct construction keeps working, but pins the memory backend.
    """

    def __init__(self, atoms: Optional[Iterable[Atom]] = None):
        # Every bucket is a dict used as an insertion-ordered set (values unused).
        self._atoms: Dict[Atom, None] = {}
        self._by_predicate: Dict[str, Dict[Atom, None]] = {}
        #: (predicate, position) -> term -> bucket, for indexed positions.
        self._by_position: Dict[Tuple[str, int], Dict[Term, Dict[Atom, None]]] = {}
        #: predicate -> ``(position, term -> bucket)`` per indexed position,
        #: in indexing order: what ``add`` and ``discard`` maintain.
        self._indexed: Dict[str, Tuple[Tuple[int, Dict[Term, Dict[Atom, None]]], ...]] = {}
        #: Serializes first-probe builds across threads.
        self._index_lock = threading.Lock()
        self._delta: Optional[Delta] = None
        if atoms is not None:
            for atom in atoms:
                self.add(atom)

    def __reduce__(self):
        # Pickle as the insertion-ordered atom list, on every backend;
        # __init__ re-derives the predicate buckets on the other side, and
        # position buckets are rebuilt on demand.  Bucket iteration order —
        # which the chase engines rely on — is a function of the insertion
        # sequence, so the rebuilt instance is index-identical, not just
        # set-equal.  A mid-round delta is deliberately not carried across:
        # a checkpoint records a cut round's delta itself, so a pickled
        # instance is a whole-instance snapshot.
        return (type(self), (list(self),))

    # -- round-delta tracking (semi-naive evaluation) ----------------------

    def track_delta(self) -> Delta:
        """Start recording additions into a fresh :class:`Delta`.

        Any previous tracking is replaced.  ``add`` records each genuinely
        new atom; ``discard`` removes it again.  The semi-naive engines call
        this at the start of a round and :meth:`take_delta` at its end.
        """
        self._delta = Delta()
        return self._delta

    def take_delta(self) -> Delta:
        """Stop tracking and return the recorded delta."""
        if self._delta is None:
            raise RuntimeError("take_delta() without a preceding track_delta()")
        delta = self._delta
        self._delta = None
        return delta

    def resume_delta(self, delta: Delta) -> Delta:
        """Continue recording into a restored :class:`Delta`.

        The checkpoint-restore path: a budget cut can suspend a semi-naive
        round mid-flight, and resuming byte-identically requires the round's
        delta to keep its birth counters.  ``track_delta`` would start a
        fresh counter; this re-attaches the carried one.
        """
        self._delta = delta
        return delta

    def add(self, atom: Atom) -> bool:
        """Insert ``atom``; returns True iff it was not already present."""
        if not isinstance(atom, Atom):
            raise TypeError(f"instances contain atoms, got {atom!r}")
        if not atom.is_ground:
            raise ValueError(f"instances contain ground atoms only, got {atom}")
        # One probe both tests membership and inserts: re-setting a present
        # key keeps its place, so only the size tells a new atom.
        atoms = self._atoms
        size = len(atoms)
        atoms[atom] = None
        if len(atoms) == size:
            return False
        predicate, terms = atom
        self._by_predicate.setdefault(predicate, {})[atom] = None
        positions = self._indexed.get(predicate)
        if positions:
            arity = len(terms)
            for i, buckets in positions:
                if i <= arity:
                    buckets.setdefault(terms[i - 1], {})[atom] = None
        delta = self._delta
        if delta is not None:
            # ``Delta.record`` without its membership test: an atom new to
            # the instance is not in its delta, since ``discard`` removes
            # from both.
            delta._positions[atom] = delta._counter
            delta._counter += 1
            delta._by_predicate.setdefault(predicate, {})[atom] = None
        return True

    def update(self, atoms: Iterable[Atom]) -> int:
        """Insert many atoms; returns how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    def discard(self, atom: Atom) -> bool:
        """Remove ``atom`` if present; returns True iff it was present."""
        if atom not in self._atoms:
            return False
        del self._atoms[atom]
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.pop(atom, None)
            if not bucket:
                del self._by_predicate[atom.predicate]
        terms = atom.terms
        for i, buckets in self._indexed.get(atom.predicate, ()):
            if i <= len(terms):
                term = terms[i - 1]
                position_bucket = buckets[term]
                del position_bucket[atom]
                if not position_bucket:
                    del buckets[term]
        if self._delta is not None:
            self._delta.remove(atom)
        return True

    def with_predicate(self, predicate: str) -> KeysView:
        """All atoms whose predicate is ``predicate`` (a set-like view)."""
        return self._by_predicate.get(predicate, _EMPTY).keys()

    def with_term_at(self, predicate: str, position: int, term: Term) -> KeysView:
        """All atoms with ``term`` at 1-based ``position`` of ``predicate``.

        The term-position index lookup: a set-like, insertion-ordered view
        of the bucket :meth:`position_lookup`'s getter finds.
        """
        return self.position_lookup(predicate, position)(term, _EMPTY).keys()

    def position_lookup(self, predicate: str, position: int) -> Callable:
        """The getter of ``(predicate, position)``'s buckets.

        ``get(term, default)`` returns the live bucket (a dict of atoms,
        insertion-ordered) of the atoms with ``term`` at ``position``, or
        ``default`` when there are none.  The getter keeps answering for
        the instance as it changes: ``add`` and ``discard`` update the
        dict it is bound to.  Callers must not mutate a bucket.

        The first request for a position builds its buckets: one scan of
        the insertion-ordered predicate bucket, so each bucket lists its
        atoms in insertion order.  The buckets are complete before they
        are published, and the position is marked only after they are, so
        a concurrent reader sees a whole bucket or none.
        """
        key = (predicate, position)
        buckets = self._by_position.get(key)
        if buckets is not None:
            return buckets.get
        if position < 1:
            # No atom has such a position; ``terms[position - 1]`` would wrap.
            return _EMPTY.get
        with self._index_lock:
            buckets = self._by_position.get(key)
            if buckets is None:
                buckets = {}
                for atom in self._by_predicate.get(predicate, _EMPTY):
                    terms = atom.terms
                    if position <= len(terms):
                        buckets.setdefault(terms[position - 1], {})[atom] = None
                self._by_position[key] = buckets
                indexed = self._indexed.get(predicate, ())
                self._indexed[predicate] = indexed + ((position, buckets),)
        return buckets.get

    def membership(self):
        """A container whose ``in`` answers ``in self``: the live atom dict,
        one C-level lookup per test.  An atom equals its ``(predicate,
        terms)`` pair, so the pair tests too.  The join plans take it once
        per call and test a step whose terms are all bound with it.
        Callers must not mutate it."""
        return self._atoms

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def __eq__(self, other) -> bool:
        # Set equality across *any* backend pair: compare sizes, then
        # membership — never the private dict, which a disk-backed
        # instance does not have.
        if isinstance(other, (Instance, set, frozenset)):
            if len(self) != len(other):
                return False
            return all(atom in other for atom in self)
        return NotImplemented

    def atoms(self) -> Set[Atom]:
        """A copy of the underlying atom set."""
        return set(self)

    def sorted_atoms(self) -> list:
        """Atoms in deterministic order."""
        return sorted(self, key=Atom.sort_key)

    def copy(self) -> "Instance":
        """An independent copy of the same class, in the same insertion order.

        Carries the indexed positions, so the clone probes as cheaply as
        the original.
        """
        clone = type(self)()
        clone._atoms = dict(self._atoms)
        clone._by_predicate = {p: dict(d) for p, d in self._by_predicate.items()}
        clone._by_position = {
            key: {term: dict(bucket) for term, bucket in buckets.items()}
            for key, buckets in self._by_position.items()
        }
        clone._indexed = {
            predicate: tuple([(i, clone._by_position[predicate, i]) for i, _ in pairs])
            for predicate, pairs in self._indexed.items()
        }
        return clone

    def domain(self) -> Set[Term]:
        """The active domain ``dom(I)``: all terms occurring in the instance."""
        dom: Set[Term] = set()
        for atom in self:
            dom.update(atom.terms)
        return dom

    def constants(self) -> Set[Constant]:
        return {t for t in self.domain() if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        return {t for t in self.domain() if isinstance(t, Null)}

    def predicates(self) -> Set[str]:
        return set(self._by_predicate)

    def schema(self) -> Schema:
        """The schema induced by the atoms of this instance."""
        return Schema.from_atoms(self)

    def is_database(self) -> bool:
        """True iff every atom is a fact (constants only)."""
        return all(atom.is_fact for atom in self)

    def __repr__(self) -> str:
        atoms = ", ".join(repr(a) for a in self.sorted_atoms())
        return f"Instance({{{atoms}}})"


class Database(Instance):
    """A finite set of facts: atoms over constants only (Section 2)."""

    def add(self, atom: Atom) -> bool:
        if not atom.is_fact:
            raise ValueError(f"databases contain facts only, got {atom}")
        return super().add(atom)

    def __repr__(self) -> str:
        atoms = ", ".join(repr(a) for a in self.sorted_atoms())
        return f"Database({{{atoms}}})"
