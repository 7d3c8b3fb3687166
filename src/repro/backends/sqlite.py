"""A disk-backed instance: the atom set and its indexes in SQLite.

:class:`SQLiteInstance` conforms to the :class:`repro.core.instance.Instance`
contract — same methods, same insertion-order semantics, same delta
tracking — while keeping the atom set and the ``(predicate, position,
term)`` buckets in an on-disk SQLite file, so chases can grow past RAM.

Schema
------

Two tables, mirroring the memory backend's three dicts (the atom set and
the per-predicate index share one table — a predicate bucket is a range
scan over ``(predicate, birth)``):

* ``atoms(birth INTEGER PRIMARY KEY, predicate TEXT, terms TEXT,
  UNIQUE(predicate, terms))`` — ``birth`` is the monotone insertion
  counter the memory backend gets for free from dict ordering; every
  bucket query orders by it, which is what keeps iteration order (hence
  derivations, null names, and ``sorted_atoms``) byte-identical across
  backends.  ``terms`` is the length-prefixed ground-term encoding of
  :func:`encode_terms` (unambiguous for arbitrary term names).
* ``buckets(predicate, position, term, birth)`` (``WITHOUT ROWID``,
  primary key over all four columns) — the term-position index; a
  ``with_term_at`` lookup is a prefix scan joined back to ``atoms``.

Pragmas: ``journal_mode=WAL`` (readers never block the writer — the
parallel matcher's forked workers read while the owner is between
rounds), ``synchronous=OFF`` (chase state is recomputable; a
checkpoint, not the file, is the durability story), ``temp_store=MEMORY``.
Connections run in autocommit mode: every write is visible to other
connections immediately, which is what lets forked pool workers (fresh
connections onto the same path) see the exact pre-fork state.

Process/thread safety: one connection per ``(pid, thread)``, opened
lazily — a forked pool worker or a service executor thread gets its own
handle onto the same file.  Writes stay single-owner (the chase engine mutates from
one thread at a time); concurrent *reads* from other threads/processes
are safe under WAL.

Pickling: :meth:`SQLiteInstance.__reduce__` ships only the path and the
connection pragmas — the receiver attaches to the file instead of
receiving a full atom-list snapshot, which keeps the pickle small for
instances that no longer fit in one.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from typing import Iterator, List, Optional, Set

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, Term

#: Accepted values for the ``synchronous`` pragma option.
_SYNCHRONOUS = ("OFF", "NORMAL", "FULL")

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS atoms (
        birth INTEGER PRIMARY KEY,
        predicate TEXT NOT NULL,
        terms TEXT NOT NULL,
        UNIQUE (predicate, terms)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS atoms_by_predicate
        ON atoms (predicate, birth)
    """,
    """
    CREATE TABLE IF NOT EXISTS buckets (
        predicate TEXT NOT NULL,
        position INTEGER NOT NULL,
        term TEXT NOT NULL,
        birth INTEGER NOT NULL,
        PRIMARY KEY (predicate, position, term, birth)
    ) WITHOUT ROWID
    """,
)


def encode_term(term: Term) -> str:
    """One ground term as ``<kind><length>:<name>`` (kind ``c`` or ``n``).

    Length-prefixed, so names containing any delimiter are unambiguous;
    the encoding is injective and order-free (sorting happens in Python
    via :meth:`Atom.sort_key`, never in SQL).
    """
    kind = "c" if isinstance(term, Constant) else "n"
    return f"{kind}{len(term.name)}:{term.name}"


def encode_terms(terms) -> str:
    """An atom's term tuple as the concatenation of its term encodings."""
    return "".join(encode_term(term) for term in terms)


def decode_terms(blob: str) -> List[Term]:
    """Invert :func:`encode_terms`."""
    terms: List[Term] = []
    index = 0
    length = len(blob)
    while index < length:
        kind = blob[index]
        colon = blob.index(":", index + 1)
        size = int(blob[index + 1:colon])
        start = colon + 1
        name = blob[start:start + size]
        terms.append(Constant(name) if kind == "c" else Null(name))
        index = start + size
    return terms


class _SQLiteView:
    """A lazy, set-like bucket view (the ``KeysView`` stand-in).

    ``candidate_atoms`` compares ``len(bucket)`` across several views at
    every search depth and iterates only the winner, so the count and the
    row materialization are separate, memoized queries — a view that is
    only sized never decodes an atom.  Views are created per lookup and
    must not be held across instance mutations (matching the memory
    backend's live-view caveat).
    """

    __slots__ = ("_instance", "_select", "_count_sql", "_params", "_len", "_atoms")

    def __init__(self, instance: "SQLiteInstance", select: str, count_sql: str, params):
        self._instance = instance
        self._select = select
        self._count_sql = count_sql
        self._params = params
        self._len: Optional[int] = None
        self._atoms: Optional[List[Atom]] = None

    def _materialize(self) -> List[Atom]:
        if self._atoms is None:
            cursor = self._instance._connection().execute(self._select, self._params)
            self._atoms = [
                Atom(predicate, decode_terms(blob))
                for predicate, blob in cursor.fetchall()
            ]
            self._len = len(self._atoms)
        return self._atoms

    def __len__(self) -> int:
        if self._len is None:
            row = self._instance._connection().execute(
                self._count_sql, self._params
            ).fetchone()
            self._len = row[0]
        return self._len

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._materialize())

    def __contains__(self, atom) -> bool:
        return isinstance(atom, Atom) and atom in self._materialize()

    def __repr__(self) -> str:
        return f"_SQLiteView({len(self)} atoms)"


class SQLiteInstance(Instance):
    """An :class:`Instance` whose atom set and indexes live in SQLite.

    ``atoms`` given (even an empty list) initializes the file *fresh* —
    the chase-engine path, which always seeds from a sorted atom list;
    ``atoms=None`` attaches to whatever the file already holds (the
    pickle/worker path, also reachable via
    ``make_instance("sqlite", path=...)``).  ``path=None`` creates a
    private temporary file, removed again when the creating process drops
    the instance (:meth:`close`).
    """

    def __init__(
        self,
        atoms=None,
        path: Optional[str] = None,
        synchronous: str = "OFF",
        timeout: float = 30.0,
    ):
        if synchronous not in _SYNCHRONOUS:
            raise ValueError(
                f"synchronous must be one of {_SYNCHRONOUS}, got {synchronous!r}"
            )
        if path is None:
            handle, path = tempfile.mkstemp(prefix="chase-", suffix=".sqlite")
            os.close(handle)
            self._owns_path = True
        else:
            self._owns_path = False
        self._path = path
        self._synchronous = synchronous
        self._timeout = float(timeout)
        self._owner_pid = os.getpid()
        self._connections = {}
        self._conn_lock = threading.Lock()
        self._delta = None
        conn = self._connection()
        for statement in _SCHEMA:
            conn.execute(statement)
        if atoms is not None:
            conn.execute("DELETE FROM buckets")
            conn.execute("DELETE FROM atoms")
        row = conn.execute("SELECT COUNT(*), COALESCE(MAX(birth), -1) FROM atoms").fetchone()
        self._len, max_birth = row
        self._birth = max_birth + 1
        if atoms is not None:
            for atom in atoms:
                self.add(atom)

    # -- connections ---------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The calling ``(pid, thread)``'s connection, opened on first use.

        Fork-inherited instances never reuse the parent's handle (the key
        includes the pid), and executor threads each get their own — the
        two sharing patterns :mod:`repro.chase.parallel` actually exercises.
        """
        key = (os.getpid(), threading.get_ident())
        conn = self._connections.get(key)
        if conn is None:
            with self._conn_lock:
                conn = self._connections.get(key)
                if conn is None:
                    conn = sqlite3.connect(
                        self._path,
                        timeout=self._timeout,
                        isolation_level=None,
                        check_same_thread=False,
                    )
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute(f"PRAGMA synchronous={self._synchronous}")
                    conn.execute("PRAGMA temp_store=MEMORY")
                    self._connections[key] = conn
        return conn

    @property
    def path(self) -> str:
        """The on-disk database file."""
        return self._path

    def close(
        self,
        remove: Optional[bool] = None,
        _getpid=os.getpid,
        _unlink=os.unlink,
    ) -> None:
        """Close this process's connections; optionally remove the file.

        ``remove=None`` removes the file iff this instance created it as a
        temporary (and only in the creating process — forked children and
        attached workers never delete state from under the owner).

        The ``os`` functions are bound as defaults so the ``__del__`` path
        still works during interpreter shutdown, after module globals are
        torn down.
        """
        pid = _getpid()
        with self._conn_lock:
            for key, conn in list(self._connections.items()):
                if key[0] != pid:
                    continue
                try:
                    conn.close()
                except Exception:  # noqa: BLE001 - shutdown best effort
                    pass
                del self._connections[key]
        if remove is None:
            remove = self._owns_path and pid == self._owner_pid
        if remove:
            for suffix in ("", "-wal", "-shm"):
                try:
                    _unlink(self._path + suffix)
                except OSError:
                    pass

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter-shutdown best effort
            pass

    # -- pickling ------------------------------------------------------------

    @classmethod
    def _attach(
        cls, path: str, synchronous: str = "OFF", timeout: float = 30.0
    ) -> "SQLiteInstance":
        """Attach to an existing database file (the unpickling path)."""
        return cls(None, path=path, synchronous=synchronous, timeout=timeout)

    def __reduce__(self):
        # Path + pragmas only: the worker on the other side attaches to the
        # shared file instead of rebuilding from an atom-list snapshot.
        return (
            type(self)._attach,
            (self._path, self._synchronous, self._timeout),
        )

    # -- mutation ------------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        if not isinstance(atom, Atom):
            raise TypeError(f"instances contain atoms, got {atom!r}")
        if not atom.is_ground:
            raise ValueError(f"instances contain ground atoms only, got {atom}")
        conn = self._connection()
        before = conn.total_changes
        conn.execute(
            "INSERT OR IGNORE INTO atoms (birth, predicate, terms) VALUES (?, ?, ?)",
            (self._birth, atom.predicate, encode_terms(atom.terms)),
        )
        if conn.total_changes == before:
            return False
        birth = self._birth
        self._birth += 1
        self._len += 1
        conn.executemany(
            "INSERT OR IGNORE INTO buckets (predicate, position, term, birth) "
            "VALUES (?, ?, ?, ?)",
            [
                (atom.predicate, i, encode_term(term), birth)
                for i, term in enumerate(atom.terms, start=1)
            ],
        )
        if self._delta is not None:
            self._delta.record(atom)
        return True

    def discard(self, atom: Atom) -> bool:
        if not isinstance(atom, Atom) or not atom.is_ground:
            return False
        conn = self._connection()
        row = conn.execute(
            "SELECT birth FROM atoms WHERE predicate = ? AND terms = ?",
            (atom.predicate, encode_terms(atom.terms)),
        ).fetchone()
        if row is None:
            return False
        birth = row[0]
        conn.execute("DELETE FROM atoms WHERE birth = ?", (birth,))
        conn.executemany(
            "DELETE FROM buckets WHERE predicate = ? AND position = ? "
            "AND term = ? AND birth = ?",
            [
                (atom.predicate, i, encode_term(term), birth)
                for i, term in enumerate(atom.terms, start=1)
            ],
        )
        self._len -= 1
        if self._delta is not None:
            self._delta.remove(atom)
        return True

    # -- lookups -------------------------------------------------------------

    def with_predicate(self, predicate: str) -> _SQLiteView:
        return _SQLiteView(
            self,
            "SELECT predicate, terms FROM atoms WHERE predicate = ? ORDER BY birth",
            "SELECT COUNT(*) FROM atoms WHERE predicate = ?",
            (predicate,),
        )

    def index_position(self, predicate: str, position: int) -> None:
        """A no-op: the ``buckets`` table indexes every position already."""

    def with_term_at(self, predicate: str, position: int, term: Term) -> _SQLiteView:
        params = (predicate, position, encode_term(term))
        return _SQLiteView(
            self,
            "SELECT a.predicate, a.terms FROM buckets b "
            "JOIN atoms a ON a.birth = b.birth "
            "WHERE b.predicate = ? AND b.position = ? AND b.term = ? "
            "ORDER BY b.birth",
            "SELECT COUNT(*) FROM buckets "
            "WHERE predicate = ? AND position = ? AND term = ?",
            params,
        )

    def __contains__(self, atom) -> bool:
        if not isinstance(atom, Atom):
            return False
        row = self._connection().execute(
            "SELECT 1 FROM atoms WHERE predicate = ? AND terms = ?",
            (atom.predicate, encode_terms(atom.terms)),
        ).fetchone()
        return row is not None

    def __iter__(self) -> Iterator[Atom]:
        # Insertion (birth) order, streamed in batches.  Do not mutate the
        # instance while iterating — same contract as a dict view.
        cursor = self._connection().execute(
            "SELECT predicate, terms FROM atoms ORDER BY birth"
        )
        while True:
            rows = cursor.fetchmany(1024)
            if not rows:
                return
            for predicate, blob in rows:
                yield Atom(predicate, decode_terms(blob))

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def predicates(self) -> Set[str]:
        cursor = self._connection().execute("SELECT DISTINCT predicate FROM atoms")
        return {row[0] for row in cursor.fetchall()}

    def copy(self) -> Instance:
        """An in-memory copy (insertion order preserved).

        Copies are working scratch state (``Derivation`` replays, test
        fixtures), not a second persistence root — duplicating the file
        would couple two engines to one path.  The memory copy compares
        equal and iterates identically.
        """
        return Instance(self)

    def __repr__(self) -> str:
        return (
            f"SQLiteInstance({self._len} atoms at {self._path!r})"
        )
