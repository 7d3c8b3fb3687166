"""A disk-backed instance: the atom set and its indexes in SQLite.

:class:`SQLiteInstance` conforms to the :class:`repro.core.instance.Instance`
contract — same methods, same insertion-order semantics, same births —
while keeping the atom set and the ``(predicate, position,
term)`` buckets in an on-disk SQLite file, so chases can grow past RAM.

Schema
------

Two tables, mirroring the memory backend's three dicts (the atom set and
the per-predicate index share one table — a predicate bucket is a range
scan over ``(predicate, birth)``):

* ``atoms(birth INTEGER PRIMARY KEY, predicate TEXT, terms TEXT,
  UNIQUE(predicate, terms))`` — ``birth`` is the atom's birth, its
  insertion position, as the memory backend keeps it in its atom dict's
  values; every bucket query orders by it, which is what keeps iteration
  order (hence derivations, null names, and ``sorted_atoms``)
  byte-identical across backends.  The births getter and
  ``born_since`` are queries on it.  Rows are only ever inserted, never
  deleted: instances only grow, so the births are ``0 .. len - 1`` and
  one counter is both the size and the next birth.  ``terms`` is the
  length-prefixed ground-term encoding of :func:`encode_terms`
  (unambiguous for arbitrary term names).
* ``buckets(predicate, position, term, birth)`` (``WITHOUT ROWID``,
  primary key over all four columns) — the term-position index; a
  ``with_term_at`` lookup is a prefix scan joined back to ``atoms``.

Lifecycle: every instance creates its own private temporary file
(``chase-*.sqlite`` under the temp directory) and is the only thing that
ever opens it; :meth:`SQLiteInstance.close` (or garbage collection)
removes it again, together with its ``-wal``/``-shm`` side files.  No
caller chooses a path, so no two instances share a file and none outlives
its owner.

Pragmas (fixed): ``journal_mode=WAL`` (readers never block the writer),
``synchronous=OFF`` (chase state is recomputable; a checkpoint, not the
file, is the durability story), ``temp_store=MEMORY``.  Connections run
in autocommit mode: every write is visible to the instance's other
connections immediately.

Process/thread safety: one connection per ``(pid, thread)``, opened
lazily — a service executor thread gets its own handle onto the same
file.  Writes stay single-owner (the chase engine mutates from one
thread at a time); concurrent *reads* from other threads are safe under
WAL.  Only the creating process removes the file.

Pickling: as the memory backend, the insertion-ordered atom list
(:meth:`repro.core.instance.Instance.__reduce__`); the copy is a new
instance in a temporary file of its own.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from typing import Iterator, List, Optional, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, Term

_SCHEMA = (
    """
    CREATE TABLE atoms (
        birth INTEGER PRIMARY KEY,
        predicate TEXT NOT NULL,
        terms TEXT NOT NULL,
        UNIQUE (predicate, terms)
    )
    """,
    """
    CREATE INDEX atoms_by_predicate
        ON atoms (predicate, birth)
    """,
    """
    CREATE TABLE buckets (
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


#: Entries :attr:`SQLiteInstance._seen` holds before it starts over.
_SEEN = 4096


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
            instance = self._instance
            rows = instance._connection().execute(self._select, self._params).fetchall()
            self._atoms = [Atom(predicate, decode_terms(blob)) for _, predicate, blob in rows]
            self._len = len(self._atoms)
            with instance._seen_lock:
                if len(instance._seen) > _SEEN:
                    instance._seen.clear()
                instance._seen.update(zip(self._atoms, [row[0] for row in rows]))
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
        # An atom equals its ``(predicate, terms)`` pair, so the pair tests
        # too, as it does against a memory bucket.
        return atom in self._materialize()

    def __repr__(self) -> str:
        return f"_SQLiteView({len(self)} atoms)"


class SQLiteInstance(Instance):
    """An :class:`Instance` whose atom set and indexes live in SQLite.

    Each instance creates a fresh private temporary file holding
    ``atoms`` (in their order), removed again when the creating process
    drops the instance (:meth:`close`).
    """

    def __init__(self, atoms=None):
        handle, self._path = tempfile.mkstemp(prefix="chase-", suffix=".sqlite")
        os.close(handle)
        self._owner_pid = os.getpid()
        self._connections = {}
        self._conn_lock = threading.Lock()
        #: Births of atoms the bucket views decoded lately, which is where
        #: the births getter's atoms come from: at most ``_SEEN`` entries.
        #: An atom's birth never changes, so an entry never goes stale.
        self._seen = {}
        self._seen_lock = threading.Lock()
        #: The atom count, which is also the next birth.
        self._len = 0
        conn = self._connection()
        for statement in _SCHEMA:
            conn.execute(statement)
        if atoms is not None:
            for atom in atoms:
                self.add(atom)

    # -- connections ---------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The calling ``(pid, thread)``'s connection, opened on first use.

        A forked child never reuses its parent's handle (the key includes
        the pid), and executor threads each get their own.
        """
        key = (os.getpid(), threading.get_ident())
        conn = self._connections.get(key)
        if conn is None:
            with self._conn_lock:
                conn = self._connections.get(key)
                if conn is None:
                    conn = sqlite3.connect(
                        self._path,
                        timeout=30.0,
                        isolation_level=None,
                        check_same_thread=False,
                    )
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute("PRAGMA synchronous=OFF")
                    conn.execute("PRAGMA temp_store=MEMORY")
                    self._connections[key] = conn
        return conn

    @property
    def path(self) -> str:
        """The on-disk database file."""
        return self._path

    def close(self, _getpid=os.getpid, _unlink=os.unlink) -> None:
        """Close this process's connections and, in the creating process,
        remove the file (a forked child never deletes it from under the
        owner).

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
        if pid == self._owner_pid:
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
            (self._len, atom.predicate, encode_terms(atom.terms)),
        )
        if conn.total_changes == before:
            return False
        birth = self._len
        self._len += 1
        conn.executemany(
            "INSERT OR IGNORE INTO buckets (predicate, position, term, birth) "
            "VALUES (?, ?, ?, ?)",
            [
                (atom.predicate, i, encode_term(term), birth)
                for i, term in enumerate(atom.terms, start=1)
            ],
        )
        return True

    # -- births --------------------------------------------------------------

    def next_birth(self) -> int:
        return self._len

    def births(self):
        """The births getter: ``get(atom, default)`` answers from the
        births the bucket views decoded lately (a plan walks the atoms of
        a view it just read), else with one query on the ``(predicate,
        terms)`` key."""
        connection, seen = self._connection, self._seen

        def get(atom, default=None):
            birth = seen.get(atom)
            if birth is not None:
                return birth
            predicate, terms = atom
            row = connection().execute(
                "SELECT birth FROM atoms WHERE predicate = ? AND terms = ?",
                (predicate, encode_terms(terms)),
            ).fetchone()
            return default if row is None else row[0]

        return get

    def born_since(self, start: int) -> List[Tuple[Atom, int]]:
        cursor = self._connection().execute(
            "SELECT birth, predicate, terms FROM atoms WHERE birth >= ? ORDER BY birth",
            (start,),
        )
        return [
            (Atom(predicate, decode_terms(blob)), birth)
            for birth, predicate, blob in cursor.fetchall()
        ]

    # -- lookups -------------------------------------------------------------

    def with_predicate(self, predicate: str) -> _SQLiteView:
        return _SQLiteView(
            self,
            "SELECT birth, predicate, terms FROM atoms WHERE predicate = ? ORDER BY birth",
            "SELECT COUNT(*) FROM atoms WHERE predicate = ?",
            (predicate,),
        )

    def position_lookup(self, predicate: str, position: int):
        """The getter of ``(predicate, position)``: ``get(term, default)``
        is ``with_term_at(predicate, position, term)``.  It ignores
        ``default``: a term without atoms gets an empty view, which
        iterates, sizes and tests false like the memory backend's default.
        """
        with_term_at = self.with_term_at

        def get(term: Term, default=None) -> _SQLiteView:
            return with_term_at(predicate, position, term)

        return get

    def with_term_at(self, predicate: str, position: int, term: Term) -> _SQLiteView:
        params = (predicate, position, encode_term(term))
        return _SQLiteView(
            self,
            "SELECT a.birth, a.predicate, a.terms FROM buckets b "
            "JOIN atoms a ON a.birth = b.birth "
            "WHERE b.predicate = ? AND b.position = ? AND b.term = ? "
            "ORDER BY b.birth",
            "SELECT COUNT(*) FROM buckets "
            "WHERE predicate = ? AND position = ? AND term = ?",
            params,
        )

    def __contains__(self, atom) -> bool:
        # Any ``(predicate, ground terms)`` pair, as a memory instance's
        # dict answers it: an atom equals the pair it is.
        if not (isinstance(atom, tuple) and len(atom) == 2):
            return False
        predicate, terms = atom
        if not (
            isinstance(predicate, str)
            and isinstance(terms, tuple)
            and all(isinstance(term, (Constant, Null)) for term in terms)
        ):
            return False
        row = self._connection().execute(
            "SELECT 1 FROM atoms WHERE predicate = ? AND terms = ?",
            (predicate, encode_terms(terms)),
        ).fetchone()
        return row is not None

    def membership(self):
        """This instance: its ``in`` is one query per test."""
        return self

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

        Copies are working scratch state (``Derivation`` replays, engine
        forks, test fixtures), not a second persistence root — duplicating
        the file would couple two engines to one path.  The memory copy
        compares equal, iterates identically, and gives every atom the same
        birth.
        """
        return Instance(self)

    def __repr__(self) -> str:
        return (
            f"SQLiteInstance({self._len} atoms at {self._path!r})"
        )
