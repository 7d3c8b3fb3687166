"""Digest-keyed memoization of termination verdicts and suspect scans.

The paper's all-instances framing makes ``CT_res_∀∀`` a property of the
TGD set alone — no database enters the question — so a termination verdict
is perfectly shareable across every client that ships the same rule set.
:class:`VerdictCache` realizes that sharing: entries are keyed by
:func:`repro.tgds.tgd.tgd_set_digest`, the set-level extension of the
digest-prefix identity guard that already protects checkpoint restore
(null invention depends on rule *names*, so the key is
name-sensitive on purpose — two sets share a key exactly when they chase
byte-identically).

Two namespaces live behind one key space:

* **verdicts** — :class:`repro.termination.verdict.Verdict` answers.  Only
  *settled* statuses (``ALL_TERMINATING`` / ``NOT_ALL_TERMINATING``) are
  ever stored: a ``TIMEOUT`` reflects the budget of one request and an
  ``UNKNOWN`` the bounds of one run, so replaying either to a later caller
  with a bigger budget would be wrong.
* **suspects** — the guarded decider's per-candidate suspect-scan outcome
  rows (``ChaseStats.suspects``), stored alongside the verdict they
  produced so a cache hit can replay the decider's evidence without
  re-chasing a single suspect.

The cache is thread-safe (the HTTP front end chases in executor threads)
and bounded: least-recently-used entries fall off past ``max_entries``.
Hit/miss counters feed the service's :class:`repro.obs.stats.ChaseStats`
session counters and the ``/statz`` endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Sequence

from repro.termination.verdict import Status, Verdict
from repro.tgds.tgd import TGD, tgd_set_digest

#: Verdict statuses worth memoizing: answers about the TGD set itself,
#: not about the budget of the run that produced them.
CACHEABLE_STATUSES = (Status.ALL_TERMINATING, Status.NOT_ALL_TERMINATING)


class VerdictCache:
    """An LRU map ``tgd_set_digest -> (verdict, suspect rows)``."""

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries!r}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        #: Verdict probes answered from the cache / answered empty.
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(tgds: Sequence[TGD]) -> str:
        """The cache key of a rule list (see :func:`tgd_set_digest`)."""
        return tgd_set_digest(tgds)

    # -- verdicts -----------------------------------------------------------

    def get_verdict(self, digest: str) -> Optional[Verdict]:
        """The memoized verdict under ``digest``, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or entry.get("verdict") is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry["verdict"]

    def put_verdict(self, digest: str, verdict: Verdict) -> bool:
        """Store a settled verdict; unsettled ones are refused (returns False)."""
        if verdict.status not in CACHEABLE_STATUSES:
            return False
        with self._lock:
            self._touch(digest)["verdict"] = verdict
        return True

    # -- suspect scans ------------------------------------------------------

    def get_suspects(self, digest: str) -> Optional[List[dict]]:
        """The memoized suspect-scan rows under ``digest``, or None.

        Does not count toward hit/miss: suspects ride along with a verdict,
        they are never the question being asked.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or entry.get("suspects") is None:
                return None
            self._entries.move_to_end(digest)
            return [dict(row) for row in entry["suspects"]]

    def put_suspects(self, digest: str, suspects: Sequence[dict]) -> None:
        with self._lock:
            self._touch(digest)["suspects"] = [dict(row) for row in suspects]

    # -- bookkeeping --------------------------------------------------------

    def _touch(self, digest: str) -> dict:
        """The entry under ``digest``, created and LRU-bumped (lock held)."""
        entry = self._entries.get(digest)
        if entry is None:
            entry = self._entries[digest] = {}
        else:
            self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def hit_rate(self) -> Optional[float]:
        lookups = self.hits + self.misses
        if not lookups:
            return None
        return self.hits / lookups

    def as_dict(self) -> dict:
        """A JSON-ready snapshot for ``/statz`` and the bench section."""
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
        }

    def __repr__(self) -> str:
        return (
            f"VerdictCache({len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses)"
        )
