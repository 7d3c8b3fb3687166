"""Restricted chase for multi-head TGDs.

Only needed to reproduce Example B.1: the Fairness Theorem (Theorem 4.1)
*fails* for TGDs whose head is a conjunction of atoms.  A multi-head
trigger is active if no single extension of ``h|fr(σ)`` maps *all* head
atoms into the instance; applying it adds all head atoms at once, sharing
the invented nulls.

Determinism matches the single-head kernel: invented nulls are
digest-determined per ``(trigger, variable)``, per-round trigger
enumeration is insertion-ordered, and ``random`` strategies are seeded —
equal inputs replay byte-identical runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.atoms import Atom
from repro.core.homomorphism import find_homomorphism, homomorphisms
from repro.core.instance import Instance
from repro.core.substitution import Substitution
from repro.core.terms import Null, Term
from repro.chase.checkpoint import Budget
from repro.errors import ChaseInterrupted, SearchBudgetExceeded
from repro.tgds.tgd import MultiHeadTGD


class MultiHeadTrigger:
    """A trigger ``(σ, h)`` for a multi-head TGD."""

    __slots__ = ("tgd", "h", "_results", "_key", "_frontier_binding", "_canonical")

    def __init__(self, tgd: MultiHeadTGD, h):
        body_vars = {v for atom in tgd.body for v in atom.variables()}
        mapping = {v: h[v] for v in body_vars}
        object.__setattr__(self, "tgd", tgd)
        object.__setattr__(self, "h", Substitution(mapping))
        object.__setattr__(self, "_results", None)
        object.__setattr__(self, "_key", (tgd, self.h.canonical_items()))
        object.__setattr__(
            self, "_frontier_binding", {v: mapping[v] for v in tgd.frontier}
        )
        object.__setattr__(self, "_canonical", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiHeadTrigger is immutable")

    @property
    def key(self) -> tuple:
        return self._key

    @property
    def canonical_key(self) -> str:
        """Deterministic total-order key (``repr(key)``), cached."""
        cached = self._canonical
        if cached is None:
            cached = repr(self._key)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def frontier_binding(self) -> Dict:
        """``h|fr(σ)`` as a plain dict, cached at construction (read-only)."""
        return self._frontier_binding

    def results(self) -> Tuple[Atom, ...]:
        """All head atoms instantiated, sharing deterministic fresh nulls."""
        cached = self._results
        if cached is not None:
            return cached
        binding = sorted(self.h.items(), key=lambda kv: kv[0].name)
        payload = self.tgd.digest_prefix()
        payload += "\x1e".join(f"{v.name}\x1f{t!r}" for v, t in binding)
        digest = hashlib.blake2b(payload.encode(), digest_size=9).hexdigest()
        mapping: Dict[Term, Term] = dict(self.h.items())
        for var in sorted(self.tgd.existential_variables, key=lambda v: v.name):
            mapping[var] = Null(f"{digest}.{var.name}")
        atoms = tuple(atom.apply(mapping) for atom in self.tgd.head)
        object.__setattr__(self, "_results", atoms)
        return atoms

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiHeadTrigger) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"MultiHeadTrigger({self.tgd.name}, {self.h!r})"


def is_active_multihead(trigger: MultiHeadTrigger, instance: Instance) -> bool:
    """No extension of ``h|fr(σ)`` maps the whole head into ``instance``."""
    return (
        find_homomorphism(trigger.tgd.head, instance, partial=trigger.frontier_binding())
        is None
    )


def multihead_triggers_on(
    tgds: Iterable[MultiHeadTGD], instance: Instance
) -> Iterator[MultiHeadTrigger]:
    """All multi-head triggers on the instance, deduplicated."""
    seen: Set[tuple] = set()
    for tgd in tgds:
        for h in homomorphisms(tgd.body, instance):
            trigger = MultiHeadTrigger(tgd, h)
            if trigger.key not in seen:
                seen.add(trigger.key)
                yield trigger


def active_multihead_triggers_on(
    tgds: Iterable[MultiHeadTGD], instance: Instance
) -> List[MultiHeadTrigger]:
    """All active multi-head triggers, deterministically ordered."""
    return sorted(
        (
            t
            for t in multihead_triggers_on(tgds, instance)
            if is_active_multihead(t, instance)
        ),
        key=lambda t: t.canonical_key,
    )


class MultiHeadChaseResult:
    """Outcome of a multi-head restricted chase run."""

    def __init__(self, instance: Instance, applied: List[MultiHeadTrigger], terminated: bool):
        self.instance = instance
        self.applied = applied
        self.terminated = terminated

    @property
    def steps(self) -> int:
        return len(self.applied)

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "cut off"
        return f"MultiHeadChaseResult({state}, {self.steps} steps)"


def _multihead_budget_check(
    budget: Optional[Budget], instance: Instance, applied: List[MultiHeadTrigger]
) -> None:
    """Raise :class:`ChaseInterrupted` when a budget limit binds.

    Multi-head runs carry no checkpoint (the loop has no engine worklist to
    snapshot); the partial instance and step count still ride along.
    """
    if budget is None:
        return
    reason = budget.exceeded(len(instance))
    if reason is not None:
        raise ChaseInterrupted(
            reason, instance=instance, partial={"steps": len(applied)}
        )


def multihead_restricted_chase(
    database: Instance,
    tgds: Sequence[MultiHeadTGD],
    strategy: Union[str, int] = "fifo",
    max_steps: int = 1_000,
    seed: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> MultiHeadChaseResult:
    """Restricted chase with multi-head TGDs.

    ``strategy`` is ``"fifo"`` (first active trigger in deterministic
    order), ``"lifo"`` (last), ``"random"``, ``"semi_naive"`` (set-at-a-time
    rounds: one active-trigger enumeration per round, every member applied
    in canonical order with an activity re-check at application time — a
    fair strategy by construction), or an integer ``k`` meaning "always
    pick the active trigger whose TGD has index k, else the first" — the
    knob Example B.1 needs to force unfair behavior.

    ``budget`` exhaustion raises :class:`repro.errors.ChaseInterrupted`
    carrying the partial instance (no checkpoint: multi-head runs are not
    resumable yet).

    One loop serves every strategy: each pass enumerates the active
    triggers once and applies a batch of them — the whole enumeration
    under ``"semi_naive"``, the one picked trigger otherwise.  Multi-head
    activity has no witness cache yet (conjunctive head witnesses are an
    open ROADMAP item), so later batch members are re-checked before they
    are applied: earlier applications of the pass may witness their
    heads.  ``max_steps`` binds only while an active trigger remains, so a
    fixpoint reached exactly at the cap reports ``terminated``; the budget
    is checked at the start of every pass and before every application.
    """
    if budget is not None:
        budget.start()
    rng = random.Random(seed)
    instance = Instance(database)
    applied: List[MultiHeadTrigger] = []
    tgd_list = list(tgds)
    while True:
        _multihead_budget_check(budget, instance, applied)
        candidates = active_multihead_triggers_on(tgd_list, instance)
        if not candidates:
            return MultiHeadChaseResult(instance, applied, terminated=True)
        if strategy != "semi_naive":
            candidates = [_pick(strategy, candidates, tgd_list, rng)]
        for index, trigger in enumerate(candidates):
            if index and not is_active_multihead(trigger, instance):
                continue
            if len(applied) >= max_steps:
                return MultiHeadChaseResult(instance, applied, terminated=False)
            _multihead_budget_check(budget, instance, applied)
            for atom in trigger.results():
                instance.add(atom)
            applied.append(trigger)
            if budget is not None:
                budget.charge_application()


def _pick(
    strategy: Union[str, int],
    candidates: List[MultiHeadTrigger],
    tgd_list: List[MultiHeadTGD],
    rng: random.Random,
) -> MultiHeadTrigger:
    """The active trigger a one-at-a-time ``strategy`` applies next."""
    if strategy == "fifo":
        return candidates[0]
    if strategy == "lifo":
        return candidates[-1]
    if strategy == "random":
        return candidates[rng.randrange(len(candidates))]
    if isinstance(strategy, int):
        preferred = [t for t in candidates if tgd_list.index(t.tgd) == strategy]
        return preferred[0] if preferred else candidates[0]
    raise ValueError(f"unknown strategy {strategy!r}")


def multihead_exists_derivation_of_length(
    database: Instance,
    tgds: Sequence[MultiHeadTGD],
    length: int,
    max_nodes: int = 100_000,
) -> Optional[List[MultiHeadTrigger]]:
    """DFS over trigger choices for a multi-head derivation of ``length`` steps.

    Returns the trigger sequence or None when every derivation is shorter
    (exhaustively verified within ``max_nodes`` states); raises
    :class:`repro.errors.SearchBudgetExceeded` when the node budget is
    exhausted first.
    """
    budget = [max_nodes]
    failed_at: Dict[frozenset, int] = {}

    def dfs(instance: Instance, steps: List[MultiHeadTrigger]):
        if len(steps) >= length:
            return list(steps)
        if budget[0] <= 0:
            raise SearchBudgetExceeded(
                f"explored {max_nodes} states without an answer"
            )
        budget[0] -= 1
        state = frozenset(instance.atoms())
        if failed_at.get(state, -1) >= len(steps):
            return None
        for trigger in active_multihead_triggers_on(tgds, instance):
            extended = instance.copy()
            for atom in trigger.results():
                extended.add(atom)
            steps.append(trigger)
            found = dfs(extended, steps)
            if found is not None:
                return found
            steps.pop()
        failed_at[state] = max(failed_at.get(state, -1), len(steps))
        return None

    return dfs(Instance(database), [])


def example_b1_tgds() -> List[MultiHeadTGD]:
    """The multi-head counterexample of Example B.1.

    ``R(x,y,y) → ∃z R(x,z,y), R(z,y,y)`` and ``R(x,y,z) → R(z,z,z)``.
    On ``{R(a,b,b)}`` an infinite (unfair) derivation exists (apply only
    the first TGD forever), yet every *fair* derivation is finite.
    """
    return [
        MultiHeadTGD.parse("R(x,y,y) -> R(x,z,y), R(z,y,y)", name="mh1"),
        MultiHeadTGD.parse("R(x,y,z) -> R(z,z,z)", name="mh2"),
    ]
