"""Triggers and trigger application (Definition 3.1).

A *trigger* for a set ``T`` on an instance ``I`` is a pair ``(σ, h)`` with
``σ ∈ T`` and ``h`` a homomorphism from ``body(σ)`` to ``I``.  It is
*active* if no extension ``h' ⊇ h|fr(σ)`` maps ``head(σ)`` into ``I``.
``result(σ, h)`` instantiates the head, inventing one fresh null per
existential variable, with the null's identity *uniquely determined by the
trigger and the variable* — this determinism is what makes the oblivious
chase order-independent and lets the real oblivious chase refer to atoms
unambiguously.

Null names are derived from a cryptographic digest of the trigger's
canonical serialization, so two applications of the same trigger (in any
order, in any run) invent the *same* nulls.

A :class:`Trigger` *is* the discovery row it came from, a ``tuple``
``(tgd, values)`` built by one ``tuple.__new__`` call.  ``result()``, the
canonical key and the frontier tuple the head-witness cache looks up run
the rule's compiled :class:`repro.chase.plans.HeadKernel`, so no path
re-serializes the rule or interprets its head per trigger.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import candidate_atoms, homomorphisms, match_atom
from repro.core.instance import Instance
from repro.core.substitution import Substitution
from repro.core.terms import Term, Variable
from repro.chase.plans import RuleTables, discovery_rows
from repro.tgds.tgd import TGD


class Trigger(tuple):
    """A trigger ``(σ, h)``, stored as the row ``(tgd, values)`` it came from.

    ``values`` binds :attr:`TGD.body_order`.  Equality and hashing are the
    row's: equal rules under different names give equal triggers, and a
    trigger never equals a bare tuple.  Immutable; :attr:`h`,
    :attr:`canonical_key` and :meth:`result` are memoized straight into the
    instance ``__dict__``, which CPython allocates only for the first memo:
    until then the class-level None defaults answer.
    """

    #: σ, the rule.
    tgd = property(itemgetter(0))
    #: ``h`` on :attr:`TGD.body_order`, as a tuple.
    values = property(itemgetter(1))

    # Memo defaults; a stored memo shadows them in the instance __dict__.
    _h = _result = _canonical = None

    def __new__(cls, tgd: TGD, h):
        try:
            values = tuple([h[variable] for variable in tgd.body_order])
        except KeyError:
            missing = [v for v in tgd.body_order if v not in h]
            raise ValueError(f"homomorphism misses body variables {missing}") from None
        return _new(cls, (tgd, values))

    @classmethod
    def from_row(cls, tgd: TGD, values: Tuple[Term, ...]) -> "Trigger":
        """The trigger of a discovery row: ``values`` binds ``tgd.body_order``."""
        return _new(cls, (tgd, values))

    def __setattr__(self, name, value):
        raise AttributeError("Trigger is immutable")

    def __delattr__(self, name):
        raise AttributeError("Trigger is immutable")

    def __reduce__(self):
        # Ship the row, memos dropped.  Consumers: checkpoints (pending
        # worklist, derivation log) and pickled verdict certificates.
        return (type(self).from_row, (self[0], self[1]))

    @property
    def h(self) -> Substitution:
        """The homomorphism restricted to the body variables, cached."""
        cached = self._h
        if cached is None:
            tgd, values = self
            cached = self.__dict__["_h"] = Substitution(dict(zip(tgd.body_order, values)))
        return cached

    @property
    def key(self) -> tuple:
        """Hashable identity of the trigger: ``(σ, h)`` up to representation.

        ``(tgd, ((variable, term), ...))`` over :attr:`TGD.body_order`.
        """
        tgd, values = self
        return (tgd, tuple(zip(tgd.body_order, values)))

    @property
    def canonical_key(self) -> str:
        """A deterministic total-order key for this trigger, cached.

        The string equals ``repr(self.key)`` (the ordering the engines have
        always used), filled into the head kernel's preformatted template.
        """
        cached = self._canonical
        if cached is None:
            tgd, values = self
            cached = self.__dict__["_canonical"] = tgd.head_kernel().canonical % values
        return cached

    def frontier_binding(self) -> Dict[Variable, Term]:
        """``h|fr(σ)`` as a plain dict (built per call)."""
        return dict(zip(self[0].frontier_order, self.frontier_tuple()))

    def frontier_tuple(self) -> Tuple[Term, ...]:
        """The frontier image in ``tgd.frontier_order`` — the witness-cache key."""
        tgd, values = self
        return tgd.head_kernel().frontier(values)

    def body_image(self) -> List[Atom]:
        """``h(body(σ))``: the atoms of the instance this trigger matched."""
        return [atom.apply(self.h) for atom in self[0].body]

    def result(self) -> Atom:
        """``result(σ, h)`` (Definition 3.1), cached.

        Frontier variables take their ``h``-image; each existential variable
        ``z`` takes the null ``c_z^{σ,h}`` named from the trigger digest.
        """
        cached = self._result
        if cached is None:
            tgd, values = self
            cached = self.__dict__["_result"] = tgd.head_kernel().result(values)
        return cached

    def result_frontier_terms(self) -> Set[Term]:
        """``fr(result(σ,h))``: terms at the head's frontier positions."""
        result = self.result()
        return {result.at(i) for i in self[0].frontier_head_positions()}

    def __eq__(self, other) -> bool:
        # Equal TGDs share their body order, so equal rows are equal keys.
        return isinstance(other, Trigger) and self[1] == other[1] and self[0] == other[0]

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"Trigger({self[0].name}, {self.h!r})"


_new = tuple.__new__


def triggers_of(tgds, rows) -> List[Trigger]:
    """The triggers of discovery rows ``(tgd_index, values, birth)``, in
    row order: one ``tuple.__new__`` call each, no memo allocated.

    Rows usually come ordered from :meth:`repro.chase.plans.RuleTables.order`.
    """
    cls = Trigger
    return [_new(cls, (tgds[index], values)) for index, values, _ in rows]


def satisfies_head(instance: Instance, tgd: TGD, frontier_binding: Dict[Term, Term]) -> bool:
    """Is there ``h' ⊇ h|fr(σ)`` with ``h'(head(σ)) ∈ I``?

    ``frontier_binding`` maps the frontier variables to terms; existential
    variables may match anything, consistently across repeated occurrences.
    Candidates come from the instance's term-position index (bound frontier
    positions), not a full predicate-bucket scan.
    """
    head = tgd.head
    for candidate in candidate_atoms(instance, head, frontier_binding):
        if match_atom(head, candidate, frontier_binding) is not None:
            return True
    return False


def is_active(trigger: Trigger, instance: Instance) -> bool:
    """Definition 3.1: the trigger is active iff its head is not yet witnessed."""
    return not satisfies_head(instance, trigger.tgd, trigger.frontier_binding())


def triggers_on(tgds: Iterable[TGD], instance: Instance) -> Iterator[Trigger]:
    """All triggers for ``T`` on ``I`` (active or not), deduplicated."""
    seen: Set[tuple] = set()
    for tgd in tgds:
        for h in homomorphisms(tgd.body, instance):
            trigger = Trigger(tgd, h)
            if trigger.key not in seen:
                seen.add(trigger.key)
                yield trigger


def active_triggers_on(tgds: Iterable[TGD], instance: Instance) -> Iterator[Trigger]:
    """All *active* triggers for ``T`` on ``I``."""
    for trigger in triggers_on(tgds, instance):
        if is_active(trigger, instance):
            yield trigger


def new_triggers(
    tgds: Iterable[TGD], instance: Instance, new_atoms: Iterable[Atom]
) -> Iterator[Trigger]:
    """Triggers whose image uses at least one atom of ``new_atoms``.

    The interpreted per-atom reference: it pivots every body atom of every
    TGD on each new atom.  The chase engines discover through the compiled
    join plans instead (:mod:`repro.chase.plans`); tests compare them
    against this.  May yield a trigger reachable via several pivots only
    once.
    """
    new_set = set(new_atoms)
    if not new_set:
        return
    seen: Set[tuple] = set()
    for tgd in tgds:
        for pivot_index, pivot in enumerate(tgd.body):
            for pivot_atom in new_set:
                base = match_atom(pivot, pivot_atom)
                if base is None:
                    continue
                rest = [a for i, a in enumerate(tgd.body) if i != pivot_index]
                for h in homomorphisms(rest, instance, partial=base):
                    trigger = Trigger(tgd, h)
                    if trigger.key not in seen:
                        seen.add(trigger.key)
                        yield trigger


def in_canonical_order(triggers: List[Trigger], tables: RuleTables) -> List[Trigger]:
    """``triggers`` in :attr:`Trigger.canonical_key` order, ties in input
    order, through the rule ranks of ``tables`` (:meth:`RuleTables.order`).

    A trigger whose rule no rule of ``tables`` equals sends the whole list
    through the canonical keys.
    """
    firsts = tables.firsts
    try:
        rows = [(firsts[tgd], values, position) for position, (tgd, values) in enumerate(triggers)]
    except KeyError:
        return sorted(triggers, key=lambda trigger: trigger.canonical_key)
    return [triggers[position] for _, _, position in tables.order(rows, by_birth=False)]


def seminaive_triggers(
    tgds: Iterable[TGD], instance: Instance, start: int
) -> List[Trigger]:
    """Set-at-a-time trigger discovery against a round delta.

    The batched counterpart of per-atom :func:`new_triggers`: the delta is
    every atom of ``instance`` born at or after the birth ``start``
    (:meth:`repro.core.instance.Instance.born_since`), the newest atoms,
    already committed.  Each TGD body is rewritten semi-naively — one body
    atom (the pivot) is bound to a delta atom, the rest match against the
    full term-position indexes — through the compiled join plans of
    :mod:`repro.chase.plans`, reached from the delta's predicates, so
    rules the delta does not touch cost nothing.

    The returned list is ordered by ``(birth, canonical_key)`` where
    ``birth`` is the birth of the *latest* body-image atom.  That is
    exactly the order in which the step-at-a-time engine enqueues the same
    triggers: a trigger surfaces at the application that completes its
    body image, and each per-application batch is canonically sorted.
    This is what keeps round-based runs byte-identical to step-at-a-time
    runs.

    The plans surface each trigger once, already at that birth, and
    :meth:`repro.chase.plans.RuleTables.order` orders the rows before
    :func:`triggers_of` builds the triggers.  Of several equal TGDs
    (equality ignores the rule name, as does :attr:`Trigger.key`) only the
    first is matched.

    Each call takes the rule list's :class:`repro.chase.plans.RuleTables`
    from :meth:`repro.chase.plans.RuleTables.of`; a caller that discovers
    round after round over one list keeps them and calls
    :func:`round_triggers`.
    """
    return round_triggers(RuleTables.of(tgds), instance, start)


def round_triggers(tables: RuleTables, instance: Instance, start: int) -> List[Trigger]:
    """:func:`seminaive_triggers` over a rule list's kept ``tables``."""
    rows = discovery_rows(tables.discovery, instance, instance.born_since(start))
    return triggers_of(tables.tgds, tables.order(rows))
