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
order, in any run) invent the *same* nulls.  The TGD part of the digest
payload is cached on the TGD itself (:meth:`repro.tgds.tgd.TGD.digest_prefix`),
so repeated ``result()`` paths never re-serialize the rule.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import candidate_atoms, homomorphisms, match_atom
from repro.core.instance import Instance
from repro.core.substitution import Substitution
from repro.core.terms import Null, Term, Variable
from repro.chase.plans import discovery_rows, discovery_table
from repro.tgds.tgd import TGD


def _trigger_digest(tgd: TGD, body_binding: Sequence[Tuple[Variable, Term]]) -> str:
    """A short stable digest identifying ``(σ, h|body-vars)``."""
    payload = tgd.digest_prefix()
    payload += "\x1e".join(f"{v.name}\x1f{t!r}" for v, t in body_binding)
    return hashlib.blake2b(payload.encode(), digest_size=9).hexdigest()


class Trigger:
    """A trigger ``(σ, h)``; ``h`` is stored restricted to the body variables."""

    __slots__ = ("tgd", "_h", "_result", "_key", "_frontier", "_canonical")

    def __init__(self, tgd: TGD, h):
        try:
            # Body variables in name order: exactly the canonical item order
            # (a TGD body holds variables only, and names are unique).
            items = tuple([(variable, h[variable]) for variable in tgd.body_order])
        except KeyError:
            missing = [v for v in tgd.body_order if v not in h]
            raise ValueError(f"homomorphism misses body variables {missing}") from None
        mapping = dict(items)
        object.__setattr__(self, "tgd", tgd)
        object.__setattr__(self, "_h", Substitution(mapping))
        object.__setattr__(self, "_result", None)
        object.__setattr__(self, "_key", (tgd, items))
        object.__setattr__(
            self, "_frontier", tuple([mapping[v] for v in tgd.frontier_order])
        )
        object.__setattr__(self, "_canonical", None)

    @classmethod
    def from_row(cls, tgd: TGD, values: Tuple[Term, ...]) -> "Trigger":
        """The trigger of a discovery row: ``values`` binds ``tgd.body_order``.

        Rows come from matching instance atoms, so their values are terms
        already; ``h`` is built on first access.
        """
        trigger = cls.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(trigger, "tgd", tgd)
        setattr_(trigger, "_h", None)
        setattr_(trigger, "_result", None)
        setattr_(trigger, "_key", (tgd, tuple(zip(tgd.body_order, values))))
        setattr_(trigger, "_frontier", tuple([values[i] for i in tgd.frontier_slots]))
        setattr_(trigger, "_canonical", None)
        return trigger

    def __setattr__(self, name, value):
        raise AttributeError("Trigger is immutable")

    def __reduce__(self):
        # The immutable __setattr__ defeats default slot unpickling; rebuild
        # through __init__.  Consumer: suspect-scan workers of parallel_map,
        # whose PumpWitness derivations hold triggers.
        return (type(self), (self.tgd, dict(self._key[1])))

    @property
    def h(self) -> Substitution:
        """The homomorphism restricted to the body variables, cached."""
        cached = self._h
        if cached is None:
            cached = Substitution(dict(self._key[1]))
            object.__setattr__(self, "_h", cached)
        return cached

    @property
    def key(self) -> tuple:
        """Hashable identity of the trigger: ``(σ, h)`` up to representation."""
        return self._key

    @property
    def canonical_key(self) -> str:
        """A deterministic total-order key for this trigger, cached.

        The string equals ``repr(self.key)`` (the ordering the engines have
        always used), but is computed once per trigger instead of once per
        comparison site, so canonical enqueue ordering stays cheap.
        """
        cached = self._canonical
        if cached is None:
            cached = repr(self._key)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def frontier_binding(self) -> Dict[Variable, Term]:
        """``h|fr(σ)`` as a plain dict (built per call)."""
        return dict(zip(self.tgd.frontier_order, self._frontier))

    def frontier_tuple(self) -> Tuple[Term, ...]:
        """The frontier image in ``tgd.frontier_order`` — the witness-cache key."""
        return self._frontier

    def body_image(self) -> List[Atom]:
        """``h(body(σ))``: the atoms of the instance this trigger matched."""
        return [atom.apply(self.h) for atom in self.tgd.body]

    def result(self) -> Atom:
        """``result(σ, h)`` (Definition 3.1), cached.

        Frontier variables take their ``h``-image; each existential variable
        ``z`` takes the null ``c_z^{σ,h}`` named from the trigger digest.
        """
        cached = self._result
        if cached is not None:
            return cached
        tgd = self.tgd
        items = self._key[1]
        mapping: Dict[Term, Term] = dict(items)
        if tgd.existential_variables:
            digest = _trigger_digest(tgd, items)
            for var in tgd.existential_variables:
                mapping[var] = Null(f"{digest}.{var.name}")
        atom = tgd.head.apply(mapping)
        object.__setattr__(self, "_result", atom)
        return atom

    def result_frontier_terms(self) -> Set[Term]:
        """``fr(result(σ,h))``: terms at the head's frontier positions."""
        result = self.result()
        return {result[i] for i in self.tgd.frontier_head_positions()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Trigger) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Trigger({self.tgd.name}, {self.h!r})"


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


def apply_trigger(instance: Instance, trigger: Trigger) -> Atom:
    """``I⟨σ,h⟩J``: add ``result(σ,h)`` to the instance; returns the atom."""
    atom = trigger.result()
    instance.add(atom)
    return atom


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


def materialize(tgds: Sequence[TGD], rows) -> List[Tuple[int, Trigger]]:
    """``(birth, trigger)`` hits from discovery rows ``(tgd_index, values, birth)``.

    The one row -> Trigger step behind serial and pooled discovery alike
    (:func:`repro.chase.plans.discovery_rows`,
    :meth:`repro.chase.parallel.ParallelMatcher.rows`).  Rows never repeat
    a trigger: each surfaces at exactly one pivot hit, already at its birth.
    """
    return [
        (birth, Trigger.from_row(tgds[tgd_index], values))
        for tgd_index, values, birth in rows
    ]


def in_birth_order(hits: List[Tuple[int, Trigger]]) -> List[Trigger]:
    """The triggers of ``(birth, trigger)`` hits in ``(birth, canonical_key)`` order."""
    hits.sort(key=lambda hit: (hit[0], hit[1].canonical_key))
    return [trigger for _, trigger in hits]


def seminaive_triggers(
    tgds: Iterable[TGD], instance: Instance, delta
) -> List[Trigger]:
    """Set-at-a-time trigger discovery against a round delta.

    The batched counterpart of per-atom :func:`new_triggers`: ``delta`` is a
    :class:`repro.core.instance.Delta` (the atoms one round added, already
    committed to ``instance``).  Each TGD body is rewritten semi-naively —
    one body atom (the pivot) is bound to a delta atom through the delta's
    per-predicate snapshot, the rest match against the full term-position
    indexes — through the compiled join plans of :mod:`repro.chase.plans`,
    reached from the delta's predicates, so rules the delta does not touch
    cost nothing.  The predicate table is built per call; the engine and
    the matcher keep theirs across rounds.

    The returned list is ordered by ``(birth, canonical_key)`` where
    ``birth`` is the delta position of the *latest* body-image atom drawn
    from the delta.  That is exactly the order in which the step-at-a-time
    engine enqueues the same triggers (a trigger surfaces at the application
    that completes its body image, and each per-application batch is
    canonically sorted), which is what keeps round-based runs byte-identical
    to step-at-a-time runs.  The plans surface each trigger once, already
    at that birth.  Of several equal TGDs (equality ignores the rule name,
    as does :attr:`Trigger.key`) only the first is matched.
    :class:`repro.chase.parallel.ParallelMatcher` computes the same list
    over a worker pool.
    """
    if not delta:
        return []
    if not isinstance(tgds, Sequence):
        tgds = tuple(tgds)
    rows = discovery_rows(discovery_table(tgds), instance, delta)
    return in_birth_order(materialize(tgds, rows))
