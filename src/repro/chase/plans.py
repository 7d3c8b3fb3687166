"""Compiled join plans: the semi-naive discovery kernel.

Semi-naive discovery (:func:`repro.chase.trigger.seminaive_triggers`)
binds one body atom of a TGD — the *pivot* — to an atom of the round's
delta and joins the other body atoms against the whole instance.  The
shape of that join depends only on the rule and the pivot, so it is
compiled once per ``(tgd, pivot_index)`` into a :class:`JoinPlan` and
cached on the TGD (:meth:`repro.tgds.tgd.TGD.join_plans`):

* **slots** — the binding is a flat tuple that grows left to right: the
  body's constants first, then each variable in the order the plan binds
  it.  A plan's ``values`` getter reads it back in :attr:`TGD.body_order`.
* **pivot ops** — bind the pivot atom's variables, check a variable
  repeated inside the atom, check a constant by identity.
* **steps** — the other body atoms in an order fixed at compile time
  (most bound positions first, then body index).  Each step records its
  predicate, its delta limit, the bound positions it may probe, and its
  check and bind ops.

At run time a step probes the smallest of its bound-position buckets
(``with_term_at``; ``with_predicate`` when nothing is bound), checks the
bound positions of each candidate in one getter comparison (none when the
only bound position is the probed one) and its repeated variables in
another, skips candidates newer than its delta limit, and extends the
binding tuple by the candidate's fresh variables.

Exactly-once split: with the pivot bound to the delta atom at position
``p``, body atoms *before* the pivot may bind only old atoms or delta
atoms at positions ``< p`` (a *strict* step), and body atoms *after* it
old atoms or delta atoms at positions ``<= p``.  A homomorphism therefore
surfaces at exactly one pivot — the first body atom whose image is the
latest delta atom of the body image — with ``birth = p``, the maximum
delta position of its image.

Plans emit compact rows ``(tgd_index, values, birth)``.  The serial pass
(:func:`discovery_rows`) and the pool workers of
:mod:`repro.chase.parallel` run the same :meth:`JoinPlan.match`; both hand
their rows to :func:`repro.chase.trigger.materialize`.

The head side is compiled too: a :class:`HeadKernel` per TGD (cached as
:meth:`repro.tgds.tgd.TGD.head_kernel`) reads the frontier tuple an atom
witnesses, builds ``result(σ,h)`` from a row's values and names the
canonical key, all with getters and preformatted strings.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.terms import Null, Variable

#: ``predicate -> ((tgd_index, pivot_index, plan), ...)`` over one rule list.
DiscoveryTable = Dict[str, Tuple[tuple, ...]]


def _getter(indices: Sequence[int]):
    """Read ``indices`` off a tuple: the item itself for one index, a tuple
    for several, None for none.  Two getters over equally many indices
    return comparable values."""
    if not indices:
        return None
    return itemgetter(*indices)


def _tuple_getter(indices: Sequence[int]):
    """Read ``indices`` off a tuple, always as a tuple (a slice when the
    indices are contiguous); None for no indices."""
    if not indices:
        return None
    first = indices[0]
    if list(indices) == list(range(first, first + len(indices))):
        return itemgetter(slice(first, first + len(indices)))
    return itemgetter(*indices)


#: Reads the empty tuple off any tuple (a getter over no indices).
_EMPTY = itemgetter(slice(0, 0))


def _compile_atom(atom, slots: Dict) -> tuple:
    """The ops matching ``atom`` once the terms in ``slots`` are bound.

    Returns ``(probes, expect, check, bind, twins)``: the 1-based bound
    positions with the slot holding their value; getters for the bound
    values (over the binding) and the candidate's terms at those
    positions (over the atom); a getter for the candidate's fresh
    variables, in slot order; and a getter pair for the later occurrences
    of a fresh variable repeated inside the atom and their first
    occurrence.  Assigns the fresh variables their slots.
    """
    probes, bound_slots, bound_positions = [], [], []
    fresh: Dict = {}
    twins_first, twins_again = [], []
    for index, term in enumerate(atom.terms):
        slot = slots.get(term)
        if slot is not None:
            probes.append((index + 1, slot))
            bound_slots.append(slot)
            bound_positions.append(index)
        elif term in fresh:
            twins_first.append(fresh[term])
            twins_again.append(index)
        else:
            fresh[term] = index
    for term in fresh:
        slots[term] = len(slots)
    twins = None
    if twins_again:
        twins = (_getter(twins_first), _getter(twins_again))
    return (
        tuple(probes),
        _getter(bound_slots),
        _getter(bound_positions),
        _tuple_getter(list(fresh.values())),
        twins,
    )


class JoinPlan:
    """The compiled semi-naive join of one ``(tgd, pivot_index)`` pair."""

    __slots__ = ("predicate", "arity", "start", "pivot", "steps", "values", "order")

    def __init__(self, tgd, pivot_index: int):
        body = tgd.body
        pivot = body[pivot_index]
        # Constants are slots bound before the pivot: checking one is
        # checking a bound position.
        slots: Dict = {}
        for atom in body:
            for term in atom.terms:
                if not isinstance(term, Variable):
                    slots.setdefault(term, len(slots))
        self.start = tuple(slots)
        self.predicate = pivot.predicate
        self.arity = pivot.arity
        _, expect, check, bind, twins = _compile_atom(pivot, slots)
        expected = expect(self.start) if expect is not None else None
        self.pivot = (check, expected, bind, twins)
        rest = [j for j in range(len(body)) if j != pivot_index]
        steps = []
        #: Body indices in match order, pivot first (for inspection).
        self.order = (pivot_index,)
        while rest:
            # Most bound positions first, then body index.
            j = max(rest, key=lambda k: (sum(t in slots for t in body[k].terms), -k))
            rest.remove(j)
            atom = body[j]
            strict = 1 if j < pivot_index else 0
            probes, expect, check, bind, twins = _compile_atom(atom, slots)
            if len(probes) == 1:
                # The one bound position is the probed bucket's key.
                expect = check = None
            steps.append(
                (atom.predicate, atom.arity, strict, probes, expect, check, bind, twins)
            )
            self.order += (j,)
        self.steps = tuple(steps)
        self.values = _tuple_getter([slots[v] for v in tgd.body_order]) or _EMPTY

    def match(self, bucket, instance, positions, tgd_index: int, rows: list) -> None:
        """Join every pivot atom of ``bucket`` into ``instance``.

        ``bucket`` holds delta atoms under the pivot predicate (the whole
        per-predicate bucket or a slice of it), ``positions`` is the
        delta's atom -> birth map.  Appends one ``(tgd_index, values,
        birth)`` row per homomorphism whose latest delta atom is a pivot
        atom of ``bucket``; no two rows share a binding.
        """
        check, expected, bind, twins = self.pivot
        arity = self.arity
        start = self.start
        steps = self.steps
        values = self.values
        for atom in bucket:
            terms = atom.terms
            if len(terms) != arity:
                continue
            if check is not None and check(terms) != expected:
                continue
            if twins is not None and twins[0](terms) != twins[1](terms):
                continue
            binding = start + bind(terms) if bind is not None else start
            birth = positions[atom]
            if steps:
                _extend(steps, 0, binding, instance, positions, birth, tgd_index, values, rows)
            else:
                rows.append((tgd_index, values(binding), birth))

    def __repr__(self) -> str:
        return f"JoinPlan({self.predicate}, order={self.order})"


def _extend(steps, depth, binding, instance, positions, birth, tgd_index, values, rows):
    """Run step ``depth`` of a plan under ``binding``; emit complete rows.

    Module-level recursion: no per-call closure, hence no reference cycle
    keeping a round's instance alive.
    """
    predicate, arity, strict, probes, expect, check, bind, twins = steps[depth]
    if probes:
        bucket = None
        for position, slot in probes:
            candidates = instance.with_term_at(predicate, position, binding[slot])
            if bucket is None or len(candidates) < len(bucket):
                bucket = candidates
                if not bucket:
                    return
        if expect is not None:
            expected = expect(binding)
    else:
        bucket = instance.with_predicate(predicate)
    limit = birth - strict
    last = depth + 1 == len(steps)
    for atom in bucket:
        terms = atom.terms
        if len(terms) != arity:
            continue
        if check is not None and check(terms) != expected:
            continue
        if twins is not None and twins[0](terms) != twins[1](terms):
            continue
        if positions.get(atom, -1) > limit:
            continue
        extended = binding + bind(terms) if bind is not None else binding
        if last:
            rows.append((tgd_index, values(extended), birth))
        else:
            _extend(steps, depth + 1, extended, instance, positions, birth, tgd_index, values, rows)


class HeadKernel:
    """The compiled head of one TGD.

    * **Witness key** — ``arity``, ``twins`` (the getter pair checking a
      variable repeated in the head) and ``witness``, which reads the
      frontier tuple (in ``tgd.frontier_order``) off a matching atom's
      terms; ``frontier`` reads the same tuple off a row's values.
    * **Result builder** — :meth:`result` extends the values by the
      trigger's digest-named nulls and reads the head's terms off them
      with one getter.
    * **Canonical template** — ``canonical % values`` equals
      ``repr(trigger.key)``, and ``digest % values`` is the null-naming
      digest payload; ``%`` in the fixed parts is escaped.
    """

    __slots__ = (
        "predicate", "arity", "twins", "witness", "frontier", "terms",
        "suffixes", "digest", "canonical",
    )

    def __init__(self, tgd):
        head = tgd.head
        body_order = tgd.body_order
        existentials = sorted(tgd.existential_variables, key=lambda v: v.name)
        first: Dict = {}
        twins_first, twins_again = [], []
        for index, term in enumerate(head.terms):
            if term in first:
                twins_first.append(first[term])
                twins_again.append(index)
            else:
                first[term] = index
        self.predicate = head.predicate
        self.arity = head.arity
        self.twins = (_getter(twins_first), _getter(twins_again)) if twins_again else None
        self.witness = _tuple_getter([first[v] for v in tgd.frontier_order]) or _EMPTY
        self.frontier = _tuple_getter(tgd.frontier_slots) or _EMPTY
        slots = {v: i for i, v in enumerate(body_order + tuple(existentials))}
        self.terms = _tuple_getter([slots[t] for t in head.terms]) or _EMPTY
        self.suffixes = tuple("." + z.name for z in existentials)
        prefix = tgd.digest_prefix().replace("%", "%%")
        names = [v.name.replace("%", "%%") for v in body_order]
        self.digest = prefix + "\x1e".join(name + "\x1f%r" for name in names)
        pairs = [f"({name}, %r)" for name in names]
        items = "(" + ", ".join(pairs) + ("," if len(pairs) == 1 else "") + ")"
        self.canonical = "(" + repr(tgd).replace("%", "%%") + ", " + items + ")"

    def result(self, values: tuple) -> Atom:
        """``result(σ,h)`` for the trigger whose body binding is ``values``.

        Each existential ``z`` takes the null ``<digest>.z``, the digest
        naming ``(σ, h)``: every application of one trigger invents the
        same nulls.
        """
        suffixes = self.suffixes
        if suffixes:
            payload = (self.digest % values).encode()
            digest = hashlib.blake2b(payload, digest_size=9).hexdigest()
            values = values + tuple([Null(digest + suffix) for suffix in suffixes])
        return Atom(self.predicate, self.terms(values))


def discovery_table(tgds: Sequence) -> DiscoveryTable:
    """``predicate -> ((tgd_index, pivot_index, plan), ...)`` for ``tgds``.

    Of several equal TGDs (equality ignores the rule name, as does
    ``Trigger.key``) only the first is entered.  Callers that discover
    round after round over one rule list build this once.
    """
    table: Dict[str, list] = {}
    first: Dict = {}
    for tgd_index, tgd in enumerate(tgds):
        if first.setdefault(tgd, tgd_index) != tgd_index:
            continue
        for pivot_index, plan in enumerate(tgd.join_plans()):
            table.setdefault(plan.predicate, []).append((tgd_index, pivot_index, plan))
    return {predicate: tuple(entries) for predicate, entries in table.items()}


def discovery_rows(table: DiscoveryTable, instance, delta) -> List[tuple]:
    """Every row of one semi-naive discovery pass, serially.

    Walks the delta's predicates through ``table`` (see
    :func:`discovery_table`), so rules whose body misses the delta cost
    nothing.  Row order is unspecified;
    :func:`repro.chase.trigger.in_birth_order` fixes it.
    """
    rows: List[tuple] = []
    positions = delta.positions()
    for predicate in delta.predicates():
        entries = table.get(predicate)
        if entries:
            bucket = delta.with_predicate(predicate)
            for tgd_index, _, plan in entries:
                plan.match(bucket, instance, positions, tgd_index, rows)
    return rows
