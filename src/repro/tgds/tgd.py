"""Tuple-generating dependencies (Section 2).

A single-head TGD is a constant-free sentence
``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ R(x̄, z̄))``; we store it as a body (tuple of atoms)
and a single head atom, with the *frontier* ``fr(σ)`` (variables shared by
body and head) and the existential variables derived.  Multi-head TGDs are
supported only to reproduce Example B.1 (the Fairness Theorem
counterexample); every decision procedure requires single-head inputs.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.parsing import parse_rule_parts
from repro.core.schema import Schema
from repro.core.terms import Variable


class TGD:
    """A single-head TGD ``φ(x̄, ȳ) → ∃z̄ R(x̄, z̄)``.

    ``name`` is an optional identifier used in derivation traces and
    deterministic null naming; when omitted one is derived from the rule
    text.
    """

    __slots__ = (
        "body",
        "head",
        "name",
        "_frontier",
        "_frontier_order",
        "_body_order",
        "_frontier_slots",
        "_existential",
        "_hash",
        "_repr",
        "_digest_prefix",
        "_join_plans",
        "_head_kernel",
    )

    def __init__(self, body: Iterable[Atom], head: Atom, name: Optional[str] = None):
        body = tuple(body)
        if not body:
            raise ValueError("a TGD needs a non-empty body")
        for atom in itertools.chain(body, (head,)):
            if not all(t.is_variable for t in atom.terms):
                raise ValueError(f"TGDs are constant-free, offending atom: {atom}")
        body_vars = {v for atom in body for v in atom.variables()}
        head_vars = head.variables()
        frontier = frozenset(body_vars & head_vars)
        existential = frozenset(head_vars - body_vars)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "name", name or self._default_name(body, head))
        object.__setattr__(self, "_frontier", frontier)
        frontier_order = tuple(sorted(frontier, key=lambda v: v.name))
        body_order = tuple(sorted(body_vars, key=lambda v: v.name))
        object.__setattr__(self, "_frontier_order", frontier_order)
        object.__setattr__(self, "_body_order", body_order)
        object.__setattr__(
            self, "_frontier_slots", tuple(body_order.index(v) for v in frontier_order)
        )
        object.__setattr__(self, "_existential", existential)
        object.__setattr__(self, "_hash", hash((body, head)))
        object.__setattr__(self, "_repr", None)
        object.__setattr__(self, "_digest_prefix", None)
        object.__setattr__(self, "_join_plans", None)
        object.__setattr__(self, "_head_kernel", None)

    def __setattr__(self, name, value):
        raise AttributeError("TGD is immutable")

    def __reduce__(self):
        # The immutable __setattr__ defeats default slot unpickling; rebuild
        # through __init__ (re-deriving the cached frontier/digest state) so
        # TGDs can cross process-pool boundaries.
        return (type(self), (self.body, self.head, self.name))

    @staticmethod
    def _default_name(body: Tuple[Atom, ...], head: Atom) -> str:
        text = ",".join(repr(a) for a in body) + "->" + repr(head)
        return text

    @staticmethod
    def parse(text: str, name: Optional[str] = None) -> "TGD":
        """Parse ``"R(x,y), P(y,z) -> T(x,y,w)"`` (head-only vars existential)."""
        body, head = parse_rule_parts(text)
        if len(head) != 1:
            raise ValueError(
                f"single-head TGD expected, got {len(head)} head atoms; "
                "use MultiHeadTGD.parse for multi-head rules"
            )
        return TGD(body, head[0], name=name)

    @property
    def frontier(self) -> FrozenSet[Variable]:
        """The paper's ``fr(σ)``: variables occurring in both body and head."""
        return self._frontier

    @property
    def frontier_order(self) -> Tuple[Variable, ...]:
        """The frontier variables in canonical (name) order.

        Frontier-binding tuples (head-witness cache keys) use this order.
        """
        return self._frontier_order

    @property
    def body_order(self) -> Tuple[Variable, ...]:
        """The body variables in canonical (name) order.

        Trigger keys and the parallel workers' compact rows list a body
        binding in this order.
        """
        return self._body_order

    @property
    def frontier_slots(self) -> Tuple[int, ...]:
        """Where each :attr:`frontier_order` variable sits in :attr:`body_order`.

        Reads a frontier binding off a body binding in body order.
        """
        return self._frontier_slots

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        """Head variables that do not occur in the body (the ``z̄``)."""
        return self._existential

    def digest_prefix(self) -> str:
        """``name \\x1f repr \\x1e`` — the TGD part of trigger digests, cached.

        Hoisted so repeated ``Trigger.result()`` paths do not re-serialize
        the TGD for every null-name digest.
        """
        cached = self._digest_prefix
        if cached is None:
            cached = self.name + "\x1f" + repr(self) + "\x1e"
            object.__setattr__(self, "_digest_prefix", cached)
        return cached

    def join_plans(self) -> tuple:
        """One compiled semi-naive join plan per body atom (the pivot), cached.

        Built on first discovery, never at parse time; see
        :mod:`repro.chase.plans`.
        """
        cached = self._join_plans
        if cached is None:
            # The chase layer sits above this one: import on first use.
            from repro.chase.plans import JoinPlan

            cached = tuple(JoinPlan(self, index) for index in range(len(self.body)))
            object.__setattr__(self, "_join_plans", cached)
        return cached

    def head_kernel(self):
        """The compiled head (witness key, result builder, canonical key), cached.

        Built on first use, like :meth:`join_plans`; see
        :class:`repro.chase.plans.HeadKernel`.
        """
        cached = self._head_kernel
        if cached is None:
            from repro.chase.plans import HeadKernel

            cached = HeadKernel(self)
            object.__setattr__(self, "_head_kernel", cached)
        return cached

    def body_variables(self) -> Set[Variable]:
        return {v for atom in self.body for v in atom.variables()}

    def head_variables(self) -> Set[Variable]:
        return set(self.head.variables())

    def variables(self) -> Set[Variable]:
        return self.body_variables() | self.head_variables()

    def frontier_head_positions(self) -> FrozenSet[int]:
        """Positions of ``head(σ)`` holding frontier variables.

        These are the positions whose terms constitute ``fr(result(σ,h))``
        (Section 3); every other head position holds an existential
        variable.
        """
        return frozenset(
            i
            for i in range(1, self.head.arity + 1)
            if self.head[i] in self._frontier
        )

    def rename(self, mapping: Dict[Variable, Variable], name: Optional[str] = None) -> "TGD":
        """Apply a variable renaming to body and head."""
        return TGD(
            tuple(atom.apply(mapping) for atom in self.body),
            self.head.apply(mapping),
            name=name or self.name,
        )

    def rename_apart(self, suffix: str) -> "TGD":
        """Rename every variable with a suffix so TGDs share no variables.

        The stickiness marking of Section 2 assumes w.l.o.g. that TGDs do
        not share variables; this provides that normal form.
        """
        mapping = {v: Variable(f"{v.name}_{suffix}") for v in self.variables()}
        return self.rename(mapping, name=self.name)

    def schema(self) -> Schema:
        """The predicates (with arities) occurring in this TGD."""
        return Schema.from_atoms(list(self.body) + [self.head])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TGD)
            and self.body == other.body
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cached = self._repr
        if cached is None:
            body = ", ".join(repr(a) for a in self.body)
            existential = sorted(self._existential, key=lambda v: v.name)
            prefix = ""
            if existential:
                prefix = "∃" + ",".join(v.name for v in existential) + " "
            cached = f"{body} -> {prefix}{self.head!r}"
            object.__setattr__(self, "_repr", cached)
        return cached


class MultiHeadTGD:
    """A TGD whose head is a conjunction of atoms.

    Only used to reproduce Example B.1, which shows the Fairness Theorem
    fails beyond single-head TGDs.
    """

    __slots__ = ("body", "head", "name", "_frontier", "_existential", "_repr", "_digest_prefix")

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom], name: Optional[str] = None):
        body = tuple(body)
        head = tuple(head)
        if not body or not head:
            raise ValueError("a TGD needs non-empty body and head")
        for atom in itertools.chain(body, head):
            if not all(t.is_variable for t in atom.terms):
                raise ValueError(f"TGDs are constant-free, offending atom: {atom}")
        body_vars = {v for atom in body for v in atom.variables()}
        head_vars = {v for atom in head for v in atom.variables()}
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "name", name or "mh")
        object.__setattr__(self, "_frontier", frozenset(body_vars & head_vars))
        object.__setattr__(self, "_existential", frozenset(head_vars - body_vars))
        object.__setattr__(self, "_repr", None)
        object.__setattr__(self, "_digest_prefix", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiHeadTGD is immutable")

    def __reduce__(self):
        return (type(self), (self.body, self.head, self.name))

    @staticmethod
    def parse(text: str, name: Optional[str] = None) -> "MultiHeadTGD":
        body, head = parse_rule_parts(text)
        return MultiHeadTGD(body, head, name=name)

    @property
    def frontier(self) -> FrozenSet[Variable]:
        return self._frontier

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        return self._existential

    def digest_prefix(self) -> str:
        """``name \\x1e repr \\x1e`` — the TGD part of result digests, cached."""
        cached = self._digest_prefix
        if cached is None:
            cached = self.name + "\x1e" + repr(self) + "\x1e"
            object.__setattr__(self, "_digest_prefix", cached)
        return cached

    def schema(self) -> Schema:
        return Schema.from_atoms(list(self.body) + list(self.head))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiHeadTGD)
            and self.body == other.body
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return hash((self.body, self.head))

    def __repr__(self) -> str:
        cached = self._repr
        if cached is None:
            body = ", ".join(repr(a) for a in self.body)
            head = ", ".join(repr(a) for a in self.head)
            cached = f"{body} -> {head}"
            object.__setattr__(self, "_repr", cached)
        return cached


def tgd_set_digest(tgds: Sequence[TGD]) -> str:
    """A stable hex digest identifying an *ordered* TGD list.

    Hashes the concatenated :meth:`TGD.digest_prefix` values — the same
    name-sensitive identity the trigger digests, checkpoint restore, and
    matcher guards key off, so two sets share a digest exactly when they
    would chase byte-identically (same rules, same names, same order).
    This is the memoization key of the service layer's verdict cache:
    termination is a property of the TGD set alone (the paper's
    all-instances framing), so one digest indexes the verdict for every
    client shipping that set.
    """
    payload = "".join(t.digest_prefix() for t in tgds)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def parse_tgds(texts: Iterable[str]) -> List[TGD]:
    """Parse several single-head TGDs, naming them ``s1, s2, ...``."""
    return [TGD.parse(text, name=f"s{i}") for i, text in enumerate(texts, start=1)]


def schema_of(tgds: Sequence) -> Schema:
    """The paper's ``sch(T)``: all predicates occurring in the TGD set."""
    schema = Schema()
    for tgd in tgds:
        schema = schema.merge(tgd.schema())
    return schema


def max_arity(tgds: Sequence) -> int:
    """The paper's ``ar(T)``."""
    return schema_of(tgds).max_arity
