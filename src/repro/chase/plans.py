"""Compiled join plans: the semi-naive discovery kernel.

Semi-naive discovery (:func:`repro.chase.trigger.seminaive_triggers`)
binds one body atom of a TGD — the *pivot* — to an atom of the round's
delta and joins the other body atoms against the whole instance.  The
shape of that join depends only on the rule and the pivot, so it is
compiled once per ``(tgd, pivot_index)`` into a :class:`JoinPlan` and
cached on the TGD (:meth:`repro.tgds.tgd.TGD.join_plans`).

A plan fixes the pivot, the order of the other body atoms (most bound
positions first, then body index), each atom's delta limit and the bound
positions it may probe, and generates one Python function from them: a
nested ``for`` loop per body atom, in plan order.  Each loop probes the
smallest of its bound-position buckets (``with_predicate`` when nothing
is bound), checks a candidate's delta limit, then its arity and bound or
repeated positions with ``is not`` — terms are interned, so identity is
equality (:mod:`repro.core.terms`) — and binds the candidate's fresh
variables to locals.  The innermost step appends the row.  A probe is one
call of a position getter: at entry, ``match`` takes
:meth:`repro.core.instance.Instance.position_lookup` of every position
it may probe (so those positions are indexed when the plan first runs,
not when a loop first reaches them), and a loop probes with
``getter(term, E)``, ``E`` the shared empty bucket.

Two shortcuts rest on births (:mod:`repro.core.instance`).  Every
bucket lists its atoms by increasing birth, and an atom outside the delta
was born before every atom inside it, so the first candidate past a
step's delta limit ends the walk (``break``).  And a body atom whose
terms are all bound when the plan reaches it has one candidate, so it
gets no loop and no position getter: the plan builds its ``(predicate,
terms)`` pair, which equals the atom it names, and looks its birth up,
one probe that also tests membership: an absent atom reads ``UNBORN``,
past every limit.

``plan.source`` holds the generated text; for the pivot ``F(y,z)`` of
``F(x,y), F(y,z), F(z,x) -> T(x,y,z)``, ``print(tgd.join_plans()[1].source)``
shows, abridged::

    def make(p1, p2):
        def match(bucket, instance, tgd_index, rows):
            lookup = instance.position_lookup
            q1_2 = lookup(p1, 2)
            ...
            get = instance.births()
            for a0, birth in bucket:
                ...
                c1 = q1_2(v0, E)
                for a1 in c1:
                    if get(a1) >= birth: break
                    ...
                    v2 = t1[0]
                    if get((p2, (v1, v2)), UNBORN) > birth: continue
                    append((tgd_index, (v2, v0, v1), birth))

Predicates and constants enter only as parameters of the generated
factory ``make(p1, …, k0, …)``, never as source text, so the source
depends on the plan's *shape* alone — each atom's arity, delta limit and
pattern of bound, repeated and fresh terms, in plan order — and a cache
keyed by the shape generates and compiles each shape once: equal shapes
share one code object.  CPython refuses more than 20 statically nested
blocks, so a body longer than :data:`LOOPS_PER_FUNCTION` atoms continues
in chained functions, each receiving the locals bound so far and the
getters it and its successors probe.  The generated function receives
the instance per call and captures it nowhere.

Exactly-once split: with the pivot bound to the delta atom born at ``p``,
body atoms *before* the pivot may bind only atoms born before ``p`` (a
*strict* step), and body atoms *after* it atoms born no later than ``p``.
A homomorphism therefore surfaces at exactly one pivot — the first body
atom whose image is the latest-born atom of the body image — with
``birth = p``, the latest birth of its image.

Plans emit compact rows ``(tgd_index, values, birth)``, ``values`` in
:attr:`TGD.body_order`.  The discovery pass (:func:`discovery_rows`) runs
each pair's ``plan.match`` and hands the rows to :meth:`RuleTables.order`,
then to :func:`repro.chase.trigger.triggers_of`.

The head side is compiled too: a :class:`HeadKernel` per TGD (cached as
:meth:`repro.tgds.tgd.TGD.head_kernel`) reads the frontier tuple an atom
witnesses, builds ``result(σ,h)`` from a row's values and names the
canonical key, all with getters and preformatted strings.

Everything a chase needs of a rule *list* — the predicate table
discovery walks, the rules' canonical ranks and the head-witness routing
— is a :class:`RuleTables`.  Its owner (an engine, a weakly-restricted
or real-oblivious chase) takes it once, from
:meth:`RuleTables.of`, and keeps it for every round; the next owner over
the identical rule objects gets the same tables, so a caller that chases
one rule list again and again builds them once.
"""

from __future__ import annotations

import hashlib
import sys
from functools import cached_property, lru_cache
from operator import is_, itemgetter
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


_new = tuple.__new__

#: Reads the empty tuple off any tuple (a getter over no indices).
_EMPTY = itemgetter(slice(0, 0))


#: ``E`` of the generated code: the default a position getter returns for a
#: term without atoms.  Shared by every plan, so never mutated.
_NO_ATOMS: Dict = {}


#: ``UNBORN`` of the generated code: the birth the births getter reports for
#: an atom the instance does not hold, above every birth.
UNBORN = sys.maxsize


#: ``for`` loops one generated function nests at most.  CPython refuses
#: more than 20 statically nested blocks, so a longer plan continues in a
#: chained function that receives the locals bound so far.
LOOPS_PER_FUNCTION = 10


@lru_cache(maxsize=1024)
def _kernel(shape: tuple) -> tuple:
    """``(source, make, positions)`` for a plan shape: each shape is
    generated and compiled once, and plans of one shape share one code
    object per generated function."""
    source, positions = _source(*shape)
    namespace: Dict = {"E": _NO_ATOMS, "UNBORN": UNBORN}
    exec(compile(source, "<join plan>", "exec"), namespace)
    return source, namespace["make"], positions


def _source(pattern: tuple, values: tuple) -> Tuple[str, tuple]:
    """The factory source of a plan shape (see :class:`JoinPlan`): the
    ``(strict, term codes)`` of each body atom in plan order and the codes
    of the row's values.  Also returns, per step after the pivot, the
    1-based positions the generated code may probe.

    Generates ``make(p1, …, k0, …)``, which returns the plan's ``match``:
    the step predicates are parameters ``p1``, ``p2``, …, the body
    constants ``k0``, ``k1``, … and the variables locals ``v0``, ``v1``, …
    in binding order, so no predicate or constant text enters the source.
    ``q<step>_<position>`` is the position getter a step probes and ``E``
    the shared empty bucket it defaults to; ``get`` is the instance's
    :meth:`~repro.core.instance.Instance.births` getter.  A step whose
    terms are all bound walks no bucket: it looks its one candidate's
    birth up, ``UNBORN`` when the instance lacks it.
    """
    def name(code: int) -> str:
        return f"v{code}" if code >= 0 else f"k{~code}"

    # Per step, the ``(getter, index, term)`` of its bound positions:
    # constants (negative codes) and variables bound by earlier steps.  A
    # step after the pivot whose terms are all bound looks its birth up
    # instead, through no position getter.
    probes: List[list] = []
    whole: List[bool] = []
    bound = 0
    for step, (_, terms) in enumerate(pattern):
        found = [
            (f"q{step}_{index + 1}", index, name(code))
            for index, code in enumerate(terms)
            if code < bound
        ]
        whole.append(step > 0 and len(found) == len(terms))
        probes.append([] if whole[-1] else found)
        bound = max([bound] + [code + 1 for code in terms])

    bound = 0
    functions: List[list] = []
    lines = ["def match(bucket, instance, tgd_index, rows):"]
    if any(probes[1:]):
        lines.append("    lookup = instance.position_lookup")
    for step in range(1, len(pattern)):
        for getter, index, _ in probes[step]:
            lines.append(f"    {getter} = lookup(p{step}, {index + 1})")
    lines += [
        "    with_predicate = instance.with_predicate",
        "    get = instance.births()",
        "    append = rows.append",
    ]
    indent, loops = "    ", 0
    for step, (strict, terms) in enumerate(pattern):
        skip = None
        # A step's delta limit: a strict step binds only atoms born before
        # the pivot atom, any other one those born no later.
        over = ">= birth" if strict else "> birth"
        if step:
            if loops == LOOPS_PER_FUNCTION:
                params = ", ".join(
                    ["with_predicate", "get", "append", "tgd_index", "birth"]
                    + [getter for later in probes[step:] for getter, _, _ in later]
                    + [f"v{code}" for code in range(bound)]
                )
                lines.append(f"{indent}part{len(functions) + 1}({params})")
                functions.append(lines)
                lines = [f"def part{len(functions)}({params}):"]
                indent, loops = "    ", 0
            fail = "continue" if loops else "return"
            if whole[step]:
                # Every term is bound, so the step has one candidate: the
                # ``(predicate, terms)`` pair, which equals the atom it names.
                # An absent atom is unborn, past every limit.
                pair = ", ".join(name(code) for code in terms) + ("," if len(terms) == 1 else "")
                lines.append(f"{indent}if get((p{step}, ({pair})), UNBORN) {over}: {fail}")
                continue
            found = probes[step]
            if not found:
                lines.append(f"{indent}c{step} = with_predicate(p{step})")
            else:
                getter, index, term = found[0]
                lines.append(f"{indent}c{step} = {getter}({term}, E)")
                for getter, _, term in found[1:]:
                    lines.append(f"{indent}if not c{step}: {fail}")
                    lines.append(f"{indent}d = {getter}({term}, E)")
                    lines.append(f"{indent}if len(d) < len(c{step}): c{step} = d")
                if len(found) == 1:
                    # The one bound position is the probed bucket's key.
                    skip = index
            lines.append(f"{indent}for a{step} in c{step}:")
        else:
            lines.append(f"{indent}for a0, birth in bucket:")
        indent += "    "
        loops += 1
        if step:
            # Buckets list their atoms by increasing birth: the first atom
            # past the limit ends the walk.
            lines.append(f"{indent}if get(a{step}) {over}: break")
        lines.append(f"{indent}t{step} = a{step}[1]")
        lines.append(f"{indent}if len(t{step}) != {len(terms)}: continue")
        fresh: Dict = {}
        for index, code in enumerate(terms):
            if code < bound:
                if index != skip:
                    lines.append(f"{indent}if t{step}[{index}] is not {name(code)}: continue")
            elif code in fresh:
                lines.append(f"{indent}if t{step}[{index}] is not t{step}[{fresh[code]}]: continue")
            else:
                fresh[code] = index
        for code, index in fresh.items():
            lines.append(f"{indent}v{code} = t{step}[{index}]")
        bound += len(fresh)
    row = ", ".join(name(code) for code in values) + ("," if len(values) == 1 else "")
    lines.append(f"{indent}append((tgd_index, ({row}), birth))")
    functions.append(lines)
    constants = len({code for _, terms in pattern for code in terms if code < 0})
    params = [f"p{step}" for step in range(1, len(pattern))]
    params += [f"k{index}" for index in range(constants)]
    source = [f"def make({', '.join(params)}):"]
    for function in functions:
        source += ["    " + line for line in function]
    source.append("    return match")
    positions = tuple(tuple([index + 1 for _, index, _ in found]) for found in probes[1:])
    return "\n".join(source) + "\n", positions


class JoinPlan:
    """The compiled semi-naive join of one ``(tgd, pivot_index)`` pair.

    ``match(bucket, instance, tgd_index, rows)`` joins every pivot atom
    of ``bucket`` into ``instance``: ``bucket`` holds the delta's
    ``(atom, birth)`` pairs under the pivot predicate, in birth order (the
    whole per-predicate group or a slice of it).  It appends one
    ``(tgd_index, values, birth)`` row per homomorphism whose latest-born
    atom is a pivot atom of ``bucket``; no two rows share a binding.
    ``source`` is the generated factory ``match`` came from.
    """

    __slots__ = ("predicate", "order", "source", "match", "_predicates", "_positions")

    def __init__(self, tgd, pivot_index: int):
        body = tgd.body
        # The plan's shape numbers its terms: constants -1, -2, … in body
        # order (bound before the pivot: checking one is checking a bound
        # position), variables 0, 1, … in binding order.
        codes: Dict = {}
        for atom in body:
            for term in atom.terms:
                if not isinstance(term, Variable) and term not in codes:
                    codes[term] = ~len(codes)
        constants = tuple(codes)
        bound = set(constants) | set(body[pivot_index].terms)
        rest = [j for j in range(len(body)) if j != pivot_index]
        order = [pivot_index]
        while rest:
            # Most bound positions first, then body index.
            j = max(rest, key=lambda k: (sum(t in bound for t in body[k].terms), -k))
            rest.remove(j)
            order.append(j)
            bound.update(body[j].terms)
        pattern = []
        for j in order:
            for term in body[j].terms:
                codes.setdefault(term, len(codes) - len(constants))
            pattern.append((j < pivot_index, tuple([codes[t] for t in body[j].terms])))
        shape = (tuple(pattern), tuple([codes[v] for v in tgd.body_order]))
        self.predicate = body[pivot_index].predicate
        #: Body indices in match order, pivot first.
        self.order = tuple(order)
        self.source, make, self._positions = _kernel(shape)
        self._predicates = [body[j].predicate for j in order[1:]]
        self.match = make(*self._predicates, *constants)

    @property
    def probes(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(predicate, position)`` pairs ``match`` may probe: every
        bound position of every non-pivot step that walks a bucket (a step
        whose terms are all bound looks its birth up instead).  ``match``
        takes the position getter of each of them when it starts."""
        return tuple(
            (predicate, position)
            for predicate, positions in zip(self._predicates, self._positions)
            for position in positions
        )

    def __repr__(self) -> str:
        return f"JoinPlan({self.predicate}, order={self.order})"


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
      digest payload; ``%`` in the fixed parts is escaped.  ``lead`` is
      the template's fixed text up to the first value, unescaped: every
      canonical key of the rule starts with it.
    """

    __slots__ = (
        "predicate", "arity", "twins", "witness", "frontier", "terms",
        "suffixes", "digest", "canonical", "lead",
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
        self.lead = "(" + repr(tgd) + ", (" + (
            "(" + body_order[0].name + ", " if body_order else "))"
        )

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
        # Values bind constants and nulls only: the atom is built unchecked.
        return _new(Atom, (self.predicate, self.terms(values)))


class RuleTables:
    """The tables of one rule list that no chase changes, each built on
    first use.

    * :attr:`firsts` — the rules up to equality (which ignores the rule
      name, as does ``Trigger.key``), each under the index of its first
      occurrence.
    * :attr:`discovery` — the :data:`DiscoveryTable` semi-naive discovery
      walks (:func:`discovery_rows`): every ``(tgd, pivot)`` plan of the
      :attr:`firsts` under its pivot predicate.
    * :attr:`ranks` — the rank of every rule of the list, by list index:
      the integer order of the rules' canonical keys (:meth:`order`).
    * :attr:`heads` — the head-witness routing
      (:class:`repro.chase.engine.HeadWitnessIndex`) over the existential
      rules of :attr:`firsts`.

    The tables hold the list's rule objects and are shared only by the
    identical list: an equal list of other rule objects may name its rules
    (hence its nulls) differently.  :meth:`of` hands the tables of the last
    list it was asked for back while the same rule objects come again, in
    the same order.
    """

    #: The tables :meth:`of` built last: one entry, so a stream of fresh
    #: rule lists (say, one per verdict) keeps at most one of them alive.
    _last: "RuleTables | None" = None

    def __init__(self, tgds: Sequence):
        self.tgds: tuple = tuple(tgds)

    @classmethod
    def of(cls, tgds: Sequence) -> "RuleTables":
        """The tables of ``tgds``: the last call's, when ``tgds`` holds the
        identical rule objects in the same order, else new ones.  Rules
        are compared by identity, never by equality."""
        tgds = tuple(tgds)
        last = cls._last
        if last is not None and len(last.tgds) == len(tgds) and all(map(is_, last.tgds, tgds)):
            return last
        cls._last = tables = cls(tgds)
        return tables

    @cached_property
    def firsts(self) -> Dict:
        """``tgd -> index of the first rule of the list equal to it``: the
        rules up to equality, which ignores the rule name."""
        firsts: Dict = {}
        for index, tgd in enumerate(self.tgds):
            firsts.setdefault(tgd, index)
        return firsts

    @cached_property
    def discovery(self) -> DiscoveryTable:
        entries: Dict[str, list] = {}
        for tgd, tgd_index in self.firsts.items():
            for pivot_index, plan in enumerate(tgd.join_plans()):
                entries.setdefault(plan.predicate, []).append((tgd_index, pivot_index, plan))
        return {predicate: tuple(found) for predicate, found in entries.items()}

    @cached_property
    def ranks(self) -> List[int]:
        """The rank of each rule, by list index: rules whose canonical keys
        compare by their :attr:`HeadKernel.lead` alone get distinct ranks
        in that order.

        Two leads of which neither is a prefix of the other differ at a
        position inside both, so every key of the smaller lead's rule sorts
        before every key of the other's.  Leads that are prefixes of one
        another share a rank (their keys compare by the values); in sorted
        order they are the runs of leads that start with the run's first.
        Equal rules (names aside) share a rank.  Ranks are below ``len(ranks)``.
        """
        leads = [tgd.head_kernel().lead for tgd in self.tgds]
        rank_of: Dict[str, int] = {}
        run, rank = None, -1
        for lead in sorted(set(leads)):
            if run is None or not lead.startswith(run):
                run, rank = lead, rank + 1
            rank_of[lead] = rank
        return [rank_of[lead] for lead in leads]

    def order(self, rows: List[tuple], by_birth: bool = True) -> List[tuple]:
        """Discovery rows ``(tgd_index, values, birth)`` of this list in
        ``(birth, canonical key)`` order, births ignored unless ``by_birth``.

        The rows sort by the int ``birth * len(ranks) + rank``; a canonical
        key is formatted only inside runs of equal ints, which gives the
        canonical order exactly, ties kept in input order.
        """
        ranks = self.ranks
        width = len(ranks) if by_birth else 0
        keys = [birth * width + ranks[index] for index, _, birth in rows]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if len(set(keys)) < len(keys):
            tgds = self.tgds

            def canonical(position: int) -> str:
                index, values, _ = rows[position]
                return tgds[index].head_kernel().canonical % values

            start, count = 0, len(order)
            for end in range(1, count + 1):
                if end == count or keys[order[end]] != keys[order[start]]:
                    if end - start > 1:
                        order[start:end] = sorted(order[start:end], key=canonical)
                    start = end
        return list(map(rows.__getitem__, order))

    @cached_property
    def heads(self) -> Dict[str, tuple]:
        """``head predicate -> ((first index, kernel), ...)`` over the
        existential rules of :attr:`firsts`.  A full rule's head is
        witnessed by its result atom alone, which the instance answers."""
        heads: Dict[str, list] = {}
        for tgd, index in self.firsts.items():
            if tgd.existential_variables:
                heads.setdefault(tgd.head.predicate, []).append((index, tgd.head_kernel()))
        return {predicate: tuple(found) for predicate, found in heads.items()}


def discovery_rows(table: DiscoveryTable, instance, born) -> List[tuple]:
    """Every row of one semi-naive discovery pass, serially.

    ``born`` is the delta: the ``(atom, birth)`` pairs of the instance's
    newest atoms, in birth order, as :meth:`Instance.born_since
    <repro.core.instance.Instance.born_since>` reads them.  The pass groups
    them by predicate once and walks the groups through ``table`` (see
    :attr:`RuleTables.discovery`), so rules whose body misses the delta
    cost nothing.  Row order is unspecified; :meth:`RuleTables.order`
    fixes it.
    """
    groups: Dict[str, list] = {}
    for item in born:
        group = groups.get(item[0][0])
        if group is None:
            groups[item[0][0]] = [item]
        else:
            group.append(item)
    rows: List[tuple] = []
    for predicate, bucket in groups.items():
        entries = table.get(predicate)
        if entries:
            for tgd_index, _, plan in entries:
                plan.match(bucket, instance, tgd_index, rows)
    return rows
