"""The stop relation ``≺s`` and the before relation ``≺b`` (Sections 3.1, 5.1).

``α ≺s β`` — "α stops β" — where ``β = result(σ, h)``: there is a
homomorphism ``h'`` with ``h'(β) = α`` that is the identity on the frontier
terms of ``β`` (the terms propagated by the trigger).  In the presence of
``α`` the trigger creating ``β`` is not active (Fact 3.5).

``≺b`` is the union of (database-before-everything), the parent relation,
and the *inverse* of ``≺s``; chaseable sets (Definition 5.2) require it to
be acyclic and well-founded.

:func:`stop_edges` and :func:`before_graph` are the one implementation of
``≺s`` and ``≺b``: both take an ``{id: AnnotatedAtom}`` mapping, and both
the ochase fragments (:class:`repro.chase.real_oblivious.ChaseGraph`) and
abstract join trees (Section 5.3) call them with their own node ids.

Both relations are computed over insertion-ordered instances with
digest-named nulls, so edge sets — and any order they are enumerated in —
are identical across runs of the same chase.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import match_atom
from repro.core.instance import Instance
from repro.core.terms import Term
from repro.chase.trigger import Trigger, is_active
from repro.util import graphs


def stops_atom(stopper: Atom, stopped: Atom, frontier_terms: Iterable[Term]) -> bool:
    """Does ``stopper ≺s stopped``, given the frontier terms of ``stopped``?

    ``frontier_terms`` are the terms of ``stopped`` at the head-frontier
    positions of the trigger that produced it; the witnessing homomorphism
    must fix them (and constants are always fixed).
    """
    return match_atom(stopped, stopper, frozen=frozenset(frontier_terms)) is not None


def stops_result(stopper: Atom, trigger: Trigger) -> bool:
    """Does ``stopper ≺s result(σ, h)`` for the given trigger?"""
    return stops_atom(stopper, trigger.result(), trigger.result_frontier_terms())


def stoppers_in(instance: Instance, trigger: Trigger) -> List[Atom]:
    """All atoms of ``instance`` that stop ``result(σ,h)``."""
    result = trigger.result()
    frontier = frozenset(trigger.result_frontier_terms())
    return [
        atom
        for atom in instance.with_predicate(result.predicate)
        if match_atom(result, atom, frozen=frontier) is not None
    ]


def active_iff_unstopped(instance: Instance, trigger: Trigger) -> bool:
    """Fact 3.5 as an executable check: the two characterizations agree.

    Returns True when ``is_active`` and "no atom of I stops the result"
    coincide on this input — tests assert this on random inputs.
    """
    return is_active(trigger, instance) == (not stoppers_in(instance, trigger))


class AnnotatedAtom:
    """An atom with the provenance needed by ``≺s``/``≺b`` computations.

    ``frontier_terms`` is ``fr(result(σ,h))`` for derived atoms and is
    irrelevant for database atoms (``is_initial``).  Callers identify
    annotated atoms by the keys of the mapping they pass to
    :func:`stop_edges` / :func:`before_graph`.
    """

    __slots__ = ("atom", "frontier_terms", "is_initial")

    def __init__(
        self,
        atom: Atom,
        frontier_terms: frozenset = frozenset(),
        is_initial: bool = False,
    ):
        self.atom = atom
        self.frontier_terms = frozenset(frontier_terms)
        self.is_initial = is_initial

    @staticmethod
    def initial(atom: Atom) -> "AnnotatedAtom":
        return AnnotatedAtom(atom, is_initial=True)

    def __repr__(self) -> str:
        kind = "db" if self.is_initial else "derived"
        return f"AnnotatedAtom({self.atom}, {kind})"


def stop_edges(annotated: Mapping[Hashable, AnnotatedAtom]) -> Set[Tuple[Hashable, Hashable]]:
    """All pairs ``(i, j)`` with ``annotated[i].atom ≺s annotated[j].atom``.

    Only derived atoms (non-initial) can be stopped; anything can stop.
    """
    edges: Set[Tuple[Hashable, Hashable]] = set()
    for j, stopped in annotated.items():
        if stopped.is_initial:
            continue
        for i, stopper in annotated.items():
            if i == j:
                continue
            if stops_atom(stopper.atom, stopped.atom, stopped.frontier_terms):
                edges.add((i, j))
    return edges


def before_graph(
    annotated: Mapping[Hashable, AnnotatedAtom],
    parent_edges: Iterable[Tuple[Hashable, Hashable]],
) -> Dict:
    """The before relation ``≺b`` over identified annotated atoms (Section 5.1).

    ``≺b = (D × non-D) ∪ ≺p ∪ ≺s⁻¹`` — returned as an adjacency dict keyed
    by the ids of ``annotated``, in the mapping's order.  ``parent_edges``
    must stay inside those ids.
    """
    graph: Dict = {i: set() for i in annotated}
    derived = [j for j, b in annotated.items() if not b.is_initial]
    for i, a in annotated.items():
        if a.is_initial:
            graph[i].update(derived)
    for parent, child in parent_edges:
        graph[parent].add(child)
    for stopper, stopped in stop_edges(annotated):
        graph[stopped].add(stopper)  # ≺s⁻¹: stopped must come before stopper
    return graph


def before_is_acyclic(graph: Dict) -> bool:
    """Condition (3) of Definition 5.2 on a before graph."""
    return not graphs.has_cycle(graph)
