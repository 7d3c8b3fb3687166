"""Chaseable sets and Theorem 5.3 (Section 5.1, Appendix C.1).

A set ``A ⊆ ochase(D,T)`` is *chaseable* when (1) every atom has only
finitely many ``≺b``-predecessors in ``A``, (2) ``A`` is parent-closed, and
(3) ``≺b`` restricted to ``A`` is acyclic.  Theorem 5.3: an infinite
chaseable set exists iff an infinite restricted chase derivation exists.

On the finite prefixes we compute with, condition (1) is automatic and the
two interesting conditions are executable.  Both directions of the theorem
are implemented:

* :func:`chase_graph_from_derivation` turns a recorded derivation into a
  fragment of ``ochase(D,T)`` whose full node set is chaseable
  (direction 1 ⇒ 2);
* :func:`derivation_from_chaseable` linearizes a chaseable node set into a
  validated restricted chase derivation (direction 2 ⇒ 1, the inductive
  construction of Appendix C.1).

The graph type and its relations live elsewhere: :class:`ChaseGraph` (in
:mod:`repro.chase.real_oblivious`) gives ``≺p`` and, through
:mod:`repro.chase.relations`, ``≺s`` and ``≺b``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.chase.derivation import Derivation
from repro.chase.real_oblivious import ChaseGraph, OChaseNode
from repro.chase.trigger import Trigger
from repro.tgds.tgd import TGD
from repro.util import graphs


def chase_graph_from_derivation(database: Instance, derivation: Derivation) -> ChaseGraph:
    """Direction (1) ⇒ (2) of Theorem 5.3: embed a derivation into ochase.

    Each derivation step becomes a node whose parents are the (first)
    producer nodes of its body image atoms.
    """
    nodes: List[OChaseNode] = []
    producer: Dict[Atom, int] = {}
    for atom in database.sorted_atoms():
        node = OChaseNode(len(nodes), atom, None, (), 0)
        nodes.append(node)
        producer.setdefault(atom, node.node_id)
    for trigger in derivation.steps:
        parents = []
        for body_atom in trigger.tgd.body:
            image = body_atom.apply(trigger.h)
            if image not in producer:
                raise ValueError(
                    f"derivation step {trigger} uses atom {image} with no producer"
                )
            parents.append(producer[image])
        depth = 1 + max((nodes[p].depth for p in parents), default=0)
        node = OChaseNode(len(nodes), trigger.result(), trigger, tuple(parents), depth)
        nodes.append(node)
        producer.setdefault(node.atom, node.node_id)
    return ChaseGraph(nodes)


def is_parent_closed(graph: ChaseGraph, node_ids: Set[int]) -> bool:
    """Condition (2) of Definition 5.2."""
    return all(
        parent in node_ids
        for node_id in node_ids
        for parent in graph.nodes[node_id].parents
    )


def is_chaseable(graph: ChaseGraph, node_ids: Iterable[int]) -> Tuple[bool, str]:
    """Check Definition 5.2 on a finite node set.

    Condition (1) (finitely many ``≺b``-predecessors) is automatic on a
    finite set; we check (2) parent-closure and (3) acyclicity of ``≺b``,
    and additionally that all roots are included (the database is part of
    every derivation, so the C.1 construction needs it available).
    Returns (ok, reason).
    """
    chosen = set(node_ids)
    missing_roots = set(graph.roots()) - chosen
    if missing_roots:
        return False, f"root nodes {sorted(missing_roots)} missing from the set"
    if not is_parent_closed(graph, chosen):
        return False, "not parent-closed (condition 2)"
    before = graph.before_graph(chosen)
    cycle = graphs.find_cycle(before)
    if cycle is not None:
        return False, f"≺b has a cycle through nodes {cycle} (condition 3)"
    return True, "chaseable"


def derivation_from_chaseable(
    graph: ChaseGraph,
    node_ids: Iterable[int],
    tgds: Sequence[TGD],
    validate: bool = True,
) -> Derivation:
    """Direction (2) ⇒ (1) of Theorem 5.3 (the Appendix C.1 construction).

    Linearizes the chaseable set in a ``≺b``-respecting order and applies
    the corresponding triggers; when ``validate`` is set the resulting
    derivation is re-checked step by step (every trigger must be active —
    exactly what the chaseable conditions guarantee).
    """
    chosen = set(node_ids)
    ok, reason = is_chaseable(graph, chosen)
    if not ok:
        raise ValueError(f"node set is not chaseable: {reason}")
    before = graph.before_graph(chosen)
    order = graphs.topological_order(before)
    if order is None:  # pragma: no cover - excluded by is_chaseable
        raise ValueError("≺b over the set is cyclic")
    initial = Instance(graph.nodes[i].atom for i in graph.roots())
    steps: List[Trigger] = []
    for node_id in order:
        node = graph.nodes[node_id]
        if node.trigger is not None:
            steps.append(node.trigger)
    derivation = Derivation(initial, steps)
    if validate:
        derivation.validate(tgds)
    return derivation
