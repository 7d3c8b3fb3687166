"""Rule-dependency assessor: which TGD heads can feed which TGD bodies.

The portfolio's cheap stages and the chase engine's discovery pruning both
need one static object: a directed graph over the TGD set with an edge
``u -> v`` whenever an atom produced by ``tgds[u]``'s head could be part of
a *new* body match of ``tgds[v]`` (cf. PDQ's ``DefaultTGDDependencyAssessor``,
which restricts trigger discovery to rules whose bodies intersect the heads
of rules that just fired).  Everything here is a sound over-approximation:

* :func:`can_feed` may report an edge that never materialises in a chase,
  but never misses one that does — so strongly connected components of the
  graph over-approximate the real feedback loops, and rules outside the
  reachable-predicate closure of a database provably never fire.
* :meth:`RuleDependencyGraph.live_tgds` therefore prunes *discovery only*
  for rules that can never produce a trigger at all; chase runs with and
  without the pruning are byte-identical (same instances, same derivations,
  same ``(birth, canonical_key)`` worklist orders — enforced by
  ``tests/termination/test_dependencies.py`` over the generator corpus).

The unification test is refined beyond predicate/arity matching: a head
atom carrying *distinct* existential variables at positions ``i != j``
can never match a body atom demanding equal terms there, because distinct
existentials always instantiate to distinct fresh nulls (digest-named per
variable, see ``Trigger.result``).  Likewise an existential position can
never equal a frontier position of the same head atom — the null is fresh,
the frontier image is a pre-existing term.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.tgds.tgd import TGD
from repro.util import graphs


def can_feed(producer: TGD, consumer: TGD) -> bool:
    """Can an atom produced by ``producer``'s head join a ``consumer`` body match?

    Sound over-approximation of the chase-level firing relation: True
    whenever the head atom unifies with *some* body atom of ``consumer``
    under the constraint that distinct existential head positions hold
    distinct fresh nulls.  A False answer is a proof that no chase step of
    ``producer`` ever contributes the matched atom for that body position.
    """
    head = producer.head
    for atom in consumer.body:
        if _head_matches_body_atom(head, producer, atom):
            return True
    return False


def _head_matches_body_atom(head: Atom, producer: TGD, body_atom: Atom) -> bool:
    """Unifiability of one produced atom against one body atom.

    Predicate and arity must agree; beyond that the only obstruction a
    constant-free body atom can raise is *repeated variables*: positions
    ``i, j`` holding the same body variable demand equal terms, which the
    produced atom can supply only when the head carries the same variable
    at both positions, or frontier variables at both (a frontier image may
    repeat; a fresh existential null never equals anything pre-existing,
    and distinct existentials never equal each other).
    """
    if head.predicate != body_atom.predicate or head.arity != body_atom.arity:
        return False
    existential = producer.existential_variables
    positions_of: Dict[object, List[int]] = {}
    for i in range(1, body_atom.arity + 1):
        positions_of.setdefault(body_atom.at(i), []).append(i)
    for positions in positions_of.values():
        if len(positions) < 2:
            continue
        first = head.at(positions[0])
        for j in positions[1:]:
            other = head.at(j)
            if other == first:
                continue
            if first in existential or other in existential:
                return False
    return True


class RuleDependencyGraph:
    """The rule-dependency graph of a TGD set, with its SCC layer structure.

    Nodes are TGD *indices* (positions in the input sequence — TGD equality
    ignores names, so indices keep duplicate rules distinct).  Construction
    indexes rules by head/body predicate so the edge scan touches only
    predicate-compatible pairs instead of all ``n^2``.
    """

    def __init__(self, tgds: Sequence[TGD]):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        by_head: Dict[str, List[int]] = {}
        by_body: Dict[str, List[int]] = {}
        for index, tgd in enumerate(self.tgds):
            by_head.setdefault(tgd.head.predicate, []).append(index)
            for atom in tgd.body:
                consumers = by_body.setdefault(atom.predicate, [])
                if not consumers or consumers[-1] != index:
                    consumers.append(index)
        self.graph: graphs.Graph = {index: set() for index in range(len(self.tgds))}
        for predicate, producers in by_head.items():
            for u in producers:
                for v in by_body.get(predicate, ()):
                    if can_feed(self.tgds[u], self.tgds[v]):
                        self.graph[u].add(v)

    # -- structure ---------------------------------------------------------

    def edges(self) -> List[Tuple[int, int]]:
        """All ``(producer index, consumer index)`` edges, sorted."""
        return sorted(
            (u, v) for u, targets in self.graph.items() for v in targets
        )

    def sccs(self) -> List[List[int]]:
        """Strongly connected components in *topological* order.

        Tarjan emits components in reverse topological order; reversing
        gives the producer-before-consumer order the layered cascade wants.
        Indices within a component are sorted for determinism.
        """
        components = graphs.strongly_connected_components(self.graph)
        return [sorted(component) for component in reversed(components)]

    def layers(self) -> List[List[TGD]]:
        """The TGD subsets of :meth:`sccs`, in the same topological order."""
        return [[self.tgds[i] for i in component] for component in self.sccs()]

    def condensation_is_acyclic(self) -> bool:
        """True iff no SCC contains an internal edge (incl. self-loops).

        Equivalently: the rule-dependency graph itself is a DAG, so no rule
        can ever feed itself, even transitively.
        """
        return not any(self._component_has_internal_edge(c) for c in self.sccs())

    def _component_has_internal_edge(self, component: Sequence[int]) -> bool:
        members = set(component)
        return any(
            target in members for node in members for target in self.graph[node]
        )

    # -- liveness ----------------------------------------------------------

    def reachable_predicates(self, initial: Iterable[str]) -> FrozenSet[str]:
        """Predicates derivable from ``initial`` under the TGD set.

        Least fixpoint of: a head predicate is reachable once *every* body
        predicate of its rule is.  (Bodies are conjunctive — one missing
        body predicate means no homomorphism, ever.)
        """
        reachable: Set[str] = set(initial)
        changed = True
        while changed:
            changed = False
            for tgd in self.tgds:
                if tgd.head.predicate in reachable:
                    continue
                if all(atom.predicate in reachable for atom in tgd.body):
                    reachable.add(tgd.head.predicate)
                    changed = True
        return frozenset(reachable)

    def live_indices(self, initial_predicates: Iterable[str]) -> Tuple[int, ...]:
        """Indices of TGDs that could ever fire from ``initial_predicates``.

        A TGD is *dead* when some body predicate lies outside the
        reachable closure: no instance grown from the initial predicates
        ever holds an atom of that predicate, so the rule admits no body
        homomorphism — it never yields a trigger, active or not.  Pruning
        dead rules from discovery is therefore byte-identity-safe.
        """
        reachable = self.reachable_predicates(initial_predicates)
        return tuple(
            index
            for index, tgd in enumerate(self.tgds)
            if all(atom.predicate in reachable for atom in tgd.body)
        )

    def live_tgds(self, initial_predicates: Iterable[str]) -> Tuple[TGD, ...]:
        """The TGD subset of :meth:`live_indices`, in input order."""
        return tuple(self.tgds[i] for i in self.live_indices(initial_predicates))

    def triggerable(self, fired_predicates: Iterable[str]) -> Tuple[TGD, ...]:
        """Rules whose bodies intersect ``fired_predicates`` (PDQ-style).

        The per-round analogue of PDQ's ``DefaultTGDDependencyAssessor``:
        after a round that produced atoms of ``fired_predicates``, only
        these rules can gain a *new* trigger.  (The semi-naive kernel
        already enforces this dynamically through per-``(tgd, pivot)``
        delta buckets; this static form serves planners and diagnostics.)
        """
        fired = set(fired_predicates)
        return tuple(
            tgd
            for tgd in self.tgds
            if any(atom.predicate in fired for atom in tgd.body)
        )

    def __repr__(self) -> str:
        return (
            f"RuleDependencyGraph({len(self.tgds)} rules, "
            f"{len(self.edges())} edges, {len(self.sccs())} sccs)"
        )
