"""Baseline sufficient conditions for all-instances restricted chase termination.

The paper's Section 1.1 surveys the long line of sufficient conditions; we
implement the two canonical ones it cites as context, both of which imply
membership in ``CT_res_∀∀`` (indeed they bound *every* chase variant):

* **Weak acyclicity** [Fagin, Kolaitis, Miller, Popa — TCS'05], the standard
  data-exchange condition: no cycle through a "special" edge in the position
  dependency graph.
* **Joint acyclicity** [Krötzsch & Rudolph — IJCAI'11], a strict
  generalization: acyclicity of the existential-variable dependency graph.

Both serve as complete *termination certificates* inside the guarded
decision procedure and as baselines in the corpus benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.tgds.tgd import TGD
from repro.util import graphs

Position = Tuple[str, int]


def position_dependency_graph(
    tgds: Sequence[TGD],
) -> Tuple[Set[Tuple[Position, Position]], Set[Tuple[Position, Position]]]:
    """The weak-acyclicity graph: (regular edges, special edges).

    For every TGD and every frontier variable ``x`` at body position ``p``:
    a regular edge ``p -> q`` for each head position ``q`` holding ``x``, and
    a special edge ``p -> q`` for each head position ``q`` holding an
    existential variable.
    """
    regular: Set[Tuple[Position, Position]] = set()
    special: Set[Tuple[Position, Position]] = set()
    for tgd in tgds:
        head = tgd.head
        existential = tgd.existential_variables
        for atom in tgd.body:
            for i in range(1, atom.arity + 1):
                var = atom.at(i)
                if var not in tgd.frontier:
                    continue
                source: Position = (atom.predicate, i)
                for j in range(1, head.arity + 1):
                    target: Position = (head.predicate, j)
                    if head.at(j) == var:
                        regular.add((source, target))
                    elif head.at(j) in existential:
                        special.add((source, target))
    return regular, special


def is_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    """Weak acyclicity: no cycle going through a special edge.

    Equivalently: no special edge connects two positions in the same
    strongly connected component of the combined graph.
    """
    regular, special = position_dependency_graph(tgds)
    graph = graphs.make_graph(list(regular) + list(special))
    components = graphs.strongly_connected_components(graph)
    component_of: Dict[Position, int] = {}
    for index, component in enumerate(components):
        for node in component:
            component_of[node] = index
    return all(
        component_of[source] != component_of[target] for source, target in special
    )


def existential_dependency_graph(tgds: Sequence[TGD]) -> Dict:
    """The joint-acyclicity graph over existential variables.

    Nodes are pairs ``(tgd index, existential variable)``.  ``Move(p)`` — the
    positions a frontier term introduced at position set ``P`` can travel to
    — is computed as a fixpoint; there is an edge ``z -> z'`` when some
    frontier variable of the TGD introducing ``z'`` only occurs (in the
    body) at positions reachable by ``z``.
    """
    indexed = list(enumerate(tgds))

    def move_closure(start: Set[Position]) -> Set[Position]:
        reached = set(start)
        changed = True
        while changed:
            changed = False
            for _, tgd in indexed:
                for var in tgd.frontier:
                    body_positions = {
                        (atom.predicate, i)
                        for atom in tgd.body
                        for i in range(1, atom.arity + 1)
                        if atom.at(i) == var
                    }
                    if not body_positions <= reached:
                        continue
                    for j in range(1, tgd.head.arity + 1):
                        if tgd.head.at(j) == var:
                            target = (tgd.head.predicate, j)
                            if target not in reached:
                                reached.add(target)
                                changed = True
        return reached

    moves: Dict[Tuple[int, str], Set[Position]] = {}
    for idx, tgd in indexed:
        for z in sorted(tgd.existential_variables, key=lambda v: v.name):
            birth_positions = {
                (tgd.head.predicate, j)
                for j in range(1, tgd.head.arity + 1)
                if tgd.head.at(j) == z
            }
            moves[(idx, z.name)] = move_closure(birth_positions)

    graph: Dict = {node: set() for node in moves}
    for (idx, zname), reachable in moves.items():
        for other_idx, other in indexed:
            for z2 in other.existential_variables:
                # Edge if every body occurrence of some frontier variable of
                # ``other`` lies inside ``reachable``.
                for var in other.frontier:
                    body_positions = {
                        (atom.predicate, i)
                        for atom in other.body
                        for i in range(1, atom.arity + 1)
                        if atom.at(i) == var
                    }
                    if body_positions and body_positions <= reachable:
                        graph[(idx, zname)].add((other_idx, z2.name))
                        break
    return graph


def is_jointly_acyclic(tgds: Sequence[TGD]) -> bool:
    """Joint acyclicity: the existential dependency graph is acyclic."""
    graph = existential_dependency_graph(tgds)
    return not graphs.has_cycle(graph)


def has_existentials(tgds: Iterable[TGD]) -> bool:
    """True iff some TGD invents values; full TGDs trivially terminate

    (every chase step over a fixed active domain, so the restricted chase
    reaches a fixpoint on any database)."""
    return any(tgd.existential_variables for tgd in tgds)


def terminating_certificate(tgds: Sequence[TGD]) -> str | None:
    """The name of a syntactic termination certificate, or None.

    Checked cheapest-first; any non-None answer implies membership in
    ``CT_res_∀∀`` (for every database, every chase variant terminates).
    """
    if not has_existentials(tgds):
        return "full-tgds"
    if is_weakly_acyclic(tgds):
        return "weak-acyclicity"
    if is_jointly_acyclic(tgds):
        return "joint-acyclicity"
    return None
