"""The Treeification Theorem, executable (Theorem 5.5, Appendix C.2).

Given non-termination evidence — a long restricted chase derivation of some
database ``D`` w.r.t. a guarded set ``T`` — build an *acyclic* database
``D_ac`` exhibiting the same behaviour:

1. embed the derivation into a fragment of ``ochase(D,T)`` and read off the
   guard-parent forest;
2. pick ``α∞``: the database atom with the largest guard-descendant tree;
3. detect *remote-side-parent situations* (Definition 5.7): a node below
   root ``α`` whose side parent lies below a different root ``β`` — then
   "α longs for β";
4. unfold the longs-for multigraph from ``α∞`` into a tree of bounded depth
   ``ℓ∞``, labelling each path with a renamed copy of its endpoint atom
   that shares terms with its parent label exactly as the original atoms
   share terms (the ``[t]_v`` renaming of the paper);
5. the labels form ``D_ac`` — acyclic by construction (the unfolding *is*
   its join tree), verified with GYO.

The paper proves ``D_ac`` reproduces the infinite derivation; we verify by
replay: the restricted chase on ``D_ac`` must reach the same step horizon.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Term
from repro.chase.derivation import Derivation
from repro.chase.real_oblivious import ChaseGraph
from repro.guarded.chaseable import chase_graph_from_derivation
from repro.guarded.join_tree import JoinTree, gyo_join_tree
from repro.tgds.guardedness import check_guarded_set, guard_index
from repro.tgds.tgd import TGD


class LongsForGraph:
    """The "longs for" multigraph over database atoms (Definition 5.7)."""

    def __init__(self, edges: Set[Tuple[Atom, Atom]]):
        #: Directed edges (α, β): "α longs for β".
        self.edges = edges

    def successors(self, atom: Atom) -> List[Atom]:
        return sorted((b for a, b in self.edges if a == atom), key=Atom.sort_key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}⇢{b}" for a, b in sorted(self.edges, key=repr))
        return f"LongsFor({{{inner}}})"


def remote_side_parent_situations(
    graph: ChaseGraph, tgds: Sequence[TGD]
) -> List[Tuple[Atom, int, Atom, int]]:
    """All tuples ``⟨α, α', β, β'⟩`` of Definition 5.7 present in the graph.

    Returned as (root atom α, node id of α', root atom β, node id of β').
    Side parents that are database atoms under a different root are included
    (the degenerate ``β' = β`` case the construction equally needs).
    """
    situations: List[Tuple[Atom, int, Atom, int]] = []
    root_of = {node.node_id: graph.guard_root(node.node_id) for node in graph.nodes}
    for node in graph.nodes:
        if node.trigger is None:
            continue
        guard_at = guard_index(node.trigger.tgd)
        for body_index, parent in enumerate(node.parents):
            if body_index == guard_at:
                continue
            my_root = root_of[node.node_id]
            parent_root = root_of[parent]
            if my_root != parent_root:
                situations.append(
                    (
                        graph.nodes[my_root].atom,
                        node.node_id,
                        graph.nodes[parent_root].atom,
                        parent,
                    )
                )
    return situations


def longs_for_graph(graph: ChaseGraph, tgds: Sequence[TGD]) -> LongsForGraph:
    """Collapse the remote-side-parent situations into the longs-for edges."""
    edges = {
        (alpha, beta)
        for alpha, _, beta, _ in remote_side_parent_situations(graph, tgds)
    }
    return LongsForGraph(edges)


def choose_alpha_infinity(graph: ChaseGraph, tgds: Sequence[TGD]) -> Atom:
    """The database atom with the most guard-descendants in the evidence.

    In the proof ``α∞`` is the root whose ``≺gp``-tree is infinite; on a
    finite prefix we take the largest.
    """
    counts: Dict[int, int] = {}
    for node in graph.nodes:
        root = graph.guard_root(node.node_id)
        if node.node_id != root:
            counts[root] = counts.get(root, 0) + 1
    if not counts:
        raise ValueError("the evidence derivation generated no atoms")
    best = max(sorted(counts), key=lambda r: (counts[r], -r))
    return graph.nodes[best].atom


class TreeifiedDatabase:
    """The output of treeification: ``D_ac`` with its join tree and labels."""

    def __init__(
        self,
        labels: List[Atom],
        parents: List[Optional[int]],
        originals: List[Atom],
        depths: List[int],
    ):
        #: ``λ(v)``: the (renamed) atom at each tree node.
        self.labels = labels
        #: Parent index of each node (None for the root).
        self.parents = parents
        #: ``h_ac(λ(v))``: the original database atom each label copies.
        self.originals = originals
        #: ``depth(λ(v))``.
        self.depths = depths

    def database(self) -> Database:
        """The set-semantics acyclic database (duplicates collapsed)."""
        return Database(self.labels)

    def multiset_roots(self) -> List[Tuple[Atom, int]]:
        """(atom, depth) pairs for the weakly restricted chase."""
        return list(zip(self.labels, self.depths))

    def join_tree(self) -> JoinTree:
        edges = {
            (parent, child)
            for child, parent in enumerate(self.parents)
            if parent is not None
        }
        return JoinTree(self.labels, edges)

    def homomorphism_to_original(self) -> Dict[Term, Term]:
        """The term map realizing ``h_ac`` (label terms -> original terms)."""
        mapping: Dict[Term, Term] = {}
        for label, original in zip(self.labels, self.originals):
            for renamed, term in zip(label.terms, original.terms):
                mapping[renamed] = term
        return mapping

    def __repr__(self) -> str:
        return f"TreeifiedDatabase({len(self.labels)} atoms, depth≤{max(self.depths, default=0)})"


def _label_for(
    original: Atom, parent_label: Optional[Atom], parent_original: Optional[Atom], node_id: int
) -> Atom:
    """Build ``λ(u)`` from ``β = original`` per the inductive step:

    equalities within ``β`` are preserved; terms shared with the parent's
    original atom ``α`` are taken from the parent's label; everything else
    becomes the fresh constant ``[t]_u``."""
    renaming: Dict[Term, Term] = {}
    if parent_label is not None and parent_original is not None:
        for j, parent_term in enumerate(parent_original.terms):
            renaming.setdefault(parent_term, parent_label.terms[j])
    terms: List[Term] = []
    for term in original.terms:
        if term not in renaming:
            renaming[term] = Constant(f"{term.name}__{node_id}")
        terms.append(renaming[term])
    return Atom(original.predicate, terms)


def treeify(
    database: Instance,
    tgds: Sequence[TGD],
    evidence: Derivation,
    depth: Optional[int] = None,
) -> TreeifiedDatabase:
    """The Theorem 5.5 construction.

    ``evidence`` is a (long) restricted chase derivation of ``database``
    w.r.t. the guarded set ``tgds``; ``depth`` overrides ``ℓ∞`` (default:
    the number of database atoms, which bounds every longs-for chain the
    finite evidence can exhibit without repetition, and is capped at the
    evidence length).
    """
    check_guarded_set(list(tgds))
    graph = chase_graph_from_derivation(database, evidence)
    alpha_infinity = choose_alpha_infinity(graph, tgds)
    longs_for = longs_for_graph(graph, tgds)
    if depth is None:
        depth = min(len(database), len(evidence.steps))

    labels: List[Atom] = []
    parents: List[Optional[int]] = []
    originals: List[Atom] = []
    depths: List[int] = []

    def add_node(original: Atom, parent_index: Optional[int]) -> int:
        node_id = len(labels)
        parent_label = labels[parent_index] if parent_index is not None else None
        parent_original = originals[parent_index] if parent_index is not None else None
        labels.append(_label_for(original, parent_label, parent_original, node_id))
        parents.append(parent_index)
        originals.append(original)
        depths.append(0 if parent_index is None else depths[parent_index] + 1)
        return node_id

    root = add_node(alpha_infinity, None)
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for node_id in frontier:
            if depths[node_id] >= depth:
                continue
            for successor in longs_for.successors(originals[node_id]):
                child = add_node(successor, node_id)
                next_frontier.append(child)
        frontier = next_frontier
    return TreeifiedDatabase(labels, parents, originals, depths)


def verify_treeification(
    treeified: TreeifiedDatabase,
    tgds: Sequence[TGD],
    target_steps: int,
) -> bool:
    """Replay check: does ``D_ac`` admit a derivation of ``target_steps``?

    Also asserts ``D_ac`` is genuinely acyclic (its unfolding is a join
    tree and GYO agrees).
    """
    join_tree = treeified.join_tree()
    if not join_tree.is_join_tree():
        return False
    if gyo_join_tree(treeified.labels) is None:
        return False
    from repro.chase.restricted import exists_derivation_of_length

    return (
        exists_derivation_of_length(treeified.database(), tgds, target_steps)
        is not None
    )
