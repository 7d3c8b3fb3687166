"""The real oblivious chase ``ochase(D, T)`` (Definition 3.3).

A labeled directed graph: one root node per database atom, and one node
per (TGD, homomorphism, *parent node tuple*) combination — so the same atom
may be generated by several nodes (a multiset), but each node's parents are
unambiguous.  This is the predefined structure in which all restricted
chase derivations live; the guarded analysis (Section 5) reads its
guard-parent / side-parent subrelations off the node structure.

:class:`ChaseGraph` is any finite fragment of ``ochase(D, T)`` and owns the
Section 5 relations over it (``≺p``, ``≺gp``, ``≺sp``, and ``≺s`` / ``≺b``
by way of :mod:`repro.chase.relations`, their one implementation);
:class:`RealObliviousChase` is the fragment built breadth-first.

The full object is infinite whenever the oblivious chase is; we build it
breadth-first up to node/round bounds.

The breadth-first construction is deterministic: rounds enumerate parent
combinations in insertion order off the per-round delta snapshot, node ids
are allocated in creation order, and invented nulls are digest-determined
per (TGD, homomorphism) — so node numbering and the guard/side-parent
relations are identical across runs.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Term
from repro.chase import relations
from repro.chase.checkpoint import Budget
from repro.chase.plans import RuleTables
from repro.chase.trigger import Trigger, round_triggers, triggers_on
from repro.errors import ChaseInterrupted
from repro.tgds.guardedness import guard_index
from repro.tgds.tgd import TGD


class OChaseNode:
    """A node of ``ochase(D,T)``: ``λ(v)`` is ``atom``, ``τ(v)`` is

    ``(trigger.tgd, trigger.h)`` for derived nodes and ``⊥`` (None) for
    database roots.  ``parents`` lists the node ids of the atoms the
    trigger matched, in body-atom order."""

    __slots__ = ("node_id", "atom", "trigger", "parents", "depth")

    def __init__(
        self,
        node_id: int,
        atom: Atom,
        trigger: Optional[Trigger],
        parents: Tuple[int, ...],
        depth: int,
    ):
        self.node_id = node_id
        self.atom = atom
        self.trigger = trigger
        self.parents = parents
        self.depth = depth

    @property
    def is_root(self) -> bool:
        """True for database atoms (``τ(v) = ⊥``)."""
        return self.trigger is None

    def frontier_terms(self) -> FrozenSet[Term]:
        """``fr(λ(v))`` for derived nodes; empty for roots."""
        if self.trigger is None:
            return frozenset()
        return frozenset(self.trigger.result_frontier_terms())

    def __repr__(self) -> str:
        tag = "⊥" if self.trigger is None else self.trigger.tgd.name
        return f"Node#{self.node_id}[{self.atom} via {tag}]"


class ChaseGraph:
    """A finite fragment of ``ochase(D, T)``: nodes with parent provenance.

    Node ids index ``self.nodes``, and a node's parents precede it (both
    constructions add a node after its parents).  This is the one home of
    the Section 5 relations over such a fragment: parent ``≺p``,
    guard-parent ``≺gp``, side-parent ``≺sp``, and — through
    :mod:`repro.chase.relations` — stop ``≺s`` and before ``≺b``.
    :class:`RealObliviousChase` builds one
    breadth-first; :func:`repro.guarded.chaseable.chase_graph_from_derivation`
    builds one from a recorded derivation.
    """

    def __init__(self, nodes: Sequence[OChaseNode]):
        self.nodes: List[OChaseNode] = list(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[OChaseNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> OChaseNode:
        return self.nodes[node_id]

    def atoms(self) -> Instance:
        """The set of atoms (the plain oblivious chase, Section 3.1 remark)."""
        return Instance(node.atom for node in self.nodes)

    def atom_multiplicity(self, atom: Atom) -> int:
        """How many nodes carry ``atom`` (the multiset view)."""
        return sum(1 for node in self.nodes if node.atom == atom)

    def roots(self) -> List[int]:
        """Ids of the database nodes (``τ(v) = ⊥``)."""
        return [node.node_id for node in self.nodes if node.is_root]

    def children_of(self, node_id: int) -> List[OChaseNode]:
        return [node for node in self.nodes if node_id in node.parents]

    def parent_edges(self, within: Optional[Set[int]] = None) -> Set[Tuple[int, int]]:
        """``≺p`` pairs (parent, child), optionally restricted to a node set."""
        edges: Set[Tuple[int, int]] = set()
        for node in self.nodes:
            if within is not None and node.node_id not in within:
                continue
            for parent in node.parents:
                if within is None or parent in within:
                    edges.add((parent, node.node_id))
        return edges

    def _annotated(self, node_ids: Iterable[int]) -> Dict[int, relations.AnnotatedAtom]:
        return {
            i: relations.AnnotatedAtom(
                self.nodes[i].atom,
                self.nodes[i].frontier_terms(),
                is_initial=self.nodes[i].is_root,
            )
            for i in node_ids
        }

    def stop_edges(self, within: Optional[Set[int]] = None) -> Set[Tuple[int, int]]:
        """``≺s`` pairs (stopper, stopped) among the chosen nodes."""
        chosen = range(len(self.nodes)) if within is None else sorted(within)
        return relations.stop_edges(self._annotated(chosen))

    def before_graph(self, within: Optional[Set[int]] = None) -> Dict:
        """The ``≺b`` adjacency over the chosen nodes (Section 5.1)."""
        chosen: Set[int] = (
            {n.node_id for n in self.nodes} if within is None else set(within)
        )
        return relations.before_graph(
            self._annotated(chosen), self.parent_edges(chosen)
        )

    # -- guarded refinements (Appendix C.2) ---------------------------------

    def guard_parent_of(self, node_id: int) -> Optional[int]:
        """``gp(v)``: the parent matched by the guard atom of ``τ(v)``'s TGD.

        None for roots.  Requires the TGD to be guarded.
        """
        node = self.nodes[node_id]
        if node.trigger is None:
            return None
        return node.parents[guard_index(node.trigger.tgd)]

    def guard_parent_edges(self) -> Set[Tuple[int, int]]:
        """``≺gp`` as (guard parent id, child id) pairs."""
        return {
            (parent, child)
            for child, parent in enumerate(self.guard_parents())
            if parent is not None
        }

    def side_parent_edges(self) -> Set[Tuple[int, int]]:
        """``≺sp``: parent pairs that are not the guard parent occurrence.

        Requires every TGD in the graph to be guarded."""
        edges: Set[Tuple[int, int]] = set()
        for node in self.nodes:
            if node.trigger is None:
                continue
            guard_at = guard_index(node.trigger.tgd)
            for body_index, parent in enumerate(node.parents):
                if body_index != guard_at:
                    edges.add((parent, node.node_id))
        return edges

    def guard_parents(self) -> List[Optional[int]]:
        """``gp(v)`` of every node, by node id (None for roots), with each
        rule's guard position computed once."""
        guard_at: Dict[TGD, int] = {}
        parents: List[Optional[int]] = []
        for node in self.nodes:
            if node.trigger is None:
                parents.append(None)
                continue
            tgd = node.trigger.tgd
            if tgd not in guard_at:
                guard_at[tgd] = guard_index(tgd)
            parents.append(node.parents[guard_at[tgd]])
        return parents

    def guard_roots(self) -> List[int]:
        """The root of the ``≺gp``-tree of every node, by node id.

        One pass in node order: a node's parents precede it."""
        roots: List[int] = []
        for node_id, parent in enumerate(self.guard_parents()):
            roots.append(node_id if parent is None else roots[parent])
        return roots

    def guard_root(self, node_id: int) -> int:
        """The root of the ``≺gp``-tree containing ``node_id``."""
        node = self.nodes[node_id]
        while node.trigger is not None:
            node = self.nodes[node.parents[guard_index(node.trigger.tgd)]]
        return node.node_id

    def guard_descendants(self, node_id: int) -> Set[int]:
        """All nodes reachable from ``node_id`` via ``≺gp`` (excl. itself).

        One pass in node order: a node's parents precede it."""
        found = {node_id}
        for child, parent in enumerate(self.guard_parents()):
            if parent in found:
                found.add(child)
        return found - {node_id}

    def __repr__(self) -> str:
        return f"ChaseGraph({len(self.nodes)} nodes)"


class RealObliviousChase(ChaseGraph):
    """A bounded prefix of ``ochase(D, T)``.

    ``complete`` is True when the construction closed under all trigger
    applications (no more nodes exist at all); otherwise the object is the
    full restriction of ``ochase(D,T)`` to nodes of depth < ``max_depth``
    (depth of a node = 1 + max parent depth).
    """

    def __init__(
        self,
        database: Instance,
        tgds: Sequence[TGD],
        max_nodes: int = 5_000,
        max_depth: int = 8,
        budget: Optional[Budget] = None,
    ):
        """Build the prefix of ``ochase(database, tgds)`` within the bounds.

        A ``budget`` wall/round limit binding at a round boundary raises
        :class:`repro.errors.ChaseInterrupted` (partial records the node
        count built so far)."""
        super().__init__(())
        self.tgds = tuple(tgds)
        self.complete = True
        self._build(database, max_nodes, max_depth, budget)

    # -- construction ------------------------------------------------------

    def _build(
        self,
        database: Instance,
        max_nodes: int,
        max_depth: int,
        budget: Optional[Budget] = None,
    ) -> None:
        if budget is not None:
            budget.start()
        atom_index = Instance()
        nodes_by_atom: Dict[Atom, List[int]] = {}
        node_keys: Set[tuple] = set()
        # Triggers are discovered incrementally: full enumeration once,
        # then the semi-naive pass over the atoms the previous round added.
        # The first round's enumeration order numbers the triggers, which
        # fixes node ids and, on a build cut by max_nodes, which nodes are
        # kept.  Each entry keeps
        # its body image, and an inverted image-atom -> triggers index lets
        # a round gather exactly the triggers whose image touches the
        # frontier instead of scanning the full trigger history.
        triggers: Dict[tuple, Tuple[int, Trigger, List[Atom]]] = {}
        triggers_by_image_atom: Dict[Atom, List[tuple]] = {}
        tables = RuleTables.of(self.tgds)
        # The first birth of the atoms the next discovery pass covers.
        start = 0

        def add_node(
            atom: Atom, trigger: Optional[Trigger], parents: Tuple[int, ...], depth: int
        ) -> Optional[int]:
            key = (atom, None if trigger is None else trigger.key, parents)
            if key in node_keys:
                return None
            node_keys.add(key)
            node_id = len(self.nodes)
            self.nodes.append(OChaseNode(node_id, atom, trigger, parents, depth))
            atom_index.add(atom)
            nodes_by_atom.setdefault(atom, []).append(node_id)
            return node_id

        def discover(first_round: bool) -> None:
            nonlocal start
            if first_round:
                found = triggers_on(self.tgds, atom_index)
            else:
                found = round_triggers(tables, atom_index, start)
            start = atom_index.next_birth()
            for trigger in found:
                if trigger.key not in triggers:
                    image = trigger.body_image()
                    triggers[trigger.key] = (len(triggers), trigger, image)
                    for atom in set(image):
                        triggers_by_image_atom.setdefault(atom, []).append(trigger.key)

        for atom in database.sorted_atoms():
            add_node(atom, None, (), 0)

        discover(first_round=True)
        frontier = list(range(len(self.nodes)))
        while frontier:
            if budget is not None:
                if budget.rounds_exhausted():
                    self.complete = False
                    raise ChaseInterrupted(
                        "budget:rounds", partial={"nodes": len(self.nodes)}
                    )
                reason = budget.exceeded(len(self.nodes))
                if reason is not None:
                    self.complete = False
                    raise ChaseInterrupted(
                        reason, partial={"nodes": len(self.nodes)}
                    )
            next_frontier: List[int] = []
            frontier_set = set(frontier)
            frontier_atoms = {self.nodes[p].atom for p in frontier}
            # A combo with a frontier node implies a frontier atom in the
            # image, so only triggers reachable through the inverted index
            # can yield new nodes this round; discovery order keeps the
            # candidate list deterministic.
            candidate_keys = {
                key
                for atom in frontier_atoms
                for key in triggers_by_image_atom.get(atom, ())
            }
            candidates = sorted(
                (triggers[key] for key in candidate_keys), key=lambda entry: entry[0]
            )
            for _, trigger, image in candidates:
                # All parent-node combinations realizing the body image.
                candidate_lists = [nodes_by_atom[a] for a in image]
                for parent_combo in product(*candidate_lists):
                    if not any(p in frontier_set for p in parent_combo):
                        continue  # node existed in an earlier round
                    depth = 1 + max(self.nodes[p].depth for p in parent_combo)
                    if depth >= max_depth:
                        self.complete = False
                        continue
                    # The node cap binds only when a node is still to come:
                    # a closure reached at exactly max_nodes is complete.
                    if len(self.nodes) >= max_nodes:
                        self.complete = False
                        return
                    node_id = add_node(
                        trigger.result(), trigger, tuple(parent_combo), depth
                    )
                    if node_id is not None:
                        next_frontier.append(node_id)
            discover(first_round=False)
            frontier = next_frontier
            if budget is not None:
                budget.charge_round()

    def __repr__(self) -> str:
        status = "complete" if self.complete else "truncated"
        return f"RealObliviousChase({len(self.nodes)} nodes, {status})"
