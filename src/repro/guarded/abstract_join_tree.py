"""Abstract join trees (Section 5.3: Definitions 5.8 and 5.10).

An abstract join tree encodes an instance as a ``Λ_T``-labeled tree with a
*finite* label alphabet: each node carries a predicate, an *origin* (``F``
for a database fact, else the TGD that generated the atom), and an
equivalence relation over ``{f, m} × [ar(T)]`` recording which argument
positions of the node ("me") and its father carry equal terms.  Decoding
(``∆``) materializes one term per connected equivalence class.

This is exactly the structure the paper's MSOL sentence ``φ_T`` speaks
about; we implement:

* validation of the five conditions of Definition 5.8;
* the decoding ``∆(T)`` and its restriction ``∆(T|F)``;
* the node-level parent / stop / before relations of Section 5.3 and the
  *chaseable* conditions of Definition 5.10;
* the Lemma 5.9 direction "derivation on an acyclic database ⇒ abstract
  join tree" (:func:`ajt_from_derivation`), used to cross-validate the
  encoding against the real chase.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Null, Term
from repro.chase.derivation import Derivation
from repro.chase.relations import AnnotatedAtom, before_graph
from repro.guarded.join_tree import gyo_join_tree
from repro.tgds.guardedness import guard_of, side_atoms
from repro.tgds.tgd import TGD
from repro.util import graphs
from repro.util.unionfind import UnionFind

Token = Tuple[str, int]
"""An element of ``{f, m} × [ar(T)]``: ('m', i) is my i-th position."""

EqRelation = FrozenSet[FrozenSet[Token]]
"""An equivalence relation over tokens, as a partition."""

F_ORIGIN = "F"


def make_eq(pairs: Iterable[Tuple[Token, Token]], tokens: Iterable[Token]) -> EqRelation:
    """The smallest equivalence over ``tokens`` containing ``pairs``."""
    uf = UnionFind(tokens)
    for a, b in pairs:
        uf.union(a, b)
    return frozenset(frozenset(c) for c in uf.classes())


def eq_related(eq: EqRelation, a: Token, b: Token) -> bool:
    """Are two tokens related by the partition?"""
    return any(a in cls and b in cls for cls in eq)


class AJTNode:
    """One node of an abstract join tree."""

    __slots__ = ("node_id", "parent", "predicate", "origin", "eq")

    def __init__(
        self,
        node_id: int,
        parent: Optional[int],
        predicate: str,
        origin: Union[str, TGD],
        eq: EqRelation,
    ):
        self.node_id = node_id
        self.parent = parent
        #: ``pr(x)``.
        self.predicate = predicate
        #: ``org(x)``: ``"F"`` or the generating TGD.
        self.origin = origin
        #: ``eq(x)``: partition of {f,m} × positions.
        self.eq = eq

    @property
    def is_fact(self) -> bool:
        return self.origin == F_ORIGIN

    def __repr__(self) -> str:
        org = "F" if self.is_fact else self.origin.name
        return f"AJT#{self.node_id}[{self.predicate}/{org}]"


class AbstractJoinTree:
    """A finite abstract join tree for a guarded TGD set."""

    def __init__(self, nodes: Sequence[AJTNode], schema_arities: Dict[str, int]):
        self.nodes: List[AJTNode] = list(nodes)
        self._arities = dict(schema_arities)
        self._children: Dict[int, List[int]] = {}
        for node in self.nodes:
            if node.parent is not None:
                self._children.setdefault(node.parent, []).append(node.node_id)

    def arity(self, predicate: str) -> int:
        return self._arities[predicate]

    def children(self, node_id: int) -> List[int]:
        return self._children.get(node_id, [])

    def roots(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.parent is None]

    # -- Definition 5.8 validation ------------------------------------------

    def violations(self, tgds: Sequence[TGD]) -> List[str]:
        """All violations of Definition 5.8's conditions (empty = valid)."""
        problems: List[str] = []
        roots = self.roots()
        if len(roots) != 1:
            problems.append(f"expected exactly one root, found {roots}")
        fact_nodes = [n for n in self.nodes if n.is_fact]
        if not fact_nodes:
            problems.append("condition (1): no F-labeled node")
        tgd_set = set(tgds)
        for node in self.nodes:
            if not node.is_fact and node.origin not in tgd_set:
                problems.append(f"{node}: origin TGD not in the set")
        for node in self.nodes:
            if node.parent is None:
                if not node.is_fact:
                    problems.append(f"{node}: root must be an F node (condition 2)")
                continue
            father = self.nodes[node.parent]
            if node.is_fact and not father.is_fact:
                problems.append(
                    f"{node}: F node below non-F node (condition 2)"
                )
            my_arity = self.arity(node.predicate)
            father_arity = self.arity(father.predicate)
            if not node.is_fact:
                sigma: TGD = node.origin
                guard = guard_of(sigma)
                if guard is None:
                    problems.append(f"{node}: origin TGD is not guarded")
                    continue
                if father.predicate != guard.predicate:
                    problems.append(
                        f"{node}: father predicate {father.predicate} is not "
                        f"the guard predicate {guard.predicate} (condition 3)"
                    )
                if node.predicate != sigma.head.predicate:
                    problems.append(
                        f"{node}: predicate is not the head predicate "
                        f"(condition 3)"
                    )
            # Condition 4: me-equalities of the father == f-equalities here.
            for i in range(1, father_arity + 1):
                for j in range(i + 1, father_arity + 1):
                    in_father = eq_related(father.eq, ("m", i), ("m", j))
                    in_child = eq_related(node.eq, ("f", i), ("f", j))
                    if in_father != in_child:
                        problems.append(
                            f"{node}: condition (4) fails at father positions "
                            f"({i},{j})"
                        )
            # Condition 5 for TGD-origin nodes.
            if not node.is_fact:
                sigma = node.origin
                guard = guard_of(sigma)
                head = sigma.head
                for i in range(1, guard.arity + 1):
                    for j in range(1, head.arity + 1):
                        if guard[i] == head[j] and not eq_related(
                            node.eq, ("f", i), ("m", j)
                        ):
                            problems.append(
                                f"{node}: condition (5a) fails at ({i},{j})"
                            )
                for i in range(1, guard.arity + 1):
                    for j in range(1, guard.arity + 1):
                        if guard[i] == guard[j] and not eq_related(
                            node.eq, ("f", i), ("f", j)
                        ):
                            problems.append(
                                f"{node}: condition (5b) fails at ({i},{j})"
                            )
                existential = sigma.existential_variables
                for j in range(1, head.arity + 1):
                    if head[j] not in existential:
                        continue
                    for i in range(1, head.arity + 1):
                        related = eq_related(node.eq, ("m", i), ("m", j))
                        equal_vars = head[i] == head[j]
                        if related != equal_vars:
                            problems.append(
                                f"{node}: condition (5c) fails at ({i},{j})"
                            )
        return problems

    def is_valid(self, tgds: Sequence[TGD]) -> bool:
        return not self.violations(tgds)

    # -- Decoding ∆(T) -------------------------------------------------------

    def _position_classes(self) -> UnionFind:
        """The ``Eq_T`` relation over (node id, position) pairs."""
        uf = UnionFind()
        for node in self.nodes:
            for i in range(1, self.arity(node.predicate) + 1):
                uf.add((node.node_id, i))
        for node in self.nodes:
            for cls in node.eq:
                tokens = sorted(cls)
                for a in tokens:
                    for b in tokens:
                        if a >= b:
                            continue
                        pa = self._token_position(node, a)
                        pb = self._token_position(node, b)
                        if pa is not None and pb is not None:
                            uf.union(pa, pb)
        return uf

    def _token_position(self, node: AJTNode, token: Token) -> Optional[Tuple[int, int]]:
        side, index = token
        if side == "m":
            if index <= self.arity(node.predicate):
                return (node.node_id, index)
            return None
        if node.parent is None:
            return None
        father = self.nodes[node.parent]
        if index <= self.arity(father.predicate):
            return (node.parent, index)
        return None

    def decode(self) -> List[Atom]:
        """``∆(T)``: one atom ``δ(x)`` per node.

        Classes whose terms touch an F node materialize as constants (the
        decoded ``∆(T|F)`` is then a genuine database); others as nulls.
        """
        uf = self._position_classes()
        fact_nodes = {n.node_id for n in self.nodes if n.is_fact}
        class_term: Dict = {}
        atoms: List[Atom] = []
        for node in self.nodes:
            terms: List[Term] = []
            for i in range(1, self.arity(node.predicate) + 1):
                root = uf.find((node.node_id, i))
                if root not in class_term:
                    touches_fact = any(
                        member[0] in fact_nodes
                        for member in self._class_members(uf, root)
                    )
                    name = f"t{len(class_term)}"
                    class_term[root] = Constant(name) if touches_fact else Null(name)
                terms.append(class_term[root])
            atoms.append(Atom(node.predicate, terms))
        return atoms

    @staticmethod
    def _class_members(uf: UnionFind, root) -> List:
        return [element for element in uf.elements() if uf.find(element) == root]

    def delta_instance(self) -> Instance:
        return Instance(self.decode())

    def delta_fact_instance(self) -> Instance:
        """``∆(T|F)``: the decoded database part."""
        decoded = self.decode()
        return Instance(
            decoded[n.node_id] for n in self.nodes if n.is_fact
        )

    # -- Section 5.3 relations and Definition 5.10 ----------------------------

    def side_parent_witnesses(
        self, node_id: int, tgds: Sequence[TGD]
    ) -> Optional[List[List[int]]]:
        """For a TGD-origin node ``y``: per side atom ``γ_k`` of its TGD, the

        list of nodes ``z`` with ``z ≺^{π_k}_sp y`` (``δ(z) ⊆π_k δ(x)``,
        ``x`` the father).  None for F nodes."""
        node = self.nodes[node_id]
        if node.is_fact or node.parent is None:
            return None
        sigma: TGD = node.origin
        guard = guard_of(sigma)
        decoded = self.decode()
        father_atom = decoded[node.parent]
        witnesses: List[List[int]] = []
        for side in side_atoms(sigma):
            # ξ: side position -> guard position carrying the same variable.
            xi: Dict[int, int] = {}
            for i in range(1, side.arity + 1):
                positions = [
                    j for j in range(1, guard.arity + 1) if guard[j] == side[i]
                ]
                if not positions:
                    raise ValueError(
                        f"TGD {sigma} is not guarded: {side[i]} not in guard"
                    )
                xi[i] = positions[0]
            found = [
                candidate.node_id
                for candidate in self.nodes
                if candidate.predicate == side.predicate
                and all(
                    decoded[candidate.node_id][i] == father_atom[xi[i]]
                    for i in range(1, side.arity + 1)
                )
            ]
            witnesses.append(found)
        return witnesses

    def parent_edges(self, tgds: Sequence[TGD]) -> Set[Tuple[int, int]]:
        """Section 5.3's ``≺p``: tree edges plus all side-parent witnesses."""
        edges: Set[Tuple[int, int]] = set()
        for node in self.nodes:
            if node.parent is not None:
                edges.add((node.parent, node.node_id))
            witnesses = self.side_parent_witnesses(node.node_id, tgds)
            if witnesses is None:
                continue
            for witness_list in witnesses:
                for witness in witness_list:
                    edges.add((witness, node.node_id))
        return edges

    def before_graph(self, tgds: Sequence[TGD]) -> Dict:
        """Section 5.3's ``≺b`` adjacency over node ids, on the decoding."""
        decoded = self.decode()
        annotated: Dict[int, AnnotatedAtom] = {}
        for node in self.nodes:
            atom = decoded[node.node_id]
            if node.is_fact:
                annotated[node.node_id] = AnnotatedAtom.initial(atom)
            else:
                frontier = node.origin.frontier_head_positions()
                annotated[node.node_id] = AnnotatedAtom(
                    atom, frozenset(atom[i] for i in frontier)
                )
        return before_graph(annotated, self.parent_edges(tgds))

    def chaseable_violations(self, tgds: Sequence[TGD]) -> List[str]:
        """Definition 5.10 on this finite tree (condition (1) is automatic)."""
        problems: List[str] = []
        for node in self.nodes:
            witnesses = self.side_parent_witnesses(node.node_id, tgds)
            if witnesses is None:
                continue
            for k, witness_list in enumerate(witnesses):
                if not witness_list:
                    problems.append(
                        f"{node}: side atom #{k} of {node.origin} has no "
                        f"witness (condition 2)"
                    )
        before = self.before_graph(tgds)
        cycle = graphs.find_cycle(before)
        if cycle is not None:
            problems.append(f"≺b has a cycle through {cycle} (condition 3)")
        return problems

    def is_chaseable(self, tgds: Sequence[TGD]) -> bool:
        return not self.chaseable_violations(tgds)

    def __repr__(self) -> str:
        return f"AbstractJoinTree({len(self.nodes)} nodes)"


def _eq_from_atoms(me: Atom, father: Optional[Atom]) -> EqRelation:
    """The eq-label recording the equalities within/between two real atoms."""
    tokens: List[Token] = [("m", i) for i in range(1, me.arity + 1)]
    if father is not None:
        tokens += [("f", i) for i in range(1, father.arity + 1)]
    pairs: List[Tuple[Token, Token]] = []
    for i in range(1, me.arity + 1):
        for j in range(i + 1, me.arity + 1):
            if me[i] == me[j]:
                pairs.append((("m", i), ("m", j)))
    if father is not None:
        for i in range(1, father.arity + 1):
            for j in range(i + 1, father.arity + 1):
                if father[i] == father[j]:
                    pairs.append((("f", i), ("f", j)))
            for j in range(1, me.arity + 1):
                if father[i] == me[j]:
                    pairs.append((("f", i), ("m", j)))
    return make_eq(pairs, tokens)


def ajt_from_derivation(
    database: Instance, derivation: Derivation, tgds: Sequence[TGD]
) -> AbstractJoinTree:
    """Encode a derivation on an *acyclic* database as an abstract join tree.

    The F part is a join tree of the database (GYO); each derivation step
    hangs below the node of its guard image (Lemma 5.9's shape).  Raises
    when the database is not acyclic or a guard image has no node.
    """
    schema: Dict[str, int] = {}
    for atom in database:
        schema[atom.predicate] = atom.arity
    for tgd in tgds:
        for atom in list(tgd.body) + [tgd.head]:
            schema[atom.predicate] = atom.arity

    join_tree = gyo_join_tree(database.sorted_atoms())
    if join_tree is None:
        raise ValueError("database is not acyclic; treeify it first")
    db_atoms = join_tree.atoms
    # Root the undirected join tree at index 0.
    parent_of: Dict[int, Optional[int]] = {0: None}
    order = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for neighbor in sorted(join_tree.neighbors(current)):
            if neighbor not in seen:
                seen.add(neighbor)
                parent_of[neighbor] = current
                order.append(neighbor)
                frontier.append(neighbor)
    if len(seen) != len(db_atoms):
        raise ValueError("database join tree is not connected")

    nodes: List[AJTNode] = []
    node_of_db: Dict[int, int] = {}
    producer_node: Dict[Atom, int] = {}
    for db_index in order:
        parent_db = parent_of[db_index]
        parent_node = node_of_db[parent_db] if parent_db is not None else None
        me = db_atoms[db_index]
        father = db_atoms[parent_db] if parent_db is not None else None
        node = AJTNode(
            len(nodes), parent_node, me.predicate, F_ORIGIN, _eq_from_atoms(me, father)
        )
        nodes.append(node)
        node_of_db[db_index] = node.node_id
        producer_node.setdefault(me, node.node_id)

    for trigger in derivation.steps:
        guard = guard_of(trigger.tgd)
        if guard is None:
            raise ValueError(f"TGD {trigger.tgd} is not guarded")
        guard_image = guard.apply(trigger.h)
        if guard_image not in producer_node:
            raise ValueError(f"no node carries the guard image {guard_image}")
        parent_node = producer_node[guard_image]
        me = trigger.result()
        node = AJTNode(
            len(nodes),
            parent_node,
            me.predicate,
            trigger.tgd,
            _eq_from_atoms(me, guard_image),
        )
        nodes.append(node)
        producer_node.setdefault(me, node.node_id)

    return AbstractJoinTree(nodes, schema)
