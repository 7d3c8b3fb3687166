"""Join trees and instance acyclicity (Definition 5.4).

An instance is *acyclic* if it admits a join tree: a tree over its atoms in
which, for every term, the atoms containing that term induce a connected
subtree.  We implement the classical GYO (Graham / Yu–Özsoyoğlu) ear
reduction, which both decides acyclicity and produces a join tree.

Atoms are addressed by index so multiset databases (the treeification's
``D_ac``, where equal atoms may occur twice "for different reasons") are
supported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Term


class JoinTree:
    """A join tree over an indexed list of atoms."""

    def __init__(self, atoms: Sequence[Atom], edges: Set[Tuple[int, int]]):
        self.atoms: List[Atom] = list(atoms)
        #: Undirected edges as (smaller index, larger index) pairs.
        self.edges: Set[Tuple[int, int]] = {
            (min(a, b), max(a, b)) for a, b in edges
        }

    def neighbors(self, index: int) -> Set[int]:
        out: Set[int] = set()
        for a, b in self.edges:
            if a == index:
                out.add(b)
            elif b == index:
                out.add(a)
        return out

    def is_tree(self) -> bool:
        """Connected and acyclic (ignoring the empty/singleton edge cases)."""
        n = len(self.atoms)
        if n <= 1:
            return not self.edges
        if len(self.edges) != n - 1:
            return False
        seen: Set[int] = set()
        stack = [0]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.neighbors(node) - seen)
        return len(seen) == n

    def connectedness_violations(self) -> List[Term]:
        """Terms whose atom set does not induce a connected subtree

        (condition (2) of Definition 5.4); empty iff this is a join tree."""
        violations: List[Term] = []
        terms: Set[Term] = set()
        for atom in self.atoms:
            terms.update(atom.terms)
        for term in sorted(terms, key=Term.sort_key):
            holders = {i for i, atom in enumerate(self.atoms) if term in atom.terms}
            if len(holders) <= 1:
                continue
            start = next(iter(holders))
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor in self.neighbors(node):
                    if neighbor in holders and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            if seen != holders:
                violations.append(term)
        return violations

    def is_join_tree(self) -> bool:
        return self.is_tree() and not self.connectedness_violations()

    def __repr__(self) -> str:
        return f"JoinTree({len(self.atoms)} atoms, {len(self.edges)} edges)"


def gyo_join_tree(atoms: Sequence[Atom]) -> Optional[JoinTree]:
    """GYO ear reduction: a join tree for the atom list, or None when cyclic.

    An atom is an *ear* when its "shared" terms (terms also occurring in
    another remaining atom) are all covered by a single other remaining atom
    (its witness), or when it shares nothing.  Acyclic iff ears can be
    removed down to one atom.
    """
    atoms = list(atoms)
    if not atoms:
        return JoinTree([], set())
    remaining: Set[int] = set(range(len(atoms)))
    edges: Set[Tuple[int, int]] = set()
    progress = True
    while len(remaining) > 1 and progress:
        progress = False
        for candidate in sorted(remaining):
            others = remaining - {candidate}
            candidate_terms = set(atoms[candidate].terms)
            shared = {
                t
                for t in candidate_terms
                if any(t in atoms[o].terms for o in others)
            }
            if not shared:
                # Isolated component: attach to an arbitrary survivor so the
                # result is a tree; connectedness is unaffected (no shared
                # terms).
                witness = min(others)
                edges.add((min(candidate, witness), max(candidate, witness)))
                remaining.discard(candidate)
                progress = True
                break
            witness = None
            for other in sorted(others):
                if shared <= set(atoms[other].terms):
                    witness = other
                    break
            if witness is not None:
                edges.add((min(candidate, witness), max(candidate, witness)))
                remaining.discard(candidate)
                progress = True
                break
    if len(remaining) > 1:
        return None
    return JoinTree(atoms, edges)


def is_acyclic_atoms(atoms: Sequence[Atom]) -> bool:
    """Hypergraph acyclicity of an atom list (multiset-safe)."""
    return gyo_join_tree(atoms) is not None


def is_acyclic_instance(instance: Instance) -> bool:
    """Is the instance acyclic in the sense of Definition 5.4?"""
    return is_acyclic_atoms(instance.sorted_atoms())
