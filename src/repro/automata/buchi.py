"""Deterministic Büchi automata with lazy state exploration.

The sticky decision procedure (Section 6.5) reduces ``CT_res_∀∀(S)`` to the
emptiness of a deterministic Büchi automaton.  States are arbitrary
hashable values; the transition function is a callable (so the caterpillar
automaton's exponential state space is only materialized where reachable);
emptiness is a reachable-accepting-cycle search with lasso extraction
(Observation 1's pumping argument is exactly "take the lasso").
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ChaseInterrupted, StateBudgetExceeded
from repro.util import graphs

__all__ = ["StateBudgetExceeded", "Lasso", "BuchiAutomaton"]

#: Newly explored states between two checks of an exploration's budget.
BUDGET_CHECK_STATES = 64


class Lasso:
    """An ultimately periodic word ``u · v^ω`` accepted by the automaton."""

    def __init__(self, prefix: List, cycle: List):
        self.prefix = list(prefix)
        self.cycle = list(cycle)
        if not self.cycle:
            raise ValueError("a lasso needs a non-empty cycle")

    def word_prefix(self, length: int) -> List:
        """The first ``length`` symbols of ``u v^ω``."""
        out = list(self.prefix)
        while len(out) < length:
            out.extend(self.cycle)
        return out[:length]

    def __repr__(self) -> str:
        return f"Lasso(|u|={len(self.prefix)}, |v|={len(self.cycle)})"


class BuchiAutomaton:
    """A deterministic Büchi automaton, explored on demand.

    ``transition(state, symbol)`` returns the successor state or None (dead);
    ``is_accepting(state)`` marks the Büchi acceptance set.  The alphabet is
    a finite list of hashable symbols.  An optional ``budget``
    (:class:`repro.chase.checkpoint.Budget`) is checked every
    :data:`BUDGET_CHECK_STATES` newly explored states, and again by
    :meth:`find_lasso` after exploration and after its SCC pass.

    Everything the emptiness check returns depends only on the order the
    states were explored in and on their ``repr``, never on how they hash.
    """

    def __init__(
        self,
        initial: Hashable,
        alphabet: Sequence,
        transition: Callable[[Hashable, Hashable], Optional[Hashable]],
        is_accepting: Callable[[Hashable], bool],
        max_states: int = 200_000,
        budget=None,
    ):
        self.initial = initial
        self.alphabet = list(alphabet)
        self.transition = transition
        self.is_accepting = is_accepting
        self.max_states = max_states
        self.budget = budget
        self._explored: Optional[Dict[Hashable, List[Tuple[Hashable, Hashable]]]] = None

    def explore(self) -> Dict[Hashable, List[Tuple[Hashable, Hashable]]]:
        """Materialize all reachable states: state -> [(symbol, successor)].

        Raises :class:`StateBudgetExceeded` past ``max_states`` and
        :class:`repro.errors.ChaseInterrupted` when the budget runs out.
        """
        if self._explored is not None:
            return self._explored
        edges: Dict[Hashable, List[Tuple[Hashable, Hashable]]] = {}
        edges[self.initial] = []
        pending = [self.initial]
        while pending:
            state = pending.pop()
            out: List[Tuple[Hashable, Hashable]] = []
            for symbol in self.alphabet:
                successor = self.transition(state, symbol)
                if successor is None:
                    continue
                out.append((symbol, successor))
                if successor not in edges:
                    if len(edges) >= self.max_states:
                        raise StateBudgetExceeded(
                            f"more than {self.max_states} reachable states"
                        )
                    edges[successor] = []
                    pending.append(successor)
                    if len(edges) % BUDGET_CHECK_STATES == 0:
                        self._check_budget(len(edges))
            edges[state] = out
        self._explored = edges
        return edges

    def _check_budget(self, states: int) -> None:
        """Raise :class:`ChaseInterrupted` once the budget is exhausted."""
        if self.budget is not None:
            reason = self.budget.exceeded()
            if reason is not None:
                raise ChaseInterrupted(reason, partial={"states": states})

    def reachable_states(self) -> Set[Hashable]:
        return set(self.explore())

    def accepting_states(self) -> Set[Hashable]:
        return {s for s in self.explore() if self.is_accepting(s)}

    def is_empty(self) -> bool:
        """L(A) = ∅?  (No reachable cycle through an accepting state.)"""
        return self.find_lasso() is None

    def find_lasso(self) -> Optional[Lasso]:
        """A witness ``u v^ω`` with an accepting state on the cycle, or None.

        The budget binds after exploration and after the SCC pass too: a
        search that finishes exploring in time but not the rest raises
        :class:`ChaseInterrupted` rather than answer late."""
        edges = self.explore()
        self._check_budget(len(edges))
        # Successors in edge order (a dict, not a set), so the search's
        # repr-sorted visits break repr ties by exploration order.
        graph: Dict = {
            state: dict.fromkeys(succ for _, succ in out)
            for state, out in edges.items()
        }
        components = graphs.strongly_connected_components(graph)
        order = {state: index for index, state in enumerate(edges)}
        target: Optional[Hashable] = None
        for component in components:
            has_cycle = len(component) > 1 or any(
                state in graph.get(state, ()) for state in component
            )
            if not has_cycle:
                continue
            accepting = [s for s in component if self.is_accepting(s)]
            if accepting:
                target = min(accepting, key=lambda s: (repr(s), order[s]))
                component_set = set(component)
                break
        self._check_budget(len(edges))
        if target is None:
            return None
        prefix = self._symbol_path(edges, self.initial, target, restrict=None)
        assert prefix is not None
        cycle = self._cycle_through(edges, target, component_set)
        assert cycle is not None
        return Lasso(prefix, cycle)

    @staticmethod
    def _symbol_path(
        edges: Dict,
        source: Hashable,
        goal: Hashable,
        restrict: Optional[Set[Hashable]],
    ) -> Optional[List]:
        """BFS symbol path from ``source`` to ``goal`` (empty when equal)."""
        if source == goal:
            return []
        parents: Dict[Hashable, Tuple[Hashable, Hashable]] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            next_frontier: List[Hashable] = []
            for state in frontier:
                for symbol, successor in edges.get(state, []):
                    if restrict is not None and successor not in restrict:
                        continue
                    if successor in seen:
                        continue
                    seen.add(successor)
                    parents[successor] = (state, symbol)
                    if successor == goal:
                        path: List = []
                        current = successor
                        while current != source:
                            prev, sym = parents[current]
                            path.append(sym)
                            current = prev
                        path.reverse()
                        return path
                    next_frontier.append(successor)
            frontier = next_frontier
        return None

    def _cycle_through(
        self, edges: Dict, state: Hashable, component: Set[Hashable]
    ) -> Optional[List]:
        """A non-empty symbol cycle from ``state`` back to itself inside the SCC."""
        for symbol, successor in edges.get(state, []):
            if successor == state:
                return [symbol]
            if successor in component:
                rest = self._symbol_path(edges, successor, state, restrict=component)
                if rest is not None:
                    return [symbol] + rest
        return None

    def run(self, word: Iterable) -> Tuple[List[Hashable], bool]:
        """Run on a finite word: (visited states incl. initial, survived?)."""
        states = [self.initial]
        current = self.initial
        for symbol in word:
            successor = self.transition(current, symbol)
            if successor is None:
                return states, False
            states.append(successor)
            current = successor
        return states, True

    def __repr__(self) -> str:
        explored = len(self._explored) if self._explored is not None else "unexplored"
        return f"BuchiAutomaton(|Σ|={len(self.alphabet)}, states={explored})"
