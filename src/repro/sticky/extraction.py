"""Extracting caterpillars from derivations (Section 6.2, Steps 1–2).

The interesting direction of Theorem 6.5 starts from an infinite restricted
chase derivation and distills a connected proto-caterpillar:

* **term parents** ``c ≺tp c'``: ``c`` occurs in the frontier of the birth
  atom of ``c'`` (it was propagated by the trigger that invented ``c'``);
* **rank**: database constants have rank 0; a null's rank is one more than
  the maximum rank of its term parents; the **favourite parent** is one of
  minimum-possible rank (rank - 1);
* the favourite-parent relation forms a forest of finite out-degree; König
  gives an infinite chain ``c0 ≺tfp c1 ≺tfp ...`` — the relay terms;
* the body of the proto-caterpillar is the concatenation of parent paths
  connecting consecutive birth atoms; everything else those triggers used
  becomes a leg (Step 1, the ♣);
* dropping the prefix in which relay terms still visit immortal positions
  yields the connected proto-caterpillar (Step 2, the ♠).

On finite prefixes the chain is the *longest* favourite-parent chain; all
outputs are packaged as :class:`repro.sticky.caterpillar.CaterpillarPrefix`
plus the relay data, so the Definition 6.2/6.6 validators certify them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Null, Term
from repro.chase.derivation import Derivation
from repro.chase.trigger import Trigger
from repro.sticky.caterpillar import CaterpillarPrefix
from repro.errors import ExtractionError
from repro.tgds.stickiness import StickinessAnalysis
from repro.tgds.tgd import TGD


class TermGenealogy:
    """Birth atoms, term parents, ranks, and favourite parents of a prefix."""

    def __init__(self, database: Instance, derivation: Derivation):
        self.database = database
        self.derivation = derivation
        #: null -> index of the step whose result invented it.
        self.birth_step: Dict[Term, int] = {}
        #: step index -> frontier terms of its result atom.
        self._frontiers: List[FrozenSet[Term]] = []
        seen: Set[Term] = set(database.domain())
        for index, trigger in enumerate(derivation.steps):
            self._frontiers.append(frozenset(trigger.result_frontier_terms()))
            for term in trigger.result().terms:
                if isinstance(term, Null) and term not in seen:
                    seen.add(term)
                    self.birth_step[term] = index
        self._rank_cache: Dict[Term, int] = {}

    def birth_atom(self, null: Term) -> Atom:
        """``β^B(c)``: the atom that invented ``c``."""
        return self.derivation.steps[self.birth_step[null]].result()

    def term_parents(self, null: Term) -> Set[Term]:
        """``{c : c ≺tp null}``: the frontier terms of the birth atom."""
        return set(self._frontiers[self.birth_step[null]])

    def rank(self, term: Term) -> int:
        """Rank w.r.t. the derivation (Section 6.2, Step 1)."""
        if term in self._rank_cache:
            return self._rank_cache[term]
        if term not in self.birth_step:
            self._rank_cache[term] = 0  # database term
            return 0
        parents = self.term_parents(term)
        value = 1 + max((self.rank(p) for p in parents), default=0)
        self._rank_cache[term] = value
        return value

    def favourite_parent(self, null: Term) -> Optional[Term]:
        """``c ≺tfp null``: a parent of rank exactly ``rank(null) - 1``.

        Deterministic (lexicographically smallest); None for rank-0 terms.
        """
        if null not in self.birth_step:
            return None
        wanted = self.rank(null) - 1
        candidates = sorted(
            (p for p in self.term_parents(null) if self.rank(p) == wanted),
            key=Term.sort_key,
        )
        return candidates[0] if candidates else None

    def longest_favourite_chain(self) -> List[Term]:
        """The longest chain ``c0 ≺tfp c1 ≺tfp ...`` in the prefix.

        The finite stand-in for the König path of the proof; starts at a
        rank-0 term.
        """
        children: Dict[Term, List[Term]] = {}
        for null in self.birth_step:
            parent = self.favourite_parent(null)
            if parent is not None:
                children.setdefault(parent, []).append(null)
        for sibling_list in children.values():
            sibling_list.sort(key=Term.sort_key)

        memo: Dict[Term, List[Term]] = {}

        def longest_from(term: Term) -> List[Term]:
            if term in memo:
                return memo[term]
            best: List[Term] = []
            for child in children.get(term, []):
                candidate = longest_from(child)
                if len(candidate) > len(best):
                    best = candidate
            memo[term] = [term] + best
            return memo[term]

        roots = sorted(
            {t for t in children if self.rank(t) == 0}, key=Term.sort_key
        )
        best: List[Term] = []
        for root in roots:
            candidate = longest_from(root)
            if len(candidate) > len(best):
                best = candidate
        return best


def _producer_map(database: Instance, derivation: Derivation) -> Dict[Atom, int]:
    """atom -> producing step index (database atoms map to -1)."""
    producers: Dict[Atom, int] = {atom: -1 for atom in database}
    for index, trigger in enumerate(derivation.steps):
        producers.setdefault(trigger.result(), index)
    return producers


def _parent_path_to(
    genealogy: TermGenealogy,
    producers: Dict[Atom, int],
    carrier: Term,
    from_atom: Atom,
    to_step: int,
) -> List[int]:
    """Step indices of a ``≺p``-path from ``from_atom`` up to step ``to_step``,

    walking parents that carry ``carrier`` (exclusive of ``from_atom``,
    inclusive of ``to_step``).  The path exists because a null only occurs
    in (descendants of) its birth atom."""
    derivation = genealogy.derivation
    path: List[int] = []
    current_step = to_step
    while True:
        path.append(current_step)
        trigger = derivation.steps[current_step]
        body_images = [a.apply(trigger.h) for a in trigger.tgd.body]
        if from_atom in body_images:
            break
        candidates = [
            producers[image]
            for image in body_images
            if carrier in image.term_set() and producers.get(image, -1) >= 0
        ]
        candidates = [c for c in candidates if c < current_step]
        if not candidates:
            raise ExtractionError(
                f"no parent of step {current_step} carries {carrier!r}"
            )
        current_step = max(candidates)
    path.reverse()
    return path


def extract_proto_caterpillar(
    database: Instance,
    tgds: Sequence[TGD],
    derivation: Derivation,
    min_chain: int = 3,
) -> Tuple[CaterpillarPrefix, List[int], List[FrozenSet[int]]]:
    """Steps 1–2 of Section 6.2 on a finite prefix.

    Returns ``(prefix, birth_steps, relay_positions)`` where ``prefix`` is
    the extracted proto-caterpillar (with connectedness data aligned to
    the Definition 6.6 validator: ``birth_steps[0] == 0``).  Raises
    :class:`ExtractionError` when no favourite-parent chain of length
    ``min_chain`` exists in the prefix (the derivation is too short or the
    set does not produce deepening terms).
    """
    genealogy = TermGenealogy(database, derivation)
    chain = genealogy.longest_favourite_chain()
    if len(chain) < min_chain:
        raise ExtractionError(
            f"longest favourite-parent chain has length {len(chain)} < {min_chain}"
        )
    producers = _producer_map(database, derivation)

    # Step 2 applied up-front: drop chain prefixes whose terms visit
    # immortal positions anywhere in the derivation.
    marking = StickinessAnalysis(tgds)
    tgd_index = {tgd: i for i, tgd in enumerate(tgds)}

    def is_mortal_everywhere(term: Term) -> bool:
        for trigger in derivation.steps:
            result = trigger.result()
            for position in range(1, result.arity + 1):
                if result.at(position) != term:
                    continue
                if marking.is_immortal_position(tgd_index[trigger.tgd], position):
                    return False
        return True

    start = 0
    for index, term in enumerate(chain):
        if index == 0:
            continue  # rank-0 anchor: occurrences in D are unconstrained
        if not is_mortal_everywhere(term):
            start = index
    chain = chain[max(start, 0):] if start == 0 else chain[start + 1:]
    if len(chain) < 2:
        raise ExtractionError("chain collapsed after the immortality cut")

    # The body: parent paths connecting consecutive birth atoms.
    relay_terms = chain
    first = relay_terms[0]
    if first in genealogy.birth_step:
        anchor_atom = genealogy.birth_atom(first)
        step_sequence: List[int] = [genealogy.birth_step[first]]
    else:
        anchor_atom = next(
            atom for atom in database.sorted_atoms() if first in atom.term_set()
        )
        step_sequence = []
    current_atom = anchor_atom
    for next_term in relay_terms[1:]:
        to_step = genealogy.birth_step[next_term]
        segment = _parent_path_to(
            genealogy, producers, relay_terms[relay_terms.index(next_term) - 1],
            current_atom, to_step,
        )
        step_sequence.extend(segment)
        current_atom = derivation.steps[to_step].result()

    body_atoms: List[Atom] = [anchor_atom]
    triggers: List[Trigger] = []
    gamma_indices: List[int] = []
    legs: List[Atom] = []
    for step in step_sequence:
        trigger = derivation.steps[step]
        previous = body_atoms[-1]
        body_images = [a.apply(trigger.h) for a in trigger.tgd.body]
        if previous not in body_images:
            raise ExtractionError(
                f"step {step} does not consume the previous body atom"
            )
        gamma_indices.append(body_images.index(previous))
        for image_index, image in enumerate(body_images):
            if image_index != gamma_indices[-1]:
                legs.append(image)
        triggers.append(trigger)
        body_atoms.append(trigger.result())

    unique_legs: List[Atom] = []
    seen_legs: Set[Atom] = set()
    for leg in legs:
        if leg not in seen_legs:
            seen_legs.add(leg)
            unique_legs.append(leg)

    prefix = CaterpillarPrefix(tgds, unique_legs, body_atoms, triggers, gamma_indices)

    birth_steps = [0]
    relay_positions: List[FrozenSet[int]] = [
        frozenset(anchor_atom.positions_of(relay_terms[0]))
    ]
    for term in relay_terms[1:]:
        birth_atom = genealogy.birth_atom(term)
        birth_steps.append(body_atoms.index(birth_atom))
        relay_positions.append(frozenset(birth_atom.positions_of(term)))
    return prefix, birth_steps, relay_positions
