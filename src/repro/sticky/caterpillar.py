"""Caterpillars as first-class finite-prefix objects (Definitions 6.2–6.8).

A (proto-)caterpillar is an infinite "path-like" chase: legs ``L``, a body
``(α_i)``, triggers ``(σ_i, h_i)`` and matched body atoms ``(γ_i)`` with
``α_i = h_{i+1}(γ_{i+1})`` and ``α_{i+1} = result(σ_{i+1}, h_{i+1})``.  We
represent finite prefixes and validate every defining condition:

* proto-caterpillar conditions (Definition 6.2);
* caterpillar stop-freedom (Definition 6.3): legs never stop body atoms,
  and earlier body atoms never stop later ones;
* connectedness (Definition 6.6): relay terms are born at the pass-on
  points, survive between them, and avoid immortal positions;
* uniform connectedness (Definition 6.7): bounded pass-on gaps;
* freeness (Definition 6.8): terms are equal iff *provably* equal via the
  related-positions closure ``≃*`` over ``L ∪ B``.

The sticky decision extracts witnesses in automaton form; this module lets
tests (and users) confirm those witnesses really are caterpillars.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Term
from repro.chase.relations import stops_atom
from repro.chase.trigger import Trigger
from repro.sticky.alphabet import CaterpillarSymbol
from repro.tgds.stickiness import StickinessAnalysis
from repro.tgds.tgd import TGD
from repro.util.unionfind import UnionFind

AtomRef = Tuple[str, int]
"""('leg', i) or ('body', i): an atom of ``L ∪ B`` by index."""


class CaterpillarPrefix:
    """A finite prefix of a caterpillar for a TGD set."""

    def __init__(
        self,
        tgds: Sequence[TGD],
        legs: Sequence[Atom],
        body: Sequence[Atom],
        triggers: Sequence[Trigger],
        gamma_indices: Sequence[int],
    ):
        """``body[0]`` is ``α0``; for i >= 1, ``triggers[i-1]`` produced

        ``body[i]`` by matching body atom ``gamma_indices[i-1]`` of its TGD
        against ``body[i-1]``."""
        self.tgds = tuple(tgds)
        self.legs = list(legs)
        self.body = list(body)
        self.triggers = list(triggers)
        self.gamma_indices = list(gamma_indices)
        if len(self.body) != len(self.triggers) + 1:
            raise ValueError("need exactly one trigger per body step")
        if len(self.triggers) != len(self.gamma_indices):
            raise ValueError("need one γ choice per trigger")

    @staticmethod
    def from_word(
        tgds: Sequence[TGD],
        first_atom: Atom,
        word: Sequence[CaterpillarSymbol],
        initial: Instance,
        triggers: Sequence[Trigger],
    ) -> "CaterpillarPrefix":
        """Assemble a prefix from a decoded lasso instantiation."""
        body = [first_atom]
        for trigger in triggers:
            body.append(trigger.result())
        legs = [atom for atom in initial.sorted_atoms() if atom != first_atom]
        gamma_indices = [symbol.body_index for symbol in word[: len(triggers)]]
        return CaterpillarPrefix(tgds, legs, body, triggers, gamma_indices)

    # -- Definition 6.2 -------------------------------------------------------

    def proto_violations(self) -> List[str]:
        """Check conditions (1)-(3) of Definition 6.2 on the prefix."""
        problems: List[str] = []
        leg_instance = Instance(self.legs)
        for i, trigger in enumerate(self.triggers):
            available = leg_instance.copy()
            available.add(self.body[i])
            # (1) the trigger is a trigger on L ∪ {α_i}.
            for body_atom in trigger.tgd.body:
                if body_atom.apply(trigger.h) not in available:
                    problems.append(
                        f"step {i}: {body_atom.apply(trigger.h)} not in L ∪ {{α_{i}}}"
                    )
            # (2) α_i = h_{i+1}(γ_{i+1}).
            gamma = trigger.tgd.body[self.gamma_indices[i]]
            if gamma.apply(trigger.h) != self.body[i]:
                problems.append(f"step {i}: γ image is not α_{i}")
            # (3) α_{i+1} = result(σ_{i+1}, h_{i+1}).
            if trigger.result() != self.body[i + 1]:
                problems.append(f"step {i}: result mismatch at α_{i + 1}")
        return problems

    # -- Definition 6.3 -------------------------------------------------------

    def caterpillar_violations(self) -> List[str]:
        """Stop-freedom: legs never stop body atoms; no forward body stop."""
        problems: List[str] = []
        frontiers = self._body_frontiers()
        for i in range(1, len(self.body)):
            for leg in self.legs:
                if stops_atom(leg, self.body[i], frontiers[i]):
                    problems.append(f"leg {leg} stops α_{i} (condition 1)")
        for i in range(len(self.body)):
            for j in range(i + 1, len(self.body)):
                if j == 0:
                    continue
                if stops_atom(self.body[i], self.body[j], frontiers[j]):
                    problems.append(f"α_{i} stops α_{j} (condition 2)")
        return problems

    def _body_frontiers(self) -> List[FrozenSet[Term]]:
        """``fr(α_i)`` per body atom (empty for α0, which has no trigger)."""
        frontiers: List[FrozenSet[Term]] = [frozenset()]
        for trigger in self.triggers:
            frontiers.append(frozenset(trigger.result_frontier_terms()))
        return frontiers

    # -- Definition 6.8 (freeness) --------------------------------------------

    def provable_equality(self) -> UnionFind:
        """The closure ``≃*`` over the positions of ``L ∪ B``.

        Related positions: (i) within ``result(σ,h)``, positions of the same
        head variable; (ii) between any body atom of ``σ``'s image (spine or
        leg) and the result, positions sharing a variable.
        """
        uf = UnionFind()
        for index, atom in enumerate(self.legs):
            for position in range(1, atom.arity + 1):
                uf.add((("leg", index), position))
        for index, atom in enumerate(self.body):
            for position in range(1, atom.arity + 1):
                uf.add((("body", index), position))
        leg_refs: Dict[Atom, List[AtomRef]] = {}
        for index, atom in enumerate(self.legs):
            leg_refs.setdefault(atom, []).append(("leg", index))
        for i, trigger in enumerate(self.triggers):
            head = trigger.tgd.head
            result_ref: AtomRef = ("body", i + 1)
            # (α, i) ≃ (α, j) for repeated head variables.
            for p in range(1, head.arity + 1):
                for q in range(p + 1, head.arity + 1):
                    if head.at(p) == head.at(q):
                        uf.union((result_ref, p), (result_ref, q))
            for body_index, body_atom in enumerate(trigger.tgd.body):
                image = body_atom.apply(trigger.h)
                if body_index == self.gamma_indices[i]:
                    refs: List[AtomRef] = [("body", i)]
                else:
                    refs = leg_refs.get(image, [])
                for ref in refs:
                    for p in range(1, body_atom.arity + 1):
                        for q in range(1, head.arity + 1):
                            if body_atom.at(p) == head.at(q):
                                uf.union((ref, p), (result_ref, q))
        return uf

    def freeness_violations(self) -> List[str]:
        """Pairs equal-but-not-provably-equal (Definition 6.8 failures)."""
        uf = self.provable_equality()
        atoms: List[Tuple[AtomRef, Atom]] = [
            (("leg", i), atom) for i, atom in enumerate(self.legs)
        ] + [(("body", i), atom) for i, atom in enumerate(self.body)]
        by_term: Dict[Term, List[Tuple[AtomRef, int]]] = {}
        for ref, atom in atoms:
            for position in range(1, atom.arity + 1):
                by_term.setdefault(atom.at(position), []).append((ref, position))
        problems: List[str] = []
        for term, occurrences in sorted(by_term.items(), key=lambda kv: kv[0].sort_key()):
            anchor = occurrences[0]
            for other in occurrences[1:]:
                if not uf.same(anchor, other):
                    problems.append(
                        f"{term!r} at {anchor} and {other} equal but not "
                        f"provably equal"
                    )
        return problems

    # -- Definitions 6.6 / 6.7 (connectedness) --------------------------------

    def connectedness_violations(
        self, birth_steps: Sequence[int], relay_positions: Sequence[FrozenSet[int]]
    ) -> List[str]:
        """Check the relay-race structure of Definition 6.6 on the prefix.

        ``birth_steps[k]`` is the body index where the k-th relay term is
        born and ``relay_positions[k]`` its positions there; the 0-th relay
        term lives in ``α0``, so ``birth_steps[0]`` must be 0 (with
        ``relay_positions[0] = Π0``).
        """
        problems: List[str] = []
        marking = StickinessAnalysis(self.tgds)
        tgd_index = {tgd: i for i, tgd in enumerate(self.tgds)}
        boundaries = list(birth_steps) + [len(self.body) - 1]
        if boundaries[0] != 0:
            problems.append("the 0-th relay term must live in α0")
            return problems
        for k in range(len(boundaries) - 1):
            birth = boundaries[k]
            horizon = boundaries[k + 1]
            positions = relay_positions[k]
            relay_terms = {self.body[birth].at(p) for p in positions}
            if len(relay_terms) != 1:
                problems.append(f"relay {k}: positions {sorted(positions)} disagree")
                continue
            relay = next(iter(relay_terms))
            for i in range(birth, horizon + 1):
                if relay not in self.body[i].term_set():
                    problems.append(
                        f"relay {k} ({relay!r}) lost before the next pass-on "
                        f"at α_{i}"
                    )
                    break
            # Condition (4): never at an immortal position.
            for i in range(1, len(self.body)):
                trigger = self.triggers[i - 1]
                t_index = tgd_index[trigger.tgd]
                for position in range(1, self.body[i].arity + 1):
                    if self.body[i].at(position) != relay:
                        continue
                    if marking.is_immortal_position(t_index, position):
                        problems.append(
                            f"relay {k} at immortal position {position} of α_{i}"
                        )
        return problems

    def max_pass_on_gap(self, pass_on_steps: Sequence[int]) -> int:
        """The largest gap between consecutive pass-on points (Definition 6.7)."""
        points = [0] + list(pass_on_steps) + [len(self.body) - 1]
        return max(
            (b - a for a, b in zip(points, points[1:])),
            default=0,
        )

    def __repr__(self) -> str:
        return (
            f"CaterpillarPrefix({len(self.legs)} legs, "
            f"{len(self.body)} body atoms)"
        )


def prefix_from_witness(tgds: Sequence[TGD], witness) -> CaterpillarPrefix:
    """Build a :class:`CaterpillarPrefix` from a sticky-decision witness."""
    lasso = witness.lasso
    word = lasso.word_prefix(len(witness.derivation.steps))
    first_atom = None
    for atom in witness.initial.sorted_atoms():
        if atom.predicate == witness.start_etype.predicate:
            from repro.core.equality import EqualityType

            if EqualityType.of_atom(atom) == witness.start_etype:
                first_atom = atom
                break
    if first_atom is None:
        raise ValueError("cannot locate α0 in the witness initial instance")
    return CaterpillarPrefix.from_word(
        tgds, first_atom, word, witness.initial, witness.derivation.steps
    )


def pass_on_data(
    word: Sequence[CaterpillarSymbol],
) -> Tuple[List[int], List[FrozenSet[int]]]:
    """Extract (pass-on steps, relay positions) from a caterpillar word.

    Step ``i`` of the word produces body atom ``i+1``; a symbol with
    non-empty ``P`` makes that body atom a birth atom.
    """
    steps: List[int] = []
    positions: List[FrozenSet[int]] = []
    for i, symbol in enumerate(word):
        if symbol.is_pass_on:
            steps.append(i + 1)
            positions.append(frozenset(symbol.passes_on))
    return steps, positions
