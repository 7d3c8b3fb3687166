"""The weakly restricted chase and the Extract procedure (Appendix C.2/C.3).

The Treeification proof watches a restricted chase derivation "through
distorting mirrors": a single chase step is seen as the simultaneous
generation of several mirror-image atoms.  Definition C.4 formalizes this
as the *weakly restricted chase*: a chase on **multiset** instances where a
*set* of active triggers is applied per step.  The ``Extract(K, T)``
procedure then linearizes such a multiset run back into an ordinary
restricted chase derivation, stopping (and discarding, with all their
guard-descendants) the occurrences whose trigger is no longer active.

Occurrences are anchored: each derived occurrence records which occurrence
of its (guard-)parent atom it mirrors, giving the per-occurrence ``≺gp``
forest the proof needs.

The runner shares the kernel machinery of :mod:`repro.chase.engine`:
triggers are discovered incrementally from the atoms each round commits,
activity is answered by the head-witness cache, and anchor occurrences are
found through an atom → occurrence-ids index instead of a scan.
Occurrence ids are allocated in creation order over insertion-ordered
rounds and nulls are digest-determined, so runs — and their ``Extract``
linearizations — are byte-identical across repetitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.chase.checkpoint import Budget
from repro.chase.derivation import Derivation
from repro.chase.engine import HeadWitnessIndex
from repro.errors import ChaseInterrupted
from repro.chase.plans import RuleTables
from repro.chase.trigger import Trigger, is_active, round_triggers
from repro.core.homomorphism import is_homomorphism
from repro.tgds.guardedness import guard_index
from repro.tgds.tgd import TGD
from repro.util import graphs


class WROccurrence:
    """One occurrence of an atom in the weakly restricted chase multiset."""

    __slots__ = ("occ_id", "atom", "round_index", "trigger", "anchor_parent", "root_depth")

    def __init__(
        self,
        occ_id: int,
        atom: Atom,
        round_index: int,
        trigger: Optional[Trigger],
        anchor_parent: Optional[int],
        root_depth: int,
    ):
        self.occ_id = occ_id
        self.atom = atom
        self.round_index = round_index
        #: The trigger that generated this occurrence (None for roots).
        self.trigger = trigger
        #: The occurrence id of the mirrored (guard-)parent (None for roots).
        self.anchor_parent = anchor_parent
        #: ``depth`` of the root database occurrence this one descends from.
        self.root_depth = root_depth

    @property
    def is_root(self) -> bool:
        return self.trigger is None

    def __repr__(self) -> str:
        return f"WROcc#{self.occ_id}[{self.atom} @r{self.round_index}]"


class WeaklyRestrictedChase:
    """A bounded run of the weakly restricted chase (Definition C.4).

    Each round applies *every* currently active trigger once per occurrence
    of its anchor atom (the guard image for guarded TGDs, the first body
    atom image otherwise), creating one occurrence per (trigger, anchor
    occurrence) pair — the "mirror images" of the proof.
    """

    def __init__(
        self,
        roots: Iterable[Tuple[Atom, int]],
        tgds: Sequence[TGD],
    ):
        """``roots``: (atom, depth) pairs — the multiset database ``D_ac``

        with the ``depth`` labels of the treeification construction (use 0
        when depths are irrelevant).

        Triggers are discovered by :func:`round_triggers` over the rule
        list's tables, built once here: first over the roots as one delta,
        then over each round's committed atoms.
        Active-trigger selection sorts canonically, so discovery order
        never shows in a run."""
        self.tgds = tuple(tgds)
        self._tables = RuleTables.of(self.tgds)
        self.occurrences: List[WROccurrence] = []
        self._applied: Set[tuple] = set()
        self._atom_view = Instance()
        self._occ_ids_by_atom: Dict[Atom, List[int]] = {}
        self._witnesses = HeadWitnessIndex(self._tables, self._atom_view)
        self._triggers: Dict[tuple, Trigger] = {}
        #: Rounds committed so far, over every :meth:`run` call: the next
        #: round's occurrences carry ``round_index == rounds + 1``, so a run
        #: split across calls labels them as one unsplit run would.
        self.rounds = 0
        self._commit(
            WROccurrence(index, atom, 0, None, None, depth)
            for index, (atom, depth) in enumerate(roots)
        )

    def _anchor_index(self, tgd: TGD) -> int:
        """Body index of the anchor atom: the guard when guarded, else 0."""
        try:
            return guard_index(tgd)
        except ValueError:
            return 0

    def atom_view(self) -> Instance:
        """The set-semantics view of the current multiset."""
        return self._atom_view.copy()

    def _active_triggers(self) -> List[Trigger]:
        """Currently active triggers, canonically ordered (witness-cache check)."""
        return sorted(
            (t for t in self._triggers.values() if not self._witnesses.witnessed(t)),
            key=lambda t: t.canonical_key,
        )

    def run(
        self,
        rounds: int,
        max_occurrences: int = 50_000,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Run ``rounds`` weakly restricted steps.

        Returns True when a fixpoint was reached (no active trigger is
        left, also when the last allowed round reached it), False when the
        round or occurrence budget was exhausted first.  A :class:`Budget` limit binding at a round boundary raises
        :class:`repro.errors.ChaseInterrupted` instead (partial records the
        occurrence count; the object itself stays usable — committed rounds
        are never rolled back).
        """
        if budget is not None:
            budget.start()
        for _ in range(rounds):
            if budget is not None:
                if budget.rounds_exhausted():
                    raise ChaseInterrupted(
                        "budget:rounds",
                        partial={"occurrences": len(self.occurrences)},
                    )
                reason = budget.exceeded(len(self.occurrences))
                if reason is not None:
                    raise ChaseInterrupted(
                        reason, partial={"occurrences": len(self.occurrences)}
                    )
            active = self._active_triggers()
            if not active:
                return True
            round_index = self.rounds + 1
            new_occurrences: List[WROccurrence] = []
            for trigger in active:
                anchor_index = self._anchor_index(trigger.tgd)
                anchor_atom = trigger.tgd.body[anchor_index].apply(trigger.h)
                for anchor_id in self._occ_ids_by_atom.get(anchor_atom, ()):
                    key = (trigger.key, anchor_id)
                    if key in self._applied:
                        continue
                    self._applied.add(key)
                    occ = WROccurrence(
                        len(self.occurrences) + len(new_occurrences),
                        trigger.result(),
                        round_index,
                        trigger,
                        anchor_id,
                        self.occurrences[anchor_id].root_depth,
                    )
                    new_occurrences.append(occ)
                    if len(self.occurrences) + len(new_occurrences) > max_occurrences:
                        self._commit(new_occurrences)
                        self.rounds = round_index
                        return False
            if not new_occurrences:
                return True
            self._commit(new_occurrences)
            self.rounds = round_index
            if budget is not None:
                budget.charge_round()
        return not self._active_triggers()

    def _commit(self, new_occurrences: Iterable[WROccurrence]) -> None:
        start = self._atom_view.next_birth()
        for occ in new_occurrences:
            self.occurrences.append(occ)
            self._occ_ids_by_atom.setdefault(occ.atom, []).append(occ.occ_id)
            if self._atom_view.add(occ.atom):
                self._witnesses.note(occ.atom)
        for trigger in round_triggers(self._tables, self._atom_view, start):
            self._triggers.setdefault(trigger.key, trigger)

    def anchor_children(self) -> graphs.Graph:
        """The anchor-children graph: ``occ_id -> occurrences anchored at it``."""
        return graphs.make_graph(
            (occ.anchor_parent, occ.occ_id)
            for occ in self.occurrences
            if occ.anchor_parent is not None
        )

    def anchor_descendants(self, occ_id: int) -> Set[int]:
        """All occurrences whose anchor-ancestor chain passes ``occ_id``."""
        return graphs.reachable_from(self.anchor_children(), [occ_id]) - {occ_id}


def extract_derivation(chase: WeaklyRestrictedChase) -> Derivation:
    """The ``Extract(K, T)`` procedure (Appendix C.2, boxed algorithm).

    Walks the occurrences in the canonical order (round, root depth, id);
    each occurrence whose trigger is still an *active* trigger on the
    instance built so far is born (one restricted chase step); otherwise it
    is stopped together with all its anchor-descendants.  The result is, by
    Lemma C.7, a genuine restricted chase derivation of the root multiset's
    atom set.
    """
    roots = [occ for occ in chase.occurrences if occ.is_root]
    derived = sorted(
        (occ for occ in chase.occurrences if not occ.is_root),
        key=lambda occ: (occ.round_index, occ.root_depth, occ.occ_id),
    )
    initial = Instance(occ.atom for occ in roots)
    current = initial.copy()
    steps: List[Trigger] = []
    stopped: Set[int] = set()
    # One graph for the whole walk.  An occurrence comes after its anchor
    # (a later round), so a stopped occurrence's descendants are all still
    # ahead and no two stopped subtrees overlap.
    children = chase.anchor_children()
    for occ in derived:
        if occ.occ_id in stopped:
            continue
        trigger = occ.trigger
        assert trigger is not None
        mapping = {v: trigger.h[v] for v in trigger.tgd.body_variables()}
        body_present = is_homomorphism(mapping, trigger.tgd.body, current)
        if body_present and is_active(trigger, current):
            current.add(occ.atom)
            steps.append(trigger)
        else:
            stopped |= graphs.reachable_from(children, [occ.occ_id])
    return Derivation(initial, steps)
