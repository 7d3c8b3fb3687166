"""Chase derivations: recorded trigger sequences with validation.

A restricted chase derivation (Section 3.2) is a sequence of instances
``I0, I1, ...`` where each step applies an *active* trigger.  We record the
initial instance and the trigger sequence; the intermediate instances are
recomputable.  Validation re-checks, step by step, that each trigger was a
trigger on the current instance and active — tests use this to certify
every derivation any component produces.

Derivations are byte-comparable across engines: trigger identity is the
digest-determined ``(σ, h)`` pair (null names included), so two runs that
apply the same logical steps record *equal* derivations — this is the
object the CI equivalence gates diff when they demand "byte-identical
derivations" between the FIFO, semi-naive, and resumed engines.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import is_homomorphism
from repro.core.instance import Instance
from repro.chase.trigger import Trigger, active_triggers_on, is_active, triggers_on
from repro.errors import DerivationError
from repro.tgds.tgd import TGD

__all__ = ["Derivation", "DerivationError"]


class Derivation:
    """A finite (prefix of a) restricted chase derivation."""

    def __init__(self, initial: Instance, steps: Optional[Sequence[Trigger]] = None):
        self.initial = initial.copy()
        self.steps: List[Trigger] = list(steps) if steps else []

    def __len__(self) -> int:
        return len(self.steps)

    def append(self, trigger: Trigger) -> None:
        self.steps.append(trigger)

    def atoms_added(self) -> List[Atom]:
        """The result atoms, in derivation order."""
        return [t.result() for t in self.steps]

    def instances(self) -> Iterator[Instance]:
        """Yield ``I0, I1, ..., In`` (each a fresh copy)."""
        current = self.initial.copy()
        yield current.copy()
        for trigger in self.steps:
            current.add(trigger.result())
            yield current.copy()

    def instance_at(self, index: int) -> Instance:
        """``I_index`` (0 is the initial instance)."""
        if not 0 <= index <= len(self.steps):
            raise IndexError(f"no instance {index} in a {len(self.steps)}-step derivation")
        current = self.initial.copy()
        for trigger in self.steps[:index]:
            current.add(trigger.result())
        return current

    def final_instance(self) -> Instance:
        return self.instance_at(len(self.steps))

    def validate(self, tgds: Sequence[TGD], require_terminal: bool = False) -> None:
        """Re-check every step; raise :class:`DerivationError` on violation.

        With ``require_terminal`` also checks that no active trigger remains
        on the final instance (i.e. the derivation is a complete finite
        restricted chase derivation, not just a prefix).
        """
        tgd_set = set(tgds)
        current = self.initial.copy()
        for index, trigger in enumerate(self.steps):
            if trigger.tgd not in tgd_set:
                raise DerivationError(f"step {index}: TGD {trigger.tgd} not in the set")
            mapping = {v: trigger.h[v] for v in trigger.tgd.body_variables()}
            if not is_homomorphism(mapping, trigger.tgd.body, current):
                raise DerivationError(
                    f"step {index}: {trigger} is not a trigger on I_{index}"
                )
            if not is_active(trigger, current):
                raise DerivationError(
                    f"step {index}: trigger {trigger} is not active on I_{index}"
                )
            current.add(trigger.result())
        if require_terminal:
            leftover = next(iter(active_triggers_on(tgds, current)), None)
            if leftover is not None:
                raise DerivationError(
                    f"derivation is not terminal: {leftover} is still active"
                )

    def persistent_active_triggers(self, tgds: Sequence[TGD]) -> List[Tuple[int, Trigger]]:
        """Triggers active at some ``I_i`` and *still active on the final

        instance* — the fairness suspects of this prefix (each is a pair of
        the first index where it fired as active and the trigger).  A fair
        infinite derivation must eventually deactivate each of them; a
        finite terminal derivation has none.

        Computed in one pass over the final instance instead of a trigger
        re-enumeration per prefix instance: body matches are monotone
        (atoms are only added) and activity is anti-monotone (head
        witnesses persist), so a trigger active on the final instance was
        active from the moment its body image was complete — the first
        index is the birth step of its youngest body atom."""
        final = self.final_instance()
        births: dict = {}
        for atom in self.initial:
            births[atom] = 0
        for step_index, step in enumerate(self.steps):
            births.setdefault(step.result(), step_index + 1)
        suspects: List[Tuple[int, Trigger]] = []
        for trigger in triggers_on(tgds, final):
            if not is_active(trigger, final):
                continue
            first_index = max(births[atom] for atom in trigger.body_image())
            suspects.append((first_index, trigger))
        suspects.sort(key=lambda pair: (pair[0], pair[1].canonical_key))
        return suspects

    def is_fair_prefix(self, tgds: Sequence[TGD]) -> bool:
        """True iff no trigger stays active through the whole prefix.

        For terminal derivations this is exactly fairness; for proper
        prefixes it is the finite-horizon approximation used by the
        Fairness Theorem machinery.
        """
        return not self.persistent_active_triggers(tgds)

    def __repr__(self) -> str:
        return f"Derivation({len(self.steps)} steps from {len(self.initial)} atoms)"
