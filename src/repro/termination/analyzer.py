"""The umbrella termination analyzer.

Classifies a TGD set (linear / guarded / sticky / both / neither), then
dispatches to the strongest applicable procedure:

* sticky sets → the complete Büchi decision of Theorem 6.1;
* guarded sets → the certifying procedure of :mod:`repro.guarded.decision`
  (Theorem 5.1 modulo the documented MSOL substitution);
* anything else → syntactic certificates and the critical-database
  chase certificate only, since ``CT_res_∀∀`` is undecidable in general
  (Theorem 3.6) — plus the same replay-certified divergence search, whose
  positive answers remain sound for arbitrary single-head TGDs.

Verdicts are deterministic: the divergence suspects are chased in
candidate order, and the first pump found decides.  The cheap-first
cascade in :mod:`repro.termination.portfolio` sits in front of this
analyzer; see ``docs/TERMINATION.md``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.chase.checkpoint import Budget
from repro.guarded.decision import certify_or_pump, decide_guarded
from repro.sticky.decision import decide_sticky
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import is_jointly_acyclic, is_weakly_acyclic
from repro.tgds.guardedness import is_guarded, is_linear
from repro.tgds.stickiness import StickinessAnalysis
from repro.tgds.tgd import TGD


class Classification:
    """Syntactic class membership of a TGD set.

    Each property is computed when it is first read, so the analyzer's
    dispatch pays only for the classes it asks about.
    """

    def __init__(self, tgds: Sequence[TGD]):
        self.tgds = list(tgds)

    @cached_property
    def linear(self) -> bool:
        return is_linear(self.tgds)

    @cached_property
    def guarded(self) -> bool:
        return is_guarded(self.tgds)

    @cached_property
    def stickiness(self) -> StickinessAnalysis:
        """The marking behind :attr:`sticky`, shared with the sticky decider."""
        return StickinessAnalysis(self.tgds)

    @cached_property
    def sticky(self) -> bool:
        return self.stickiness.is_sticky

    @cached_property
    def weakly_acyclic(self) -> bool:
        return is_weakly_acyclic(self.tgds)

    @cached_property
    def jointly_acyclic(self) -> bool:
        return is_jointly_acyclic(self.tgds)

    def labels(self) -> List[str]:
        out = []
        for name in ("linear", "guarded", "sticky", "weakly_acyclic", "jointly_acyclic"):
            if getattr(self, name):
                out.append(name.replace("_", "-"))
        return out

    def __repr__(self) -> str:
        return f"Classification({', '.join(self.labels()) or 'none'})"


class TerminationAnalyzer:
    """One-stop analysis: classify, dispatch, certify."""

    def __init__(
        self,
        sticky_max_states: int = 100_000,
        guarded_max_steps: int = 60,
        replays: int = 3,
    ):
        self.sticky_max_states = sticky_max_states
        self.guarded_max_steps = guarded_max_steps
        self.replays = replays

    def classify(self, tgds: Sequence[TGD]) -> Classification:
        return Classification(tgds)

    def analyze(
        self,
        tgds: Sequence[TGD],
        budget: Optional[Budget] = None,
        stats=None,
    ) -> Verdict:
        """Decide / semi-decide membership in ``CT_res_∀∀``.

        ``budget`` is a per-run :class:`repro.chase.checkpoint.Budget`
        threaded into the sticky automaton search, the critical-database
        chase and the divergence-suspect scans; exhaustion yields a
        ``TIMEOUT`` verdict instead of an exception.  ``stats`` is an
        optional :class:`repro.obs.stats.ChaseStats` threaded the same way;
        the suspect scans fill its ``suspects`` entries (strictly passive —
        verdicts are identical with or without it).
        """
        tgd_list = list(tgds)
        if stats is not None and not stats.kind:
            stats.kind = "decider"
        classification = self.classify(tgd_list)
        if classification.sticky:
            verdict = decide_sticky(
                tgd_list,
                max_states=self.sticky_max_states,
                budget=budget,
                marking=classification.stickiness,
            )
            if not verdict.is_unknown:
                return verdict
        if classification.guarded:
            return decide_guarded(
                tgd_list,
                max_steps=self.guarded_max_steps,
                replays=self.replays,
                budget=budget,
                stats=stats,
            )
        # General single-head TGDs: sound certificates + sound witnesses
        # only.
        return certify_or_pump(
            tgd_list,
            "general",
            self.guarded_max_steps,
            self.replays,
            budget=budget,
            stats=stats,
        )

    def analyze_corpus(
        self, corpus: Sequence[Sequence[TGD]], budget: Optional[Budget] = None
    ) -> Dict[str, int]:
        """Tally verdict statuses over a corpus (the X10 'table').

        A ``budget`` is a *shared* envelope across the whole corpus: once
        its wall clock runs out, the remaining sets tally as ``TIMEOUT``.
        """
        tally: Dict[str, int] = {
            Status.ALL_TERMINATING: 0,
            Status.NOT_ALL_TERMINATING: 0,
            Status.UNKNOWN: 0,
            Status.TIMEOUT: 0,
        }
        for tgds in corpus:
            tally[self.analyze(tgds, budget=budget).status] += 1
        return tally
