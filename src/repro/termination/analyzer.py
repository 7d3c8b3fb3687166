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

Verdicts are deterministic and worker-count-independent: the divergence
suspects run as independent (optionally pooled) chases, but results are
consumed in candidate order, so ``workers=N`` returns exactly the verdict
the serial scan's early exit would have — status, method, certificate and
all.  The cheap-first cascade in :mod:`repro.termination.portfolio` sits
in front of this analyzer; see ``docs/TERMINATION.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chase.checkpoint import Budget
from repro.errors import ChaseInterrupted
from repro.guarded.decision import (
    budget_verdict,
    candidate_databases,
    decide_guarded,
    scan_suspects,
)
from repro.sticky.decision import decide_sticky
from repro.termination.critical import critical_verdict
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import (
    is_jointly_acyclic,
    is_weakly_acyclic,
    terminating_certificate,
)
from repro.tgds.guardedness import is_guarded, is_linear
from repro.tgds.stickiness import is_sticky
from repro.tgds.tgd import TGD


class Classification:
    """Syntactic class membership of a TGD set."""

    def __init__(self, tgds: Sequence[TGD]):
        tgd_list = list(tgds)
        self.linear = is_linear(tgd_list)
        self.guarded = is_guarded(tgd_list)
        self.sticky = is_sticky(tgd_list)
        self.weakly_acyclic = is_weakly_acyclic(tgd_list)
        self.jointly_acyclic = is_jointly_acyclic(tgd_list)

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
        workers: int = 1,
        backend=None,
    ):
        self.sticky_max_states = sticky_max_states
        self.guarded_max_steps = guarded_max_steps
        self.replays = replays
        #: Pool width for the divergence-suspect chases (1 = serial).  The
        #: suspects are independent chases, so they parallelize whole; the
        #: candidate-order result scan keeps verdicts serial-identical.
        self.workers = workers
        #: Instance storage backend for the suspect chases (anything
        #: :func:`repro.backends.BackendSpec.parse` accepts); verdicts are
        #: backend-independent.
        self.backend = backend

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
        threaded into the critical-database chase and the divergence-suspect
        scans; exhaustion yields a ``TIMEOUT`` verdict recording the
        completed suspect count instead of an exception.  ``stats`` is an
        optional :class:`repro.obs.stats.ChaseStats` threaded the same way;
        the suspect scans fill its ``suspects`` entries (strictly passive —
        verdicts are identical with or without it).
        """
        tgd_list = list(tgds)
        if stats is not None and not stats.kind:
            stats.kind = "decider"
        classification = self.classify(tgd_list)
        if classification.sticky:
            verdict = decide_sticky(tgd_list, max_states=self.sticky_max_states)
            if not verdict.is_unknown:
                return verdict
        if classification.guarded:
            return decide_guarded(
                tgd_list,
                max_steps=self.guarded_max_steps,
                replays=self.replays,
                workers=self.workers,
                budget=budget,
                stats=stats,
                backend=self.backend,
            )
        # General single-head TGDs: sound certificates + sound witnesses only.
        certificate = terminating_certificate(tgd_list)
        if certificate is not None:
            return Verdict(
                Status.ALL_TERMINATING,
                method=certificate,
                detail=f"syntactic termination certificate: {certificate}",
            )
        candidates = candidate_databases(tgd_list)
        # The suspect scan (lifo probe + semi-naive rerun + pump replay per
        # candidate) runs as independent pool tasks when workers > 1, with
        # candidate-order selection keeping the verdict serial-identical.
        try:
            critical = critical_verdict(tgd_list, budget)
            if critical is not None:
                return critical
            hit = scan_suspects(
                candidates,
                tgd_list,
                self.guarded_max_steps,
                self.replays,
                workers=self.workers,
                budget=budget,
                stats=stats,
                backend=self.backend,
            )
        except ChaseInterrupted as interrupted:
            return budget_verdict(interrupted, "general-budget", len(candidates))
        if hit is not None:
            _, pump = hit
            return Verdict(
                Status.NOT_ALL_TERMINATING,
                method="general-replay",
                certificate={"witness": pump},
                detail="replay-certified periodic derivation (general TGDs)",
            )
        return Verdict(
            Status.UNKNOWN,
            method="general-bounded-search",
            detail=(
                "CT_res_∀∀ is undecidable for arbitrary TGDs (Theorem 3.6); "
                "no certificate or certified witness found within bounds"
            ),
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
