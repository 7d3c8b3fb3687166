"""Cheap-first termination portfolio: sound pre-checks before the deciders.

The automata deciders (:mod:`repro.sticky.decision`,
:mod:`repro.guarded.decision`, wrapped by
:class:`repro.termination.analyzer.TerminationAnalyzer`) are complete for
their classes but expensive; most practical TGD sets can be settled
without ever launching them.  The portfolio runs a cascade of strictly
cheaper sufficient conditions and falls through to the full analyzer only
when none of them fires:

1. **certificate** — whole-set syntactic certificates
   (:func:`repro.tgds.acyclicity.terminating_certificate`: full TGDs,
   weak acyclicity, joint acyclicity);
2. **c-stratification** — every strongly connected component of the
   :class:`repro.termination.dependencies.RuleDependencyGraph` is weakly
   acyclic (Meier, Schmidt & Lausen's corrected stratification, with the
   unifiability over-approximation of the firing relation);
3. **hierarchical** — the layered decomposition of Karimi, Zhang & You
   (arXiv 2005.05423): each topological layer (SCC) certified
   independently by a per-layer certificate or
   :func:`repro.termination.critical.critical_chase` on the layer;
4. **decider** — the unchanged ``TerminationAnalyzer.analyze`` fallthrough.

Soundness: cheap stages only ever answer ``ALL_TERMINATING`` or pass.  The
layered stages are sound because every per-layer condition used here
(full TGDs, weak/joint acyclicity, a finite semi-oblivious chase of ``D*``)
bounds the layer's *semi-oblivious* chase, whose firing relation is
witness-independent and therefore composes over the condensation DAG:
saturating layer by layer in topological order yields a finite closure
for the whole set, and any restricted derivation fires each
``(rule, frontier-binding)`` pair at most once (after one firing the head
witness blocks all re-firings), so its length is bounded by that closure.
Restricted-chase termination alone is *not* modular across strata — which
is exactly why undecided layers fall through to the whole-set decider
rather than being decided in isolation.

Budgets (:class:`repro.chase.checkpoint.Budget`) thread through every
stage: exhaustion between stages or inside a layer chase yields an honest
``Status.TIMEOUT`` verdict (method ``portfolio-budget``), never an
exception.  Verdicts are deterministic: layers are checked in topological
order, and the first unsettled layer ends the stage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.chase.checkpoint import Budget
from repro.errors import ChaseInterrupted
from repro.obs import clock
from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.critical import CRITICAL_METHOD, critical_chase
from repro.termination.dependencies import RuleDependencyGraph
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import is_weakly_acyclic, terminating_certificate
from repro.tgds.tgd import TGD

#: Cascade stage names, in order (the ``stage`` keys of
#: ``ChaseStats.portfolio`` entries and the bench histogram).
PORTFOLIO_STAGES = ("certificate", "c-stratification", "hierarchical", "decider")

#: The pre-cascade memoization probe, recorded (outcome ``"hit"`` /
#: ``"miss"``) only when a :class:`repro.service.cache.VerdictCache` is
#: attached.  A hit is the portfolio's cheapest possible answer: the
#: cascade — decider included — never starts, which the service layer's
#: warm-cache acceptance check asserts by finding *only* this entry in
#: ``ChaseStats.portfolio``.
CACHE_STAGE = "cache"

_SETTLED = "settled"
_UNDECIDED = "undecided"
_TIMEOUT = "timeout"


def _check_layer(layer, budget, uncertified: bool) -> Tuple[str, Optional[str]]:
    """Certify one layer.

    ``uncertified`` says the syntactic certificates are already known to
    fail on the layer, so only the critical chase runs.  Returns ``(outcome, detail)``:
    ``("settled", certificate)``, ``("undecided", None)`` or
    ``("timeout", reason)``.  Only conditions that bound the layer's
    semi-oblivious chase are used (see module docstring).
    """
    if not uncertified:
        certificate = terminating_certificate(layer)
        if certificate is not None:
            return _SETTLED, certificate
    try:
        settled = critical_chase(layer, budget).settled
    except ChaseInterrupted as interrupted:
        return _TIMEOUT, interrupted.reason
    return (_SETTLED, CRITICAL_METHOD) if settled else (_UNDECIDED, None)


class TerminationPortfolio:
    """The cascade: certificates → stratification → layers → deciders.

    Every chase the cascade runs (layer checks and the analyzer's) is
    scratch state and runs in memory.

    ``cache`` is an optional digest-keyed verdict memo (duck-typed against
    :class:`repro.service.cache.VerdictCache`: ``get_verdict(digest)`` /
    ``put_verdict(digest, verdict)``) consulted *before* any stage runs —
    a hit returns the stored verdict with a single ``"cache"`` entry in
    ``stats.portfolio`` and no decider ever launched; a miss runs the
    cascade and stores the verdict if it settled.  Attaching a cache never
    changes a verdict: only settled answers (properties of the TGD set
    alone) are stored, so replaying one is sound for every caller.
    """

    def __init__(self, cache=None):
        self.analyzer = TerminationAnalyzer()
        self.cache = cache

    # -- the cascade -------------------------------------------------------

    def analyze(
        self,
        tgds: Sequence[TGD],
        budget: Optional[Budget] = None,
        stats=None,
    ) -> Verdict:
        """Decide / semi-decide ``CT_res_∀∀`` through the cheap-first cascade.

        Sound by construction: cheap stages only return ``ALL_TERMINATING``
        or pass, so the verdict never contradicts the deciders — at worst
        it is decided earlier and cheaper.  ``stats`` (a
        :class:`repro.obs.stats.ChaseStats`) collects one ``portfolio``
        entry per stage reached; attaching it never changes the verdict.
        """
        tgd_list = list(tgds)
        if stats is not None and not stats.kind:
            stats.kind = "portfolio"
        if budget is not None:
            budget.start()

        digest: Optional[str] = None
        if self.cache is not None:
            from repro.tgds.tgd import tgd_set_digest

            digest = tgd_set_digest(tgd_list)
            started = clock.perf_counter()
            cached = self.cache.get_verdict(digest)
            if cached is not None:
                self._record(stats, CACHE_STAGE, "hit", started)
                return cached
            self._record(stats, CACHE_STAGE, "miss", started)

        verdict = self._cascade(tgd_list, budget, stats)
        if digest is not None:
            # put_verdict refuses unsettled statuses itself; the guard here
            # is only to skip the call on the common TIMEOUT path.
            if verdict.status in (
                Status.ALL_TERMINATING,
                Status.NOT_ALL_TERMINATING,
            ):
                self.cache.put_verdict(digest, verdict)
        return verdict

    def _cascade(
        self,
        tgd_list,
        budget: Optional[Budget],
        stats,
    ) -> Verdict:
        """The cache-free cascade body (see :meth:`analyze`)."""
        graph: Optional[RuleDependencyGraph] = None
        stages = (
            ("certificate", self._stage_certificate),
            ("c-stratification", self._stage_stratification),
            ("hierarchical", self._stage_hierarchical),
        )
        for name, stage in stages:
            cut = self._budget_cut(name, budget, stats)
            if cut is not None:
                return cut
            if name != "certificate" and graph is None:
                graph = RuleDependencyGraph(tgd_list)
            started = clock.perf_counter()
            try:
                verdict = stage(tgd_list, graph, budget)
            except ChaseInterrupted as interrupted:
                self._record(stats, name, _TIMEOUT, started)
                return self._timeout(name, interrupted.reason)
            if verdict is not None and verdict.is_timeout:
                self._record(stats, name, _TIMEOUT, started)
                return verdict
            self._record(
                stats, name, _SETTLED if verdict is not None else _UNDECIDED, started
            )
            if verdict is not None:
                return verdict

        cut = self._budget_cut("decider", budget, stats)
        if cut is not None:
            return cut
        started = clock.perf_counter()
        verdict = self.analyzer.analyze(tgd_list, budget=budget, stats=stats)
        self._record(stats, "decider", verdict.status, started)
        return verdict

    # -- stages ------------------------------------------------------------

    def _stage_certificate(self, tgds, graph, budget) -> Optional[Verdict]:
        certificate = terminating_certificate(tgds)
        if certificate is None:
            return None
        return Verdict(
            Status.ALL_TERMINATING,
            method="portfolio-certificate",
            certificate={"certificate": certificate},
            detail=f"whole-set syntactic termination certificate: {certificate}",
        )

    # The stages after ``certificate`` run only when it found no certificate
    # for the whole set, so a layer that is the whole set is known to be
    # neither full, nor weakly nor jointly acyclic.

    def _stage_stratification(self, tgds, graph, budget) -> Optional[Verdict]:
        layers = graph.layers()
        for layer in layers:
            if len(layer) == len(tgds) or not is_weakly_acyclic(layer):
                return None
        return Verdict(
            Status.ALL_TERMINATING,
            method="portfolio-stratification",
            certificate={"sccs": len(layers)},
            detail=(
                f"c-stratified: every strongly connected component "
                f"({len(layers)} of them) is weakly acyclic"
            ),
        )

    def _stage_hierarchical(self, tgds, graph, budget) -> Optional[Verdict]:
        certificates: List[dict] = []
        for layer in graph.layers():
            outcome, detail = _check_layer(layer, budget, len(layer) == len(tgds))
            if outcome == _TIMEOUT:
                return self._timeout("hierarchical", detail)
            if outcome == _UNDECIDED:
                return None
            certificates.append(
                {
                    "tgds": [tgd.name for tgd in layer],
                    "certificate": detail,
                }
            )
        return Verdict(
            Status.ALL_TERMINATING,
            method="portfolio-hierarchical",
            certificate={"layers": certificates},
            detail=(
                f"hierarchical decomposition: all {len(certificates)} layers "
                "carry a semi-oblivious-bounding certificate"
            ),
        )

    # -- bookkeeping -------------------------------------------------------

    def _budget_cut(self, stage: str, budget, stats) -> Optional[Verdict]:
        if budget is None:
            return None
        reason = budget.exceeded()
        if reason is None:
            return None
        self._record(stats, stage, _TIMEOUT, clock.perf_counter())
        return self._timeout(stage, reason)

    @staticmethod
    def _timeout(stage: str, reason: str) -> Verdict:
        return Verdict(
            Status.TIMEOUT,
            method="portfolio-budget",
            certificate={"stage": stage, "reason": reason},
            detail=f"budget exhausted ({reason}) in portfolio stage {stage!r}",
        )

    @staticmethod
    def _record(stats, stage: str, outcome: str, started: float) -> None:
        if stats is None:
            return
        stats.portfolio.append(
            {
                "stage": stage,
                "outcome": outcome,
                "seconds": round(clock.perf_counter() - started, 6),
            }
        )


def portfolio_analyze(
    tgds: Sequence[TGD],
    budget: Optional[Budget] = None,
    stats=None,
    cache=None,
) -> Verdict:
    """One-shot convenience wrapper around :class:`TerminationPortfolio`."""
    return TerminationPortfolio(cache=cache).analyze(
        tgds, budget=budget, stats=stats
    )


def settled_cheaply(verdict: Verdict) -> bool:
    """Did a cheap stage settle this set (no automata decider launched)?

    True exactly for the ``portfolio-*`` terminating methods; ``TIMEOUT``
    and decider-produced verdicts (whose methods pass through unchanged)
    are not "settled cheaply".
    """
    return verdict.is_terminating and verdict.method.startswith("portfolio-")
