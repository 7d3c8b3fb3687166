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
   independently — and in parallel via
   :func:`repro.chase.parallel.parallel_map` — by a per-layer certificate
   or a bounded oblivious chase on the layer's critical database;
4. **decider** — the unchanged ``TerminationAnalyzer.analyze`` fallthrough.

Soundness: cheap stages only ever answer ``ALL_TERMINATING`` or pass.  The
layered stages are sound because every per-layer condition used here
(full TGDs, weak/joint acyclicity, a finite oblivious chase on ``D*``)
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
exception.  Verdicts are deterministic and identical at every worker
count: layers are checked in topological order and results consumed in
that same order regardless of pool completion order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.chase.checkpoint import Budget
from repro.chase.oblivious import oblivious_chase
from repro.errors import ChaseInterrupted
from repro.guarded.decision import release
from repro.obs import clock
from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.critical import critical_database
from repro.termination.dependencies import RuleDependencyGraph
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import is_weakly_acyclic, terminating_certificate
from repro.tgds.tgd import TGD

#: Per-layer bounds for the hierarchical stage's critical-database
#: oblivious runs.  Deliberately far below the decider's own
#: ``critical_oblivious_verdict`` bounds (50k atoms / 2k rounds): the
#: portfolio is the *cheap* tier — a layer still growing at these bounds
#: falls through to the decider rather than being chased harder here.
LAYER_MAX_ATOMS = 5_000
LAYER_MAX_ROUNDS = 200

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


def _check_layer(payload) -> Tuple[str, Optional[str]]:
    """Certify one layer; module-level so it ships to process pools.

    ``payload`` is ``(layer_tgds, max_atoms, max_rounds, wall_seconds)``
    with ``wall_seconds`` = remaining wall budget or None, optionally
    followed by an instance-backend spec (see ``repro.backends``).
    Returns ``(outcome, certificate)`` with outcome ``"settled"`` /
    ``"undecided"`` / ``"timeout"``.  Only conditions that bound the
    layer's semi-oblivious chase are used (see module docstring).
    """
    layer, max_atoms, max_rounds, wall_seconds = payload[:4]
    backend = payload[4] if len(payload) > 4 else None
    certificate = terminating_certificate(layer)
    if certificate is not None:
        return _SETTLED, certificate
    budget = Budget(wall_seconds=wall_seconds) if wall_seconds is not None else None
    try:
        result = oblivious_chase(
            critical_database(layer),
            layer,
            max_atoms=max_atoms,
            max_rounds=max_rounds,
            budget=budget,
            backend=backend,
        )
    except ChaseInterrupted as interrupted:
        # Disk-backed scratch instances are closed here, in the worker
        # that owns them — pool teardown never runs finalizers.
        release(interrupted.instance)
        return _TIMEOUT, None
    outcome = (_SETTLED, "critical-oblivious") if result.terminated else (_UNDECIDED, None)
    release(result.instance)
    return outcome


class TerminationPortfolio:
    """The cascade: certificates → stratification → layers → deciders.

    ``workers`` parallelizes the hierarchical stage's independent layer
    checks (and is forwarded to the fallthrough analyzer's suspect tier);
    verdicts are identical at every worker count.  ``analyzer`` defaults
    to a fresh :class:`TerminationAnalyzer` sharing ``workers``.

    ``cache`` is an optional digest-keyed verdict memo (duck-typed against
    :class:`repro.service.cache.VerdictCache`: ``get_verdict(digest)`` /
    ``put_verdict(digest, verdict)``) consulted *before* any stage runs —
    a hit returns the stored verdict with a single ``"cache"`` entry in
    ``stats.portfolio`` and no decider ever launched; a miss runs the
    cascade and stores the verdict if it settled.  Attaching a cache never
    changes a verdict: only settled answers (properties of the TGD set
    alone) are stored, so replaying one is sound for every caller.
    """

    def __init__(
        self,
        workers: int = 1,
        layer_max_atoms: int = LAYER_MAX_ATOMS,
        layer_max_rounds: int = LAYER_MAX_ROUNDS,
        analyzer: Optional[TerminationAnalyzer] = None,
        cache=None,
        backend=None,
    ):
        self.workers = workers
        self.layer_max_atoms = layer_max_atoms
        self.layer_max_rounds = layer_max_rounds
        self.analyzer = analyzer or TerminationAnalyzer(
            workers=workers, backend=backend
        )
        self.cache = cache
        self.backend = backend

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

    def _stage_stratification(self, tgds, graph, budget) -> Optional[Verdict]:
        layers = graph.layers()
        for layer in layers:
            if not is_weakly_acyclic(layer):
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
        layers = graph.layers()
        remaining = budget.remaining_seconds() if budget is not None else None
        # The backend rides along only when set, so pickled payload shapes
        # (and their digests in older transcripts) are unchanged without it.
        tail = (self.backend,) if self.backend is not None else ()
        payloads = [
            (layer, self.layer_max_atoms, self.layer_max_rounds, remaining)
            + tail
            for layer in layers
        ]
        if self.workers <= 1:
            results = []
            for payload in payloads:
                if budget is not None and budget.out_of_time():
                    raise ChaseInterrupted("budget:wall")
                # Serial layer chases share the caller's budget directly, so
                # application/atom limits cut inside the stage too.
                results.append(self._check_layer_serial(payload, budget))
        else:
            from repro.chase.parallel import parallel_map

            results = parallel_map(_check_layer, payloads, workers=self.workers)
        certificates: List[dict] = []
        for layer, (outcome, certificate) in zip(layers, results):
            if outcome == _TIMEOUT:
                return self._timeout("hierarchical", "budget:wall")
            if outcome == _UNDECIDED:
                return None
            certificates.append(
                {
                    "tgds": [tgd.name for tgd in layer],
                    "certificate": certificate,
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

    def _check_layer_serial(self, payload, budget) -> Tuple[str, Optional[str]]:
        """The serial twin of :func:`_check_layer`, sharing ``budget``.

        A :class:`ChaseInterrupted` from the layer chase propagates to the
        cascade loop, which renders it as the ``TIMEOUT`` verdict.
        """
        layer, max_atoms, max_rounds = payload[:3]
        certificate = terminating_certificate(layer)
        if certificate is not None:
            return _SETTLED, certificate
        try:
            result = oblivious_chase(
                critical_database(layer),
                layer,
                max_atoms=max_atoms,
                max_rounds=max_rounds,
                budget=budget,
                backend=self.backend,
            )
        except ChaseInterrupted as interrupted:
            release(interrupted.instance)
            raise
        outcome = (
            (_SETTLED, "critical-oblivious")
            if result.terminated
            else (_UNDECIDED, None)
        )
        release(result.instance)
        return outcome

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
    workers: int = 1,
    budget: Optional[Budget] = None,
    stats=None,
    cache=None,
) -> Verdict:
    """One-shot convenience wrapper around :class:`TerminationPortfolio`."""
    return TerminationPortfolio(workers=workers, cache=cache).analyze(
        tgds, budget=budget, stats=stats
    )


def settled_cheaply(verdict: Verdict) -> bool:
    """Did a cheap stage settle this set (no automata decider launched)?

    True exactly for the ``portfolio-*`` terminating methods; ``TIMEOUT``
    and decider-produced verdicts (whose methods pass through unchanged)
    are not "settled cheaply".
    """
    return verdict.is_terminating and verdict.method.startswith("portfolio-")
