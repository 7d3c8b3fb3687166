"""All-instances termination analysis: deciders, portfolio, dependencies.

* :mod:`repro.termination.portfolio` — the one verdict entry point,
  :meth:`TerminationPortfolio.analyze
  <repro.termination.portfolio.TerminationPortfolio.analyze>`: a
  cheap-first cascade that settles most sets before any automaton is
  built, ending in :func:`~repro.termination.portfolio.decide`, the
  dispatch to the sticky and guarded deciders.
* :mod:`repro.termination.dependencies` — the rule-dependency assessor
  (:class:`~repro.termination.dependencies.RuleDependencyGraph`) backing
  the cascade's layered stages and the chase engine's discovery pruning.
* :mod:`repro.termination.verdict` — certifying
  :class:`~repro.termination.verdict.Verdict` objects; ``TIMEOUT`` is a
  budget answer, distinct from ``UNKNOWN`` (a bounds answer).
* :mod:`repro.termination.critical` — the critical database ``D*`` and
  :func:`~repro.termination.critical.critical_chase`, the one chase of it:
  a semi-oblivious run under a nesting monitor whose fixpoint certifies
  termination (the decider fall-through and the portfolio's per-layer
  check both call it).

Verdicts are deterministic: identical from run to run and with or
without ``stats`` attached, and budget exhaustion always surfaces as a
``TIMEOUT`` verdict, never an exception.
"""
