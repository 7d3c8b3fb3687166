"""Chase engines: restricted, oblivious, real oblivious, weakly restricted; triggers, derivations, the stop relation, the Fairness Theorem.

``repro.chase.parallel`` adds pool-backed trigger discovery for wide
rounds (:class:`~repro.chase.parallel.ParallelMatcher`), byte-identical to
the serial discovery pass.
"""
