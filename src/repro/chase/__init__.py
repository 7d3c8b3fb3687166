"""Chase engines: restricted, oblivious, real oblivious, weakly
restricted; triggers, derivations, the stop relation, the Fairness
Theorem."""
