"""Brute-force audit of :class:`repro.chase.engine.HeadWitnessIndex`.

Quadratic and test-only: it recomputes what the index answers from the
instance itself, through :func:`repro.chase.trigger.satisfies_head`.
"""

from repro.chase.trigger import satisfies_head, triggers_on
from repro.core.homomorphism import match_atom


def witness_keys(index, tgd) -> set:
    """The frontier tuples ``index`` holds for the existential rule ``tgd``
    (one set, shared by the rules equal to it)."""
    return index._sets[index._firsts[tgd]]


def consistent_with(index, instance) -> bool:
    """Does ``index`` agree with ``satisfies_head`` on ``instance``?

    * An existential rule's set equals the frontier tuples recomputed from
      the instance's atoms, and ``satisfies_head`` holds for each.
    * A full rule has no set, and for every trigger on the instance
      ``witnessed()`` agrees with ``satisfies_head``.

    Leaves the index's telemetry counters as it found them.
    """
    lookups, hits = index.lookups, index.hits
    try:
        for tgd, first in index._firsts.items():
            if not tgd.existential_variables:
                if first in index._sets:
                    return False
                for trigger in triggers_on([tgd], instance):
                    expected = satisfies_head(instance, tgd, trigger.frontier_binding())
                    if index.witnessed(trigger) != expected:
                        return False
                continue
            cached = index._sets[first]
            recomputed = set()
            for atom in instance.with_predicate(tgd.head.predicate):
                binding = match_atom(tgd.head, atom)
                if binding is not None:
                    recomputed.add(tuple(binding[v] for v in tgd.frontier_order))
            if cached != recomputed:
                return False
            for key in cached:
                if not satisfies_head(instance, tgd, dict(zip(tgd.frontier_order, key))):
                    return False
        return True
    finally:
        index.lookups, index.hits = lookups, hits
