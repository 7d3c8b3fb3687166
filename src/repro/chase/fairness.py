"""The Fairness Theorem, executable (Section 4).

Theorem 4.1: for single-head TGDs, the existence of an infinite restricted
chase derivation implies the existence of a *fair* one.  The proof builds a
matrix of derivations whose diagonal is fair; each row is obtained from the
previous by splicing in one "everlasting" active trigger at a carefully
chosen index ℓ (greater than everything the new atom could stop — the
finite set ``A`` of Lemma 4.4).

This module implements the construction on finite prefixes: one
:func:`fairness_round` performs exactly the ``(I^n) → (I^{n+1})``
transformation, and :func:`make_fair` iterates it.  Infinite derivations
are represented by prefixes of a strategy-driven stream; "remains active
forever" is evaluated up to the prefix horizon (the only finite
approximation involved — everything else is the paper's construction
verbatim, and every output derivation is re-validated step by step).

Determinism: the construction is a pure function of the input prefix —
splice indices are computed, not sampled, strategy streams are seeded, and
invented nulls are digest-determined per trigger — so replaying the same
prefix yields the same fair derivation, byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.chase.derivation import Derivation, DerivationError
from repro.chase.relations import stops_atom
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger
from repro.errors import FairnessError
from repro.tgds.tgd import TGD

__all__ = ["FairnessError", "fairness_round", "make_fair"]


def derivation_prefix(
    database: Instance,
    tgds: Sequence[TGD],
    strategy,
    length: int,
    seed: Optional[int] = None,
) -> Derivation:
    """A length-``length`` prefix of the derivation induced by ``strategy``.

    Raises :class:`FairnessError` when the derivation terminates earlier
    (then there is nothing to make fair — finite derivations are valid).
    """
    result = restricted_chase(database, tgds, strategy=strategy, max_steps=length, seed=seed)
    if result.terminated and result.steps < length:
        raise FairnessError(
            f"derivation terminated after {result.steps} < {length} steps; "
            "it is already a valid (finite) derivation"
        )
    return result.derivation


def everlasting_triggers(
    derivation: Derivation, tgds: Sequence[TGD], horizon: Optional[int] = None
) -> List[Tuple[int, Trigger]]:
    """Triggers witnessing unfairness of the prefix (Section 4's ``(σ,h)``).

    Pairs ``(m, trigger)``: the trigger is active on ``I_m`` and still
    active on the final instance of the prefix, and ``m`` is the first such
    index for that trigger.  Sorted by ``m``.

    ``horizon`` restricts to triggers first active at ``m <= horizon``: a
    trigger that appeared near the end of a finite prefix is not evidence
    of unfairness (an infinite continuation may well deactivate it), so
    the finite rendering of the theorem only repairs the stable part.
    Default: half the prefix length.
    """
    if horizon is None:
        horizon = len(derivation.steps) // 2
    suspects = derivation.persistent_active_triggers(tgds)
    return sorted(
        ((m, t) for m, t in suspects if m <= horizon),
        key=lambda pair: (pair[0], pair[1].canonical_key),
    )


def is_fair_up_to(
    derivation: Derivation, tgds: Sequence[TGD], horizon: Optional[int] = None
) -> bool:
    """Finite-horizon fairness: every trigger active by ``horizon`` is

    deactivated by the end of the prefix."""
    return not everlasting_triggers(derivation, tgds, horizon)


def lemma_4_4_stop_set(derivation: Derivation, candidate: Trigger) -> List[int]:
    """The set ``A = {i : result(σ,h) ≺s result(σ_i, h_i)}`` (Lemma 4.4).

    Lemma 4.4 proves ``A`` is finite; on a prefix it is simply computed.
    """
    new_atom = candidate.result()
    indices: List[int] = []
    for i, step in enumerate(derivation.steps):
        if stops_atom(new_atom, step.result(), step.result_frontier_terms()):
            indices.append(i)
    return indices


def fairness_round(
    derivation: Derivation,
    tgds: Sequence[TGD],
    round_number: int = 0,
    horizon: Optional[int] = None,
) -> Tuple[Derivation, bool]:
    """One ``(I^n) → (I^{n+1})`` step of the Theorem 4.1 construction.

    Finds the earliest everlasting active trigger ``(σ,h)`` (unfairness
    witness), computes ``ℓ > max({n, m} ∪ A)``, and splices
    ``result(σ,h)`` in at position ``ℓ``, shifting the remaining steps by
    one (Lemma 4.5 guarantees they all stay active — and we re-validate).

    Returns ``(new derivation, changed)``; ``changed`` is False when the
    prefix is already fair (no everlasting trigger), in which case the
    input is returned unchanged.
    """
    witnesses = everlasting_triggers(derivation, tgds, horizon)
    if not witnesses:
        return derivation, False
    m, candidate = witnesses[0]
    stop_indices = lemma_4_4_stop_set(derivation, candidate)
    ell = max([round_number, m] + stop_indices) + 1
    if ell > len(derivation.steps):
        raise FairnessError(
            f"splice index ℓ={ell} exceeds the prefix length "
            f"{len(derivation.steps)}; extend the horizon"
        )
    new_steps = list(derivation.steps[:ell]) + [candidate] + list(derivation.steps[ell:])
    new_derivation = Derivation(derivation.initial, new_steps)
    try:
        new_derivation.validate(tgds)
    except DerivationError as error:  # pragma: no cover - theory guarantee
        raise FairnessError(f"Lemma 4.5 failed on this input: {error}") from error
    return new_derivation, True


def make_fair(
    derivation: Derivation,
    tgds: Sequence[TGD],
    max_rounds: int = 100,
    horizon: Optional[int] = None,
) -> Derivation:
    """Iterate :func:`fairness_round` until the prefix is fair up to the

    horizon.  This realizes the diagonal of the matrix ``s_{D,T}``: after
    enough rounds every trigger active within the horizon has been
    deactivated.  Raises :class:`FairnessError` if ``max_rounds`` do not
    suffice (extend the prefix or the round budget).

    The horizon is fixed from the *initial* prefix length so splices do not
    move the goalposts.
    """
    if horizon is None:
        horizon = len(derivation.steps) // 2
    current = derivation
    for round_number in range(max_rounds):
        current, changed = fairness_round(current, tgds, round_number, horizon)
        if not changed:
            return current
    remaining = everlasting_triggers(current, tgds, horizon)
    if remaining:
        raise FairnessError(
            f"{len(remaining)} everlasting trigger(s) remain after "
            f"{max_rounds} rounds"
        )
    return current
