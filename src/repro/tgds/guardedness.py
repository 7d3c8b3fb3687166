"""Guardedness (Section 2).

A TGD is *guarded* if some body atom contains every universally quantified
variable of the body; the paper fixes the left-most such atom as *the*
guard.  *Linear* TGDs (single body atom) are the special case studied by
[20]; the class ``G`` is the family of finite sets of guarded single-head
TGDs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.atoms import Atom
from repro.tgds.tgd import TGD


def guard_of(tgd: TGD) -> Optional[Atom]:
    """The guard of ``tgd``: the left-most body atom containing all body

    variables, or None when the TGD is not guarded."""
    body_vars = tgd.body_variables()
    for atom in tgd.body:
        if body_vars <= atom.variables():
            return atom
    return None


def guard_index(tgd: TGD) -> int:
    """The body position of the guard (Section 2's left-most choice).

    Raises ``ValueError`` when the TGD is not guarded.  An equal atom
    earlier in the body would itself be the guard, so the first equal
    position is the guard's own."""
    guard = guard_of(tgd)
    if guard is None:
        raise ValueError(f"TGD is not guarded: {tgd}")
    return tgd.body.index(guard)


def is_guarded_tgd(tgd: TGD) -> bool:
    """True iff some body atom guards all body variables."""
    return guard_of(tgd) is not None


def is_linear_tgd(tgd: TGD) -> bool:
    """True iff the body is a single atom (trivially guarded)."""
    return len(tgd.body) == 1


def is_guarded(tgds: Iterable[TGD]) -> bool:
    """True iff every TGD in the set is guarded (the class ``G``)."""
    return all(is_guarded_tgd(t) for t in tgds)


def is_linear(tgds: Iterable[TGD]) -> bool:
    """True iff every TGD in the set is linear."""
    return all(is_linear_tgd(t) for t in tgds)


def side_atoms(tgd: TGD) -> List[Atom]:
    """The body atoms other than the guard, in body order.

    Raises for non-guarded TGDs.  Only the guard's own position is dropped,
    so a body atom written twice keeps its other copy here (bodies are
    tuples; duplicates are kept as written).
    """
    atoms = list(tgd.body)
    del atoms[guard_index(tgd)]
    return atoms


def check_guarded_set(tgds: Sequence[TGD]) -> None:
    """Raise ``ValueError`` naming the first non-guarded TGD, if any."""
    for tgd in tgds:
        if not is_guarded_tgd(tgd):
            raise ValueError(f"TGD is not guarded: {tgd}")
