"""Substitutions: finite functions between sets of terms (Section 2).

A substitution maps terms to terms.  Homomorphisms are substitutions with
extra conditions (identity on constants, atom preservation); those checks
live in :mod:`repro.core.homomorphism`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from repro.core.atoms import Atom
from repro.core.terms import Term


class Substitution:
    """An immutable finite map from terms to terms.

    Supports the operations the paper uses: extension (``h ∪ {t ↦ t'}``),
    restriction (``h|S``), composition, and application to atoms and atom
    sets.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[Dict[Term, Term]] = None):
        m: Dict[Term, Term] = {}
        if mapping:
            for source, target in mapping.items():
                if not isinstance(source, Term) or not isinstance(target, Term):
                    raise TypeError(
                        f"substitution entries must map terms to terms, "
                        f"got {source!r} -> {target!r}"
                    )
                m[source] = target
        object.__setattr__(self, "_map", m)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def __reduce__(self):
        # The immutable __setattr__ defeats default slot unpickling; rebuild
        # through __init__ so substitutions can cross process boundaries.
        return (type(self), (dict(self._map),))

    def get(self, term: Term, default: Optional[Term] = None) -> Optional[Term]:
        """The image of ``term``, or ``default`` when unmapped."""
        return self._map.get(term, default)

    def __getitem__(self, term: Term) -> Term:
        return self._map[term]

    def __contains__(self, term: Term) -> bool:
        return term in self._map

    def __iter__(self) -> Iterator[Term]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def items(self):
        return self._map.items()

    def keys(self):
        return self._map.keys()

    def values(self):
        return self._map.values()

    def domain(self) -> set:
        """The set of terms this substitution is defined on."""
        return set(self._map)

    def image(self) -> set:
        """The set of terms in the range of this substitution."""
        return set(self._map.values())

    def extend(self, term: Term, target: Term) -> "Substitution":
        """``h ∪ {term ↦ target}``; raises on a conflicting existing binding."""
        existing = self._map.get(term)
        if existing is not None and existing != target:
            raise ValueError(
                f"cannot extend: {term!r} already maps to {existing!r}, "
                f"not {target!r}"
            )
        new_map = dict(self._map)
        new_map[term] = target
        return Substitution(new_map)

    def restrict(self, terms: Iterable[Term]) -> "Substitution":
        """The paper's ``h|S``: restriction of the domain to ``terms``."""
        keep = set(terms)
        return Substitution({t: v for t, v in self._map.items() if t in keep})

    def compose(self, outer: "Substitution") -> "Substitution":
        """The substitution ``outer ∘ self`` (apply ``self`` first).

        Every term in the image of ``self`` that ``outer`` maps gets rewritten;
        bindings of ``outer`` on terms outside the domain of ``self`` are kept
        so that ``(outer ∘ self)(t) = outer(self(t))`` for all ``t`` where
        either side is defined.
        """
        composed: Dict[Term, Term] = {}
        for source, target in self._map.items():
            composed[source] = outer.get(target, target)
        for source, target in outer.items():
            if source not in composed:
                composed[source] = target
        return Substitution(composed)

    def apply_to_term(self, term: Term) -> Term:
        """The image of ``term`` (identity when unmapped)."""
        return self._map.get(term, term)

    def apply_to_atom(self, atom: Atom) -> Atom:
        """The atom with every argument rewritten."""
        return atom.apply(self._map)

    def agrees_with(self, other: "Substitution") -> bool:
        """True iff the two substitutions coincide on shared domain terms."""
        small, large = (
            (self._map, other._map)
            if len(self._map) <= len(other._map)
            else (other._map, self._map)
        )
        return all(large.get(t, v) == v for t, v in small.items())

    def merge(self, other: "Substitution") -> "Substitution":
        """Union of two substitutions; raises if they disagree somewhere."""
        if not self.agrees_with(other):
            raise ValueError("substitutions disagree on a shared term")
        merged = dict(self._map)
        merged.update(other._map)
        return Substitution(merged)

    def is_injective(self) -> bool:
        """True iff no two domain terms share an image."""
        return len(set(self._map.values())) == len(self._map)

    def inverse(self) -> "Substitution":
        """The inverse map; raises when not injective."""
        if not self.is_injective():
            raise ValueError("substitution is not injective, cannot invert")
        return Substitution({v: k for k, v in self._map.items()})

    def canonical_items(self) -> tuple:
        """Deterministically ordered (source, target) pairs, for hashing."""
        return tuple(
            sorted(self._map.items(), key=lambda kv: (kv[0].sort_key(), kv[1].sort_key()))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.canonical_items())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s!r}->{t!r}" for s, t in self.canonical_items()
        )
        return f"{{{inner}}}"
