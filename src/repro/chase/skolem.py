"""The skolem (semi-oblivious) chase.

A third classic chase variant, between the oblivious and restricted ones:
each existential variable ``z`` of a TGD ``σ`` becomes a Skolem function
``f_{σ,z}`` applied to the *frontier* values only, so two triggers that
agree on the frontier produce the same atom.  The literature the paper
builds on ([5, 6, 16, 21]) states several termination conditions against
this variant; we use it for the MFA certificate
(:mod:`repro.termination.mfa`).

Skolem terms are structured nulls: their tree structure is what
acyclicity-style conditions inspect (a term nesting the same function
symbol twice witnesses potential non-termination).

Determinism is structural rather than digest-based here: a skolem term's
identity *is* ``f_{σ,z}`` applied to the frontier values, so the fixpoint
is unique and byte-identical regardless of application order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Null, Term, Variable, intern_term
from repro.core.homomorphism import homomorphisms
from repro.tgds.tgd import TGD


class SkolemTerm(Null):
    """A functional null ``f(t1, ..., tn)``.

    Behaves as a labeled null everywhere (homomorphisms may map it
    anywhere); additionally exposes its function symbol and arguments so
    cyclicity checks can walk the term tree.  Interned by the rendered
    name, which uniquely encodes the tree (like every term, equal skolem
    terms are one object).
    """

    __slots__ = ("function", "args")

    def __new__(cls, function: str, args: Iterable[Term]):
        args = tuple(args)
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError(f"skolem arguments must be terms, got {arg!r}")
        rendered = f"{function}({','.join(t.name for t in args)})"
        return intern_term(cls, rendered, function=function, args=args)

    def __reduce__(self):
        return (type(self), (self.function, self.args))

    def depth(self) -> int:
        """Nesting depth of the term tree (constants have depth 0)."""
        return 1 + max(
            (arg.depth() if isinstance(arg, SkolemTerm) else 0 for arg in self.args),
            default=0,
        )

    def functions_inside(self) -> Set[str]:
        """All function symbols occurring anywhere in the term tree."""
        found = {self.function}
        for arg in self.args:
            if isinstance(arg, SkolemTerm):
                found |= arg.functions_inside()
        return found

    def contains_function(self, function: str) -> bool:
        return function in self.functions_inside()


def skolem_function_name(tgd: TGD, variable: Variable) -> str:
    """The function symbol ``f_{σ,z}``."""
    return f"f[{tgd.name}.{variable.name}]"


def skolemize_trigger(tgd: TGD, frontier_binding: Dict[Variable, Term]) -> Atom:
    """``result`` under skolem semantics: frontier-determined functional nulls."""
    ordered_frontier = sorted(tgd.frontier, key=lambda v: v.name)
    args = [frontier_binding[v] for v in ordered_frontier]
    mapping: Dict[Term, Term] = dict(frontier_binding)
    for z in tgd.existential_variables:
        mapping[z] = SkolemTerm(skolem_function_name(tgd, z), args)
    return tgd.head.apply(mapping)


class SkolemResult:
    """Outcome of a skolem chase run."""

    def __init__(
        self,
        instance: Instance,
        terminated: bool,
        rounds: int,
        cyclic_term: Optional[SkolemTerm],
    ):
        #: The fixpoint (or cut-off) instance, over skolem terms.
        self.instance = instance
        #: True iff a fixpoint was reached within the bounds.
        self.terminated = terminated
        #: Saturation rounds performed.
        self.rounds = rounds
        #: First term nesting a function symbol inside itself, if any was
        #: produced (the MFA failure witness); None otherwise.
        self.cyclic_term = cyclic_term

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "cut off"
        cyc = f", cyclic {self.cyclic_term!r}" if self.cyclic_term else ""
        return f"SkolemResult({state}, {len(self.instance)} atoms{cyc})"


def _first_cyclic(atom: Atom) -> Optional[SkolemTerm]:
    """A term of ``atom`` nesting its own outer function symbol, if any."""
    for term in atom.terms:
        if isinstance(term, SkolemTerm):
            for arg in term.args:
                if isinstance(arg, SkolemTerm) and term.function in arg.functions_inside():
                    return term
    return None


def skolem_chase(
    database: Instance,
    tgds: Sequence[TGD],
    max_atoms: int = 100_000,
    max_rounds: int = 10_000,
    stop_on_cycle: bool = False,
) -> SkolemResult:
    """Saturate under skolem-semantics trigger application.

    Triggers are identified by ``(σ, h|fr(σ))`` — the semi-oblivious
    collapsing.  With ``stop_on_cycle`` the run aborts as soon as an atom
    carries a cyclic skolem term (sufficient for the MFA test; the chase
    would be infinite anyway in most such cases, and MFA only needs the
    witness).
    """
    instance = Instance(database.atoms())
    applied: Set[tuple] = set()
    rounds = 0
    cyclic: Optional[SkolemTerm] = None
    changed = True
    while changed:
        if rounds >= max_rounds or len(instance) > max_atoms:
            return SkolemResult(instance, False, rounds, cyclic)
        rounds += 1
        changed = False
        for tgd in tgds:
            ordered_frontier = sorted(tgd.frontier, key=lambda v: v.name)
            for h in list(homomorphisms(tgd.body, instance)):
                frontier_binding = {v: h[v] for v in ordered_frontier}
                key = (tgd, tuple(frontier_binding[v] for v in ordered_frontier))
                if key in applied:
                    continue
                applied.add(key)
                atom = skolemize_trigger(tgd, frontier_binding)
                if instance.add(atom):
                    changed = True
                    found = _first_cyclic(atom)
                    if found is not None and cyclic is None:
                        cyclic = found
                        if stop_on_cycle:
                            return SkolemResult(instance, False, rounds, cyclic)
                if len(instance) > max_atoms:
                    return SkolemResult(instance, False, rounds, cyclic)
    return SkolemResult(instance, True, rounds, cyclic)
