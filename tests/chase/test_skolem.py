"""The skolem (semi-oblivious) chase, as the critical chase runs it on D*.

:func:`repro.termination.critical.critical_chase` gets skolem semantics
from the oblivious engine by routing each existential rule through a
reserved ``F_σ(frontier)`` atom: triggers that agree on the frontier
share one null-inventing trigger, hence one set of nulls.
"""

from repro.core.terms import Constant
from repro.termination.critical import REPEAT_LIMIT, critical_chase
from repro.tgds.tgd import parse_tgds


def user_atoms(result, predicate):
    """The ``predicate`` atoms of a run (the ``F_σ`` bookkeeping left out)."""
    return [atom for atom in result.instance if atom.predicate == predicate]


class TestSkolemizeTrigger:
    def test_frontier_determines_term(self):
        # R(c,c) and R(c,n) both bind the frontier x to c: one S null.
        tgds = parse_tgds(["P(x) -> R(x,y)", "R(x,y) -> S(x,z)"])
        result = critical_chase(tgds)
        assert result.settled
        invented = [a for a in user_atoms(result, "S") if a.terms[1].is_null]
        assert len(invented) == 1
        assert invented[0].terms[0] == Constant("c")

    def test_function_name_per_variable(self):
        result = critical_chase(parse_tgds(["R(x,y) -> S(x,z,w)"]))
        (invented,) = [a for a in user_atoms(result, "S") if a.terms[1].is_null]
        assert invented.terms[1] != invented.terms[2]
        assert invented.terms[2].is_null


class TestSkolemChase:
    def test_semi_oblivious_collapses_intro_example(self, intro_tgds):
        """Unlike the oblivious chase, the skolem chase terminates on the
        intro example: triggers agreeing on the frontier coincide."""
        result = critical_chase(intro_tgds)
        assert result.settled and result.stop is None
        assert len(user_atoms(result, "R")) == 2  # R(c,c) + R(c, n)
        assert result.repeats == 1

    def test_diverging_chain_cut_off_with_cycle(self, diverging_linear):
        result = critical_chase(diverging_linear)
        assert not result.settled
        assert result.stop == "nesting"
        assert result.repeats == REPEAT_LIMIT + 1

    def test_stop_on_cycle_aborts_early(self, diverging_linear):
        # One new null per two rounds (fire, invent): the monitor stops the
        # chain as soon as it nests past the limit.
        result = critical_chase(diverging_linear)
        assert result.rounds <= 2 * (REPEAT_LIMIT + 1)
        assert len(result.instance) <= 2 * (REPEAT_LIMIT + 2)

    def test_weakly_acyclic_fixpoint(self):
        tgds = parse_tgds(["P(x) -> Q(x,y)", "Q(x,y) -> S(y)"])
        result = critical_chase(tgds)
        assert result.settled
        assert result.repeats == 1
        # D* (3 atoms) + Q(c,n) + S(n).
        assert len(user_atoms(result, "Q")) + len(user_atoms(result, "S")) == 4

    def test_skolem_atoms_reused_across_bodies(self):
        # Body images {R(c,c)} and {R(c,n), R(n,c)} feed the same frontier
        # x = c -> one skolem witness; x = n gets its own.
        tgds = parse_tgds(
            ["P(x) -> R(x,y)", "R(x,y) -> R(y,x)", "R(x,y), R(y,x) -> S(x,z)"]
        )
        result = critical_chase(tgds)
        assert result.settled
        assert len(user_atoms(result, "S")) == 3  # S(c,c), S(c,m), S(n,m')
