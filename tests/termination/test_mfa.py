"""Model-faithful acyclicity cases, certified by the critical chase.

MFA [Grau et al., JAIR'13] holds when the skolem chase of ``D*`` reaches a
fixpoint without a cyclic term.  :func:`critical_chase` runs that same
semi-oblivious chase under a nesting monitor, so every MFA set settles
there; these are the classic MFA examples, kept as regression cases.
"""

from repro.termination.critical import CRITICAL_METHOD, critical_chase, critical_verdict
from repro.termination.verdict import Status
from repro.tgds.tgd import parse_tgds


class TestMFACheck:
    def test_intro_example_is_mfa(self, intro_tgds):
        """The oblivious chase diverges on D*, yet semi-oblivious semantics
        collapses the frontier — the critical chase certifies the intro
        example."""
        assert critical_chase(intro_tgds).settled

    def test_shift_chain_not_mfa(self, diverging_linear):
        assert not critical_chase(diverging_linear).settled

    def test_weakly_acyclic_is_mfa(self):
        assert critical_chase(parse_tgds(["P(x) -> Q(x,y)", "Q(x,y) -> S(y)"])).settled

    def test_non_wa_but_mfa(self):
        # Fails WA (special-edge cycle candidates) but the skolem chase of
        # D* is finite and acyclic.
        tgds = parse_tgds(["R(x,y) -> S(y,z)", "S(x,y) -> T(y,x)", "T(x,y) -> U(x)"])
        assert critical_chase(tgds).settled

    def test_mutual_recursion_not_mfa(self):
        tgds = parse_tgds(["R(x,y) -> S(y,z)", "S(x,y) -> R(y,z)"])
        assert not critical_chase(tgds).settled


class TestMFAVerdict:
    def test_verdict_shape(self, intro_tgds):
        verdict = critical_verdict(intro_tgds)
        assert verdict is not None
        assert verdict.status == Status.ALL_TERMINATING
        assert verdict.method == CRITICAL_METHOD == "critical-chase"
        assert "critical_database" in verdict.certificate

    def test_no_verdict_when_not_mfa(self, diverging_linear):
        assert critical_verdict(diverging_linear) is None

    def test_soundness_against_sticky_ground_truth(self):
        """Whenever the critical chase certifies a sticky set, the complete
        Büchi decision must agree — the certificate is sound."""
        from repro.sticky.decision import decide_sticky
        from repro.tgds.generators import GeneratorProfile, corpus

        profile = GeneratorProfile(num_predicates=2, max_arity=2, num_tgds=2)
        for tgds in corpus("sticky", 8, base_seed=33, profile=profile):
            if critical_chase(tgds).settled:
                assert decide_sticky(tgds).status == Status.ALL_TERMINATING
