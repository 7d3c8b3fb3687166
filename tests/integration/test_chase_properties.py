"""Hypothesis property tests over random TGD sets and databases."""

import hypothesis.strategies as st
from hypothesis import given, settings, HealthCheck

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.chase.oblivious import oblivious_chase, satisfies_all
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import triggers_on
from repro.chase.relations import active_iff_unstopped
from repro.tgds.generators import GeneratorProfile, random_guarded_set

profiles = GeneratorProfile(num_predicates=2, max_arity=2, num_tgds=2)


@st.composite
def tgd_sets(draw):
    seed = draw(st.integers(0, 200))
    return random_guarded_set(seed, profiles)


@st.composite
def databases_for(draw, tgds):
    constants = [Constant(c) for c in "abc"]
    atoms = []
    schema = {}
    for tgd in tgds:
        for atom in list(tgd.body) + [tgd.head]:
            schema[atom.predicate] = atom.arity
    predicates = sorted(schema)
    for _ in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(predicates))
        terms = [draw(st.sampled_from(constants)) for _ in range(schema[predicate])]
        atoms.append(Atom(predicate, terms))
    return Database(atoms)


@st.composite
def chase_inputs(draw):
    tgds = draw(tgd_sets())
    database = draw(databases_for(tgds))
    return tgds, database


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChaseInvariants:
    @given(chase_inputs())
    @common
    def test_terminated_restricted_chase_is_model(self, inputs):
        tgds, database = inputs
        result = restricted_chase(database, tgds, max_steps=60)
        if result.terminated:
            assert satisfies_all(result.instance, tgds)

    @given(chase_inputs())
    @common
    def test_derivations_validate(self, inputs):
        tgds, database = inputs
        result = restricted_chase(database, tgds, max_steps=25)
        result.derivation.validate(tgds)

    @given(chase_inputs())
    @common
    def test_database_preserved(self, inputs):
        tgds, database = inputs
        result = restricted_chase(database, tgds, max_steps=25)
        assert set(database) <= set(result.instance)

    @given(chase_inputs())
    @common
    def test_restricted_atoms_inside_oblivious(self, inputs):
        tgds, database = inputs
        oblivious = oblivious_chase(database, tgds, max_atoms=400, max_rounds=12)
        if not oblivious.terminated:
            return
        restricted = restricted_chase(database, tgds, max_steps=60)
        assert set(restricted.instance) <= set(oblivious.instance)

    @given(chase_inputs(), st.integers(0, 3))
    @common
    def test_fact_3_5_on_random_inputs(self, inputs, steps):
        tgds, database = inputs
        result = restricted_chase(database, tgds, max_steps=steps)
        for trigger in triggers_on(tgds, result.instance):
            assert active_iff_unstopped(result.instance, trigger)

    @given(chase_inputs())
    @common
    def test_strategy_invariance_of_termination_for_wa(self, inputs):
        # For weakly-acyclic sets every strategy terminates; we only assert
        # consistency between two strategies' termination on a safe bound.
        from repro.tgds.acyclicity import is_weakly_acyclic

        tgds, database = inputs
        if not is_weakly_acyclic(tgds):
            return
        fifo = restricted_chase(database, tgds, max_steps=500)
        lifo = restricted_chase(database, tgds, strategy="lifo", max_steps=500)
        assert fifo.terminated and lifo.terminated
