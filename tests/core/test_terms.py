"""Unit tests for repro.core.terms."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.core.terms import (
    Constant,
    FreshNullFactory,
    FreshVariableFactory,
    Null,
    Variable,
    constants_of,
    nulls_of,
    variables_of,
)


class TestTermIdentity:
    def test_constants_equal_by_name(self):
        assert Constant("a") == Constant("a")

    def test_constants_differ_by_name(self):
        assert Constant("a") != Constant("b")

    def test_kinds_never_equal(self):
        assert Constant("a") != Null("a")
        assert Null("a") != Variable("a")
        assert Constant("a") != Variable("a")

    def test_hash_consistent_with_equality(self):
        assert hash(Constant("a")) == hash(Constant("a"))
        assert len({Constant("a"), Constant("a"), Null("a")}) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Constant("")

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError):
            Constant(3)  # type: ignore[arg-type]


class TestInterning:
    """Equal terms are one object; every copy path returns that object."""

    def test_equal_terms_are_identical(self):
        assert Constant("a") is Constant("a")
        assert Null("6eeacdccd8.z") is Null("6eeacdccd8.z")

    def test_kinds_are_distinct_objects(self):
        assert Null("a") is not Constant("a")
        assert Variable("a") is not Null("a")
        assert Variable("f(a)") is not Null("f(a)")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Constant("a"),
            lambda: Null("n1"),
            lambda: Variable("x"),
            lambda: Null("6eeacdccd8a53e73c1.z"),
        ],
    )
    def test_copies_return_the_same_object(self, make):
        term = make()
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert copy.deepcopy([term, (term,)])[1][0] is term

    def test_terms_are_immutable(self):
        with pytest.raises(AttributeError):
            Constant("a").name = "b"  # type: ignore[misc]

    def test_concurrent_construction_agrees_on_one_object(self):
        # Threads racing to create the same new terms must all get the one
        # published object (a lost update would hand out duplicates).
        names = [f"race-{i}" for i in range(400)]
        workers = 8
        barrier = threading.Barrier(workers)
        results = []

        def build():
            barrier.wait(timeout=10)
            results.append([Null(name) for name in names])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers
        for built in results[1:]:
            assert all(a is b for a, b in zip(results[0], built))

    def test_unreferenced_terms_leave_the_table(self):
        Null("transient-null")
        gc.collect()
        assert "transient-null" not in Null._interned

    def test_late_callback_keeps_the_replacing_term(self):
        # The entry of a collected term may be replaced before the old
        # reference's callback runs; that callback must leave the live
        # replacement in the table.
        term = Null("replaced-null")
        old_ref = Null._interned["replaced-null"]
        callback = old_ref.__callback__
        del term
        gc.collect()
        assert old_ref() is None
        replacement = Null("replaced-null")
        callback(old_ref)
        assert Null._interned["replaced-null"]() is replacement
        assert Null("replaced-null") is replacement

    def test_dead_entry_is_replaced(self):
        # A dead reference still in the table (its callback not yet run)
        # is replaced by the next construction, not returned.
        class Gone:
            pass

        dead = weakref.ref(Gone())
        assert dead() is None
        Constant._interned["dead-entry"] = dead
        term = Constant("dead-entry")
        assert isinstance(term, Constant) and term.name == "dead-entry"
        assert Constant._interned["dead-entry"]() is term
        assert Constant("dead-entry") is term
        del term
        gc.collect()
        assert "dead-entry" not in Constant._interned


class TestOrdering:
    def test_constants_before_nulls_before_variables(self):
        terms = [Variable("a"), Null("a"), Constant("a")]
        assert sorted(terms) == [Constant("a"), Null("a"), Variable("a")]

    def test_within_kind_by_name(self):
        assert Constant("a") < Constant("b")
        assert not Constant("b") < Constant("a")

    def test_total_order_operators(self):
        assert Constant("a") <= Constant("a")
        assert Null("z") > Constant("z")
        assert Variable("x") >= Null("x")

    def test_comparison_with_non_term(self):
        with pytest.raises(TypeError):
            _ = Constant("a") < 5


class TestKindPredicates:
    def test_is_constant(self):
        assert Constant("a").is_constant
        assert not Null("a").is_constant

    def test_is_null(self):
        assert Null("n").is_null
        assert not Variable("n").is_null

    def test_is_variable(self):
        assert Variable("x").is_variable
        assert not Constant("x").is_variable


class TestFactories:
    def test_fresh_nulls_distinct(self):
        factory = FreshNullFactory()
        assert factory.fresh() != factory.fresh()

    def test_fresh_many(self):
        factory = FreshNullFactory("m")
        batch = factory.fresh_many(5)
        assert len(set(batch)) == 5
        assert all(isinstance(n, Null) for n in batch)

    def test_fresh_variables(self):
        factory = FreshVariableFactory()
        v1, v2 = factory.fresh(), factory.fresh()
        assert v1 != v2
        assert v1.is_variable


class TestFilters:
    def test_partitioning_helpers(self):
        terms = [Constant("a"), Null("n"), Variable("x"), Constant("b")]
        assert constants_of(terms) == {Constant("a"), Constant("b")}
        assert nulls_of(terms) == {Null("n")}
        assert variables_of(terms) == {Variable("x")}

    def test_repr_distinguishes_kinds(self):
        assert repr(Constant("a")) == "a"
        assert repr(Null("n")) == "?n"
        assert repr(Variable("x")) == "x"
