"""Unit tests for repro.tgds.guardedness."""

import pytest

from repro.tgds.guardedness import (
    check_guarded_set,
    guard_index,
    guard_of,
    is_guarded,
    is_guarded_tgd,
    is_linear,
    is_linear_tgd,
    side_atoms,
)
from repro.tgds.tgd import TGD, parse_tgds


class TestGuards:
    def test_linear_is_guarded(self):
        tgd = TGD.parse("R(x,y) -> S(x)")
        assert is_linear_tgd(tgd)
        assert is_guarded_tgd(tgd)
        assert guard_of(tgd) == tgd.body[0]

    def test_leftmost_guard_chosen(self):
        tgd = TGD.parse("R(x,y), Q(x,y) -> S(x)")
        assert guard_of(tgd) == tgd.body[0]

    def test_guard_must_cover_all_body_vars(self):
        tgd = TGD.parse("R(x,y), P(y,z) -> S(x)")
        assert guard_of(tgd) is None
        assert not is_guarded_tgd(tgd)

    def test_wide_guard(self):
        tgd = TGD.parse("P(y), G(x,y,z), Q(z) -> S(x)")
        assert guard_of(tgd).predicate == "G"

    def test_side_atoms(self):
        tgd = TGD.parse("P(y), G(x,y,z), Q(z) -> S(x)")
        sides = side_atoms(tgd)
        assert [a.predicate for a in sides] == ["P", "Q"]

    def test_guard_index(self):
        assert guard_index(TGD.parse("P(y), G(x,y,z), Q(z) -> S(x)")) == 1
        with pytest.raises(ValueError, match="not guarded"):
            guard_index(TGD.parse("R(x,y), P(y,z) -> S(x)"))

    def test_duplicated_guard_atom(self):
        # Both R atoms cover the body variables; the left-most is the guard
        # and its twin stays a side atom.
        tgd = TGD.parse("R(x,y), R(x,y), S(y) -> T(x)")
        assert guard_index(tgd) == 0
        assert side_atoms(tgd) == [tgd.body[1], tgd.body[2]]

    def test_side_atoms_requires_guarded(self):
        with pytest.raises(ValueError):
            side_atoms(TGD.parse("R(x,y), P(y,z) -> S(x)"))


class TestSetChecks:
    def test_is_guarded_set(self):
        assert is_guarded(parse_tgds(["R(x,y) -> S(x)", "S(x) -> R(x,y)"]))
        assert not is_guarded(parse_tgds(["R(x,y), P(y,z) -> S(x)"]))

    def test_is_linear_set(self):
        assert is_linear(parse_tgds(["R(x,y) -> S(x)"]))
        assert not is_linear(parse_tgds(["R(x,y), Q(x,y) -> S(x)"]))

    def test_check_guarded_set_raises(self):
        with pytest.raises(ValueError):
            check_guarded_set(parse_tgds(["R(x,y), P(y,z) -> S(x)"]))
        check_guarded_set(parse_tgds(["R(x,y) -> S(x)"]))
