"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.parsing import parse_database
from repro.tgds.tgd import parse_tgds


@pytest.fixture
def intro_tgds():
    """The Section 1 intro example: ``R(x,y) → ∃z R(x,z)``."""
    return parse_tgds(["R(x,y) -> R(x,z)"])


@pytest.fixture
def intro_database():
    return parse_database("R(a,b)")


@pytest.fixture
def example_32_tgds():
    """Example 3.2: σ1..σ4 over P, R, S."""
    return parse_tgds(
        [
            "P(x,y) -> R(x,y)",
            "P(x,y) -> S(x)",
            "R(x,y) -> S(x)",
            "S(x) -> R(x,y)",
        ]
    )


@pytest.fixture
def example_32_database():
    return parse_database("P(a,b)")


@pytest.fixture
def example_56_tgds():
    """Example 5.6: remote-side-parent showcase."""
    return parse_tgds(
        [
            "S(x,y) -> T(x)",
            "R(x,y), T(y) -> P(x,y)",
            "P(x,y) -> P(y,z)",
        ]
    )


@pytest.fixture
def example_56_database():
    return parse_database("R(a,b), S(b,c)")


@pytest.fixture
def sticky_pair():
    """The Section 2 marking figures: (sticky set, non-sticky set)."""
    sticky = parse_tgds(["T(x,y,z) -> S(y,w)", "R(x,y), P(y,z) -> T(x,y,w)"])
    non_sticky = parse_tgds(["T(x,y,z) -> S(x,w)", "R(x,y), P(y,z) -> T(x,y,w)"])
    return sticky, non_sticky


@pytest.fixture
def diverging_linear():
    """``R(x,y) → ∃z R(y,z)``: diverges on every non-empty R database."""
    return parse_tgds(["R(x,y) -> R(y,z)"])
