"""Shared fixtures: the worked examples under ``fixtures/`` and CPython's digit limit."""

import sys
from pathlib import Path

import pytest

from matchkit import Roadmap, io

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def digit_limit():
    """Set CPython's int-to-decimal digit limit for one test (0: none)."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def intro_tu():
    """Two firms, two workers: f1 wants the pair (worth 6), f2 wants either
    alone (worth 4); workers care only about wages."""
    return io.load_market(FIXTURES / "intro_tu.json")


@pytest.fixture
def market1():
    """The discrete two-firm market with no stable matching."""
    return io.load_market(FIXTURES / "intro_discrete.json")


@pytest.fixture
def example1_tu():
    """Three firms, three workers, balanced hypergraph; workers value all
    firms at 0."""
    return io.load_market(FIXTURES / "example1_tu.json")


@pytest.fixture
def example2_discrete():
    """Discrete version of the balanced three-firm market, with the worker
    preferences that make the odd cycle look like an instability cycle."""
    return io.load_market(FIXTURES / "example2_discrete.json")


@pytest.fixture
def example3_discrete():
    """f2 prefers the pair over either singleton: the odd cycle no longer
    qualifies under the pairwise-choice condition."""
    return io.load_market(FIXTURES / "example3_discrete.json")


@pytest.fixture
def marriage():
    """Unit-demand market with a length-4 cycle and two stable matchings
    (women cast as firms)."""
    return io.load_market(FIXTURES / "marriage.json")


@pytest.fixture
def appendix_c_tu():
    """Three overlapping 4-member edges around w4: unbalanced, yet stable
    matchings always exist."""
    return io.load_market(FIXTURES / "appendixC_tu.json")


@pytest.fixture
def appendix_c_discrete():
    """Same hypergraph, one acceptable set per firm; every worker ranks f1
    first (w4's favorite is f1)."""
    return io.load_market(FIXTURES / "appendixC_discrete.json")


@pytest.fixture
def roadmap_example4():
    """Six technologies; v3 is reachable from v1 or v2, v5 from v3 or v6."""
    return io.load_roadmap(FIXTURES / "example4_roadmap.json")


@pytest.fixture
def profile13():
    """Firms specialized along the example roadmap's technology paths."""
    return io.load_market(FIXTURES / "profile13.json")


@pytest.fixture
def counter_roadmap_1():
    """w1 engages in two isolated vertices: not a specialist."""
    return io.load_roadmap(FIXTURES / "counter1_roadmap.json")


@pytest.fixture
def counter_roadmap_2():
    """Specialist workers, but the two firms' sets force overlapping paths."""
    return Roadmap(
        technologies={"v1", "v2", "v3"}, edges=(("v1", "v2"), ("v2", "v3")),
        demanded={"v1": {"w1"}, "v2": {"w1", "w2"}, "v3": {"w2"}},
    )
