"""Shared fixtures: the worked-example markets used across the suite, and
CPython's int-to-decimal digit limit."""

import sys

import pytest

from matchkit import DiscreteMarket, Roadmap, TuMarket

fs = frozenset


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
    return TuMarket(
        firms={"f1", "f2"},
        workers={"w1", "w2"},
        firm_valuations={
            "f1": {fs({"w1", "w2"}): 6},
            "f2": {fs({"w1"}): 4, fs({"w2"}): 4},
        },
        worker_valuations={"w1": {"f1": 0, "f2": 0}, "w2": {"f1": 0, "f2": 0}},
    )


@pytest.fixture
def market1():
    """The discrete two-firm market with no stable matching."""
    return DiscreteMarket(
        firms={"f1", "f2"},
        workers={"w1", "w2"},
        firm_prefs={
            "f1": (fs({"w1", "w2"}),),
            "f2": (fs({"w1"}), fs({"w2"})),
        },
        worker_prefs={"w1": ("f1", "f2"), "w2": ("f2", "f1")},
    )


@pytest.fixture
def example1_tu():
    """Three firms, three workers, balanced hypergraph; workers value all
    firms at 0."""
    return TuMarket(
        firms={"f1", "f2", "f3"},
        workers={"w1", "w2", "w3"},
        firm_valuations={
            "f1": {fs({"w1", "w2"}): 3, fs({"w1"}): 1},
            "f2": {fs({"w1"}): 2, fs({"w3"}): 1},
            "f3": {fs({"w2", "w3"}): 2},
        },
        worker_valuations={
            w: {f: 0 for f in ("f1", "f2", "f3")} for w in ("w1", "w2", "w3")
        },
    )


@pytest.fixture
def example2_discrete():
    """Discrete version of the balanced three-firm market, with the worker
    preferences that make the odd cycle look like an instability cycle."""
    return DiscreteMarket(
        firms={"f1", "f2", "f3"},
        workers={"w1", "w2", "w3"},
        firm_prefs={
            "f1": (fs({"w1", "w2"}), fs({"w1"})),
            "f2": (fs({"w1"}), fs({"w3"})),
            "f3": (fs({"w2", "w3"}),),
        },
        worker_prefs={
            "w1": ("f1", "f2"),
            "w2": ("f3", "f1"),
            "w3": ("f2", "f3"),
        },
    )


@pytest.fixture
def example3_discrete():
    """f2 prefers the pair over either singleton: the odd cycle no longer
    qualifies under the pairwise-choice condition."""
    return DiscreteMarket(
        firms={"f1", "f2"},
        workers={"w1", "w2"},
        firm_prefs={
            "f1": (fs({"w1", "w2"}),),
            "f2": (fs({"w1", "w2"}), fs({"w1"}), fs({"w2"})),
        },
        worker_prefs={"w1": ("f1", "f2"), "w2": ("f2", "f1")},
    )


@pytest.fixture
def marriage():
    """Unit-demand market with a length-4 cycle and two stable matchings
    (women cast as firms)."""
    return DiscreteMarket(
        firms={"x1", "x2"},
        workers={"m1", "m2"},
        firm_prefs={
            "x1": (fs({"m2"}), fs({"m1"})),
            "x2": (fs({"m1"}), fs({"m2"})),
        },
        worker_prefs={"m1": ("x1", "x2"), "m2": ("x2", "x1")},
    )


@pytest.fixture
def appendix_c_tu():
    """Three overlapping 4-member edges around w4: unbalanced, yet stable
    matchings always exist."""
    return TuMarket(
        firms={"f1", "f2", "f3"},
        workers={"w1", "w2", "w3", "w4"},
        firm_valuations={
            "f1": {fs({"w1", "w2", "w4"}): 5},
            "f2": {fs({"w2", "w3", "w4"}): 3},
            "f3": {fs({"w1", "w3", "w4"}): 3},
        },
        worker_valuations={
            w: {f: 0 for f in ("f1", "f2", "f3")}
            for w in ("w1", "w2", "w3", "w4")
        },
    )


@pytest.fixture
def appendix_c_discrete():
    """Same hypergraph, one acceptable set per firm; every worker ranks f1
    first (w4's favorite is f1)."""
    return DiscreteMarket(
        firms={"f1", "f2", "f3"},
        workers={"w1", "w2", "w3", "w4"},
        firm_prefs={
            "f1": (fs({"w1", "w2", "w4"}),),
            "f2": (fs({"w2", "w3", "w4"}),),
            "f3": (fs({"w1", "w3", "w4"}),),
        },
        worker_prefs={
            w: ("f1", "f2", "f3") for w in ("w1", "w2", "w3", "w4")
        },
    )


@pytest.fixture
def roadmap_example4():
    """Six technologies; v3 is reachable from v1 or v2, v5 from v3 or v6."""
    return Roadmap(
        technologies={"v1", "v2", "v3", "v4", "v5", "v6"},
        edges=(("v1", "v3"), ("v2", "v3"), ("v3", "v4"), ("v3", "v5"), ("v6", "v5")),
        demanded={
            "v1": fs({"w1"}),
            "v2": fs({"w2", "w3"}),
            "v3": fs({"w1", "w2"}),
            "v4": fs({"w2", "w4"}),
            "v5": fs({"w1", "w5"}),
            "v6": fs({"w5"}),
        },
    )


@pytest.fixture
def profile13():
    """Firms specialized along the example roadmap's technology paths."""
    return DiscreteMarket(
        firms={"f1", "f2", "f3"},
        workers={"w1", "w2", "w3", "w4", "w5"},
        firm_prefs={
            "f1": (fs({"w2", "w4"}), fs({"w1"})),
            "f2": (fs({"w2", "w3"}),),
            "f3": (fs({"w1", "w5"}), fs({"w5"})),
        },
        worker_prefs={
            w: ("f1", "f2", "f3") for w in ("w1", "w2", "w3", "w4", "w5")
        },
    )


@pytest.fixture
def counter_roadmap_1():
    """w1 engages in two isolated vertices: not a specialist."""
    return Roadmap(
        technologies={"v1", "v2", "v3"},
        edges=(("v1", "v2"), ("v2", "v3")),
        demanded={"v1": fs({"w1"}), "v2": fs({"w2"}), "v3": fs({"w1", "w2"})},
    )


@pytest.fixture
def counter_roadmap_2():
    """Specialist workers, but the two firms' sets force overlapping
    paths."""
    return Roadmap(
        technologies={"v1", "v2", "v3"},
        edges=(("v1", "v2"), ("v2", "v3")),
        demanded={"v1": fs({"w1"}), "v2": fs({"w1", "w2"}), "v3": fs({"w2"})},
    )
