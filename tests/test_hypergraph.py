import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import (
    FirmWorkerHypergraph,
    HyperCycle,
    build_hypergraph,
    check_balanced,
    is_cycle,
    is_nontrivial_odd,
)
from matchkit import DiscreteMarket, TuMarket, io
from matchkit.cli import main
from matchkit.errors import WorkBudgetExceeded
from matchkit.generator import GenParams, SplitMix64, gen_discrete_market, gen_tu_market
from matchkit import hypergraph
from matchkit.hypergraph import iter_cycles

import cycle_oracles
from cycle_oracles import (
    canonical_cycle,
    cycle_incidence_matrix,
    enumerate_cycles,
    incidence_matrix,
)
from golden import SUITE_PARAMS

FIXTURES = Path(__file__).parent / "fixtures"

fs = frozenset


def balanced_oracle(h: FirmWorkerHypergraph) -> bool:
    """Independent balancedness check via the matrix characterization: the
    hypergraph is balanced iff its incidence matrix has no odd-order square
    submatrix with exactly two ones in every row and every column."""
    m = incidence_matrix(h)
    r, c = m.shape
    for k in range(3, min(r, c) + 1, 2):
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                if all(
                    sum(m.entries[i][j] for j in cols) == 2 for i in rows
                ) and all(sum(m.entries[i][j] for i in rows) == 2 for j in cols):
                    return False
    return True


class TestBuildHypergraph:
    def test_market1_edges(self, market1):
        h = build_hypergraph(market1)
        assert set(h.edges) == {
            ("f1", fs({"w1", "w2"})),
            ("f2", fs({"w1"})),
            ("f2", fs({"w2"})),
        }
        assert h.vertices == fs({"f1", "f2", "w1", "w2"})

    def test_example1_edges(self, example1_tu):
        h = build_hypergraph(example1_tu)
        assert len(h.edges) == 5
        assert set(h.edges) == {
            ("f1", fs({"w1", "w2"})),
            ("f1", fs({"w1"})),
            ("f2", fs({"w1"})),
            ("f2", fs({"w3"})),
            ("f3", fs({"w2", "w3"})),
        }

    def test_no_acceptable_sets(self):
        m = gen_tu_market(GenParams(seed=0, firm_count=2, worker_count=2,
                                    max_acceptable_sets_per_firm=0, max_set_size=1))
        h = build_hypergraph(m)
        assert h.edges == ()
        assert len(h.vertices) == 4  # isolated vertices kept

    def test_discrete_uses_satisfactory_sets(self):
        m = gen_discrete_market(GenParams(seed=3))
        h = build_hypergraph(m)
        from matchkit import satisfactory_sets

        for f, s in h.edges:
            assert s in satisfactory_sets(m, f)


class TestIsCycle:
    def test_example1_odd_cycle(self, example1_tu):
        h = build_hypergraph(example1_tu)
        e = {edge: i for i, edge in enumerate(h.edges)}
        c = HyperCycle(
            vertices=("w1", "f1", "w2", "w3", "f2"),
            edges=(
                e[("f1", fs({"w1"}))],
                e[("f1", fs({"w1", "w2"}))],
                e[("f3", fs({"w2", "w3"}))],
                e[("f2", fs({"w3"}))],
                e[("f2", fs({"w1"}))],
            ),
        )
        assert is_cycle(h, c)
        assert not is_nontrivial_odd(h, c)  # the pair edge meets 3 vertices

    def test_repeated_edge_rejected(self, market1):
        h = build_hypergraph(market1)
        c = HyperCycle(vertices=("w1", "w2"), edges=(0, 0))
        assert not is_cycle(h, c)

    def test_appendix_c_cycle(self, appendix_c_tu):
        h = build_hypergraph(appendix_c_tu)
        e = {edge[0]: i for i, edge in enumerate(h.edges)}
        c = HyperCycle(
            vertices=("w1", "w2", "w3"), edges=(e["f1"], e["f2"], e["f3"])
        )
        assert is_cycle(h, c)
        assert is_nontrivial_odd(h, c)

    def test_edge_index_out_of_range(self, market1):
        h = build_hypergraph(market1)
        with pytest.raises(IndexError):
            is_cycle(h, HyperCycle(vertices=("w1", "w2"), edges=(0, 99)))

    def test_intro_cycle_nontrivial_without_f1(self, market1):
        # The big edge contains f1, but f1 is not a cycle vertex.
        h = build_hypergraph(market1)
        e = {edge: i for i, edge in enumerate(h.edges)}
        c = HyperCycle(
            vertices=("w1", "w2", "f2"),
            edges=(
                e[("f1", fs({"w1", "w2"}))],
                e[("f2", fs({"w2"}))],
                e[("f2", fs({"w1"}))],
            ),
        )
        assert is_cycle(h, c)
        assert is_nontrivial_odd(h, c)

    def test_two_cycle_is_even(self, example1_tu):
        h = build_hypergraph(example1_tu)
        e = {edge: i for i, edge in enumerate(h.edges)}
        c = HyperCycle(
            vertices=("f1", "w1"),
            edges=(e[("f1", fs({"w1", "w2"}))], e[("f1", fs({"w1"}))]),
        )
        assert is_cycle(h, c)
        assert not is_nontrivial_odd(h, c)


class TestEnumerateCycles:
    def test_market1_unique_odd_nontrivial(self, market1):
        h = build_hypergraph(market1)
        found = enumerate_cycles(h, odd_only=True, nontrivial_only=True)
        assert len(found) == 1
        assert len(found[0]) == 3

    def test_example1_unique_odd(self, example1_tu):
        h = build_hypergraph(example1_tu)
        found = enumerate_cycles(h, odd_only=True)
        assert len(found) == 1
        assert len(found[0]) == 5

    def test_marriage_single_even_cycle(self, marriage):
        h = build_hypergraph(marriage)
        found = enumerate_cycles(h)
        assert [len(c) for c in found] == [4]

    def test_canonicalization_idempotent(self, example1_tu):
        h = build_hypergraph(example1_tu)
        for c in enumerate_cycles(h):
            assert canonical_cycle(c) == c

    def test_no_equivalent_duplicates(self):
        for seed in range(25):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            h = build_hypergraph(m)
            found = enumerate_cycles(h)
            keys = {(c.vertices, c.edges) for c in found}
            assert len(keys) == len(found)
            for c in found:
                assert is_cycle(h, c)

    def test_budget_exhaustion_is_an_error(self, example1_tu):
        h = build_hypergraph(example1_tu)
        with pytest.raises(WorkBudgetExceeded):
            enumerate_cycles(h, budget=2)

    @pytest.mark.parametrize("firms", [set(), {"f1"}])
    def test_fewer_than_two_vertices(self, firms):
        m = TuMarket(firms=firms, workers=set(), firm_valuations={}, worker_valuations={})
        h = build_hypergraph(m)
        assert enumerate_cycles(h) == []
        assert enumerate_cycles(h, odd_only=True, nontrivial_only=True) == []


class TestCheckBalanced:
    def test_example1_balanced(self, example1_tu):
        assert check_balanced(build_hypergraph(example1_tu)).balanced

    def test_market1_unbalanced_with_witness(self, market1):
        h = build_hypergraph(market1)
        v = check_balanced(h)
        assert not v.balanced
        assert len(v.witness) == 3
        assert is_cycle(h, v.witness)
        assert is_nontrivial_odd(h, v.witness)

    def test_appendix_c_unbalanced(self, appendix_c_tu):
        h = build_hypergraph(appendix_c_tu)
        v = check_balanced(h)
        assert not v.balanced
        assert set(v.witness.vertices) == {"w1", "w2", "w3"}

    def test_witness_always_verifies(self):
        for seed in range(60):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=4, worker_count=5,
                                              max_acceptable_sets_per_firm=3,
                                              max_set_size=3))
            h = build_hypergraph(m)
            v = check_balanced(h)
            if not v.balanced:
                assert is_cycle(h, v.witness)
                assert is_nontrivial_odd(h, v.witness)

    def test_matches_matrix_oracle_on_small_markets(self):
        agree = 0
        for seed in range(80):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=4, worker_count=4,
                                              max_acceptable_sets_per_firm=3,
                                              max_set_size=3))
            h = build_hypergraph(m)
            assert check_balanced(h).balanced == balanced_oracle(h)
            agree += 1
        assert agree == 80

    def test_edge_subset_monotonicity(self):
        for seed in range(40):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=5,
                                        max_acceptable_sets_per_firm=3, max_set_size=3))
            h = build_hypergraph(m)
            if not check_balanced(h).balanced:
                continue
            # Dropping any one edge keeps the hypergraph balanced.
            for skip in range(len(h.edges)):
                sub = FirmWorkerHypergraph(
                    vertices=h.vertices,
                    edges=tuple(e for i, e in enumerate(h.edges) if i != skip),
                )
                assert check_balanced(sub).balanced

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_bipartite_reduction(self, seed):
        # Unit-demand markets only produce 2-member edges: always balanced.
        m = gen_discrete_market(GenParams(seed=seed, firm_count=4, worker_count=5,
                                          max_acceptable_sets_per_firm=4,
                                          max_set_size=1))
        assert check_balanced(build_hypergraph(m)).balanced


def assignment_game(n_firms: int, n_workers: int, seed: int = 0) -> TuMarket:
    """Complete assignment game: every firm values every single worker."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(n_firms)]
    workers = [f"w{j}" for j in range(n_workers)]
    return TuMarket(
        firms=set(firms),
        workers=set(workers),
        firm_valuations={f: {fs({w}): rng.randint(1, 9) for w in workers} for f in firms},
        worker_valuations={w: {f: rng.randint(0, 3) for f in firms} for w in workers},
    )


def marriage_market(n_firms: int, n_workers: int, seed: int = 0) -> DiscreteMarket:
    """Complete marriage market: strict rankings over all single partners."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(n_firms)]
    workers = [f"w{j}" for j in range(n_workers)]

    def ranking(items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = rng.randint(0, i)
            items[i], items[j] = items[j], items[i]
        return tuple(items)

    return DiscreteMarket(
        firms=set(firms),
        workers=set(workers),
        firm_prefs={f: ranking(fs({w}) for w in workers) for f in firms},
        worker_prefs={w: ranking(firms) for w in workers},
    )


class TestBipartiteShortcut:
    """With at most one worker per edge the hypergraph is a bipartite graph,
    so the odd-cycle search yields nothing without searching."""

    UNIT_DEMAND = [assignment_game(n, n, seed=n) for n in (3, 4, 5)] + [
        marriage_market(2, 3, seed=1),
        marriage_market(3, 3, seed=2),
        marriage_market(4, 5, seed=3),
    ]

    @pytest.mark.parametrize("market", UNIT_DEMAND, ids=lambda m: f"{len(m.firms)}x{len(m.workers)}")
    def test_agrees_with_the_full_search(self, market):
        h = build_hypergraph(market)
        # The oracle's search of all cycles takes no shortcut.
        searched = list(cycle_oracles.iter_cycles(h))
        assert searched
        assert not [c for c in searched if len(c) % 2]
        assert list(iter_cycles(h, budget=0)) == []
        assert check_balanced(h, budget=0).balanced

    def test_large_assignment_game_balance_needs_no_budget(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(io.to_canonical_json(io.serialize_market(assignment_game(8, 12))))
        assert main(["balance", str(path), "--budget", "1"]) == 0
        assert "balanced: yes" in capsys.readouterr().out

    def test_one_multi_worker_edge_still_searches(self, marriage):
        prefs = dict(marriage.firm_prefs)
        prefs["x1"] = (fs({"m1", "m2"}),) + prefs["x1"]
        m = DiscreteMarket(
            firms=marriage.firms,
            workers=marriage.workers,
            firm_prefs=prefs,
            worker_prefs=marriage.worker_prefs,
        )
        with pytest.raises(WorkBudgetExceeded):
            check_balanced(build_hypergraph(m), budget=0)

    @pytest.mark.parametrize(
        "name, witness",
        [
            ("appendixC_discrete.json", (("w1", "w2", "w3"), (0, 1, 2))),
            ("appendixC_tu.json", (("w1", "w2", "w3"), (0, 1, 2))),
            ("example1_tu.json", None),
            ("example2_discrete.json", None),
            ("example3_discrete.json", (("f2", "w1", "w2"), (1, 0, 3))),
            ("intro_discrete.json", (("f2", "w1", "w2"), (1, 0, 2))),
            ("intro_tu.json", (("f2", "w1", "w2"), (1, 0, 2))),
            ("marriage.json", None),
            ("profile13.json", None),
        ],
    )
    def test_fixture_witnesses_unchanged(self, name, witness):
        v = check_balanced(build_hypergraph(io.load_market(str(FIXTURES / name))))
        assert v.balanced == (witness is None)
        if witness is not None:
            assert (v.witness.vertices, v.witness.edges) == witness


def _run(search) -> tuple[list[HyperCycle], str | None]:
    """The cycles a search yields, and its budget error if it stops on one."""
    found = []
    try:
        for c in search:
            found.append(c)
    except WorkBudgetExceeded as e:
        return found, str(e)
    return found, None


def all_sets_market(n_firms: int, n_workers: int) -> TuMarket:
    """Every firm lists every 1- and 2-worker set: a dense hypergraph with
    thousands of nontrivial odd cycles, each met from both ends."""
    workers = [f"w{j}" for j in range(n_workers)]
    sets = [fs(c) for k in (1, 2) for c in combinations(workers, k)]
    firms = [f"f{i}" for i in range(n_firms)]
    return TuMarket(
        firms=set(firms),
        workers=set(workers),
        firm_valuations={f: dict.fromkeys(sets, 1) for f in firms},
        worker_valuations={w: dict.fromkeys(firms, 0) for w in workers},
    )


def _differential_markets():
    for seed in range(500):
        params = GenParams(seed=seed, **SUITE_PARAMS)
        yield f"suite-tu-{seed}", gen_tu_market(params)
        yield f"suite-discrete-{seed}", gen_discrete_market(params)
    # The shapes TestCheckBalanced searches, with their seeds.
    for seed in range(80):
        yield f"4x5-{seed}", gen_discrete_market(GenParams(
            seed=seed, firm_count=4, worker_count=5,
            max_acceptable_sets_per_firm=3, max_set_size=3))
        yield f"4x4-{seed}", gen_discrete_market(GenParams(
            seed=seed, firm_count=4, worker_count=4,
            max_acceptable_sets_per_firm=3, max_set_size=3))
        yield f"3x5-tu-{seed}", gen_tu_market(GenParams(
            seed=seed, firm_count=3, worker_count=5,
            max_acceptable_sets_per_firm=3, max_set_size=3))
        yield f"unit-{seed}", gen_discrete_market(GenParams(
            seed=seed, firm_count=4, worker_count=5,
            max_acceptable_sets_per_firm=4, max_set_size=1))
    for market in TestBipartiteShortcut.UNIT_DEMAND:
        yield f"game-{len(market.firms)}x{len(market.workers)}", market
    # 25,206 cycles in 1.2 million steps.
    yield "all-sets-3x5", all_sets_market(3, 5)


class TestAgainstTheFourModeSearch:
    """``iter_cycles`` is the four-mode search of ``cycle_oracles`` in its
    nontrivial odd mode: the same cycles in the same order, the same
    budget steps, and the same prefix before a budget exit."""

    MARKETS = list(_differential_markets())

    def test_same_cycles_and_steps(self, monkeypatch):
        spent = []

        class Recorded(hypergraph._Budget):
            __slots__ = ()

            def __init__(self, steps, search):
                super().__init__(steps, search)
                spent.append(self)

        monkeypatch.setattr(hypergraph, "_Budget", Recorded)
        monkeypatch.setattr(cycle_oracles, "_Budget", Recorded)
        with_cycles = 0
        for name, market in self.MARKETS:
            h = build_hypergraph(market)
            spent.clear()
            got = list(iter_cycles(h))
            want = list(cycle_oracles.iter_cycles(h, odd_only=True, nontrivial_only=True))
            assert got == want, name
            assert [b.left for b in spent[:1]] == [b.left for b in spent[1:]], name
            with_cycles += bool(got)
        assert with_cycles > 500

    @pytest.mark.parametrize("budget", [0, 5, 50, 500])
    def test_same_prefix_and_error_under_a_small_budget(self, budget):
        exits = 0
        for name, market in self.MARKETS:
            h = build_hypergraph(market)
            got = _run(iter_cycles(h, budget=budget))
            want = _run(
                cycle_oracles.iter_cycles(h, odd_only=True, nontrivial_only=True, budget=budget)
            )
            assert got == want, name
            exits += got[1] is not None
        assert exits > 0

    @pytest.mark.parametrize(
        "shape, budget", [((3, 5), 2_000), ((3, 5), 100_000), ((3, 6), 200_000)]
    )
    def test_same_prefix_on_an_all_sets_market(self, shape, budget):
        h = build_hypergraph(all_sets_market(*shape))
        got = _run(iter_cycles(h, budget=budget))
        want = _run(
            cycle_oracles.iter_cycles(h, odd_only=True, nontrivial_only=True, budget=budget)
        )
        assert got == want
        assert got[0] and got[1] is not None

    def test_same_prefix_on_guard_limit_markets(self):
        # TU markets at the size guard; seed 10's first witness is the
        # costliest search among them.  Every one of the 40 searches stops
        # on the budget, most after yielding cycles.
        with_cycles = 0
        for seed in range(40):
            market = gen_tu_market(GenParams(
                seed=seed, firm_count=8, worker_count=12,
                max_acceptable_sets_per_firm=8, max_set_size=4))
            h = build_hypergraph(market)
            got = _run(iter_cycles(h, budget=20_000))
            want = _run(cycle_oracles.iter_cycles(
                h, odd_only=True, nontrivial_only=True, budget=20_000))
            assert got == want, seed
            with_cycles += bool(got[0])
        assert with_cycles > 20

    def test_search_memory_grows_with_the_path(self):
        # Nothing is kept per cycle found: the 6,949 cycles before this
        # budget exit leave the peak where the path puts it.
        h = build_hypergraph(all_sets_market(3, 6))
        tracemalloc.start()
        try:
            with pytest.raises(WorkBudgetExceeded):
                for _ in iter_cycles(h, budget=200_000):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19


class TestIncidence:
    def test_single_edge_column_of_ones(self):
        h = FirmWorkerHypergraph(
            vertices=fs({"f", "w"}), edges=(("f", fs({"w"})),)
        )
        m = incidence_matrix(h)
        assert m.shape == (2, 1)
        assert m.column(0) == (1, 1)

    def test_example1_shape_and_column_sums(self, example1_tu):
        m = incidence_matrix(build_hypergraph(example1_tu))
        assert m.shape == (6, 5)
        assert sorted(sum(m.column(j)) for j in range(5)) == [2, 2, 2, 3, 3]

    def test_market1_cycle_incidence_is_the_odd_cycle_matrix(self, market1):
        h = build_hypergraph(market1)
        witness = check_balanced(h).witness
        m = cycle_incidence_matrix(h, witness)
        assert m.shape == (3, 3)
        # Exactly two ones in every row and column: the odd-cycle pattern.
        assert all(sum(row) == 2 for row in m.entries)
        assert all(sum(m.column(j)) == 2 for j in range(3))
        assert m.rows == ("f2", "w1", "w2")

    def test_isolated_vertices_give_zero_rows(self):
        h = FirmWorkerHypergraph(
            vertices=fs({"f", "g", "w"}), edges=(("f", fs({"w"})),)
        )
        m = incidence_matrix(h)
        assert m.entries[m.rows.index("g")] == (0,)
