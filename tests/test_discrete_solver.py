import tracemalloc
from collections import Counter
from itertools import chain, combinations, product
from pathlib import Path

import pytest

from matchkit import (
    DiscreteMarket,
    DiscreteMatching,
    check_stable_discrete,
    discrete_solver,
    enumerate_stable_matchings,
    find_blocking_coalition,
    is_individually_rational,
    run_blocking_dynamics,
)
from matchkit.cli import main
from matchkit.discrete_solver import BlockingCoalition, IrViolation
from matchkit.errors import InvalidMarketError, SizeGuardExceeded
from matchkit.generator import GenParams, gen_discrete_market
from matchkit.io import load_market, serialize_market, write_json
from matchkit.model import (
    _Budget,
    choice,
    iter_disjoint_assignments,
    satisfactory_sets,
    set_key,
)

from golden import SUITE_PARAMS, complete_marriage_market

fs = frozenset

FIXTURES = Path(__file__).parent / "fixtures"

WIDE_PARAMS = dict(
    firm_count=6,
    worker_count=10,
    max_acceptable_sets_per_firm=6,
    max_set_size=3,
)


# The rank helpers the oracles below use.  The solver reads rank tables
# instead, so these live with the tests.


def acceptable_firms(m: DiscreteMarket, w: str) -> frozenset[str]:
    return frozenset(m.worker_prefs.get(w, ()))


def firm_strictly_prefers(m: DiscreteMarket, f: str, s1, s2) -> bool:
    return m.set_rank(f, s1) < m.set_rank(f, s2)


def firm_rank(m: DiscreteMarket, w: str, f: str | None) -> int:
    """Rank of a firm for worker w: list index, len for the null firm,
    len+1 for unlisted firms."""
    prefs = m.worker_prefs.get(w, ())
    if f is None:
        return len(prefs)
    try:
        return prefs.index(f)
    except ValueError:
        return len(prefs) + 1


def worker_weakly_prefers(m: DiscreteMarket, w: str, f: str | None, g: str | None) -> bool:
    """f is weakly better than g for w (ties between two unlisted firms
    do not count as weak preference unless f == g)."""
    if f == g:
        return True
    return firm_rank(m, w, f) < firm_rank(m, w, g)


def exhaustive_stable_oracle(m: DiscreteMarket, limit=None):
    """The unpruned enumeration: every disjoint assignment of satisfactory
    sets, in DFS order, each checked by check_stable_discrete."""
    options = []
    for f in sorted(m.firms):
        opts = [(fs(), ())]
        for s in satisfactory_sets(m, f):
            if all(f in acceptable_firms(m, w) for w in s):
                opts.append((s, tuple((w, f) for w in s)))
        options.append(opts)
    found = []
    for picked in iter_disjoint_assignments(options, _Budget(10**7, "oracle")):
        mu = DiscreteMatching(assignment=chain.from_iterable(picked))
        if check_stable_discrete(m, mu).stable:
            found.append(mu)
            if limit is not None and len(found) >= limit:
                break
    if limit is None:
        found.sort(key=lambda mu: mu.key())
    return found


# The stability tests as they were before they ran on rank tables and worker
# bitmasks: one ``choice`` call and a rank helper per worker and firm.  Kept
# as oracles for the differential tests below, verbatim except that the rank
# helpers, once market methods, are the functions above.


def oracle_is_individually_rational(
    m: DiscreteMarket, mu: DiscreteMatching
) -> list[IrViolation]:
    """Violation list (empty means rational): every matched worker must find
    her firm acceptable, every firm's set must be its own choice."""
    out = []
    for w in sorted(m.workers):
        f = mu.firm_of(w)
        if f is not None and f not in acceptable_firms(m, w):
            out.append(IrViolation(agent=w, note=f"matched to unacceptable firm {f!r}"))
    for f in sorted(m.firms):
        staff = mu.workers_of(f)
        if choice(m, f, staff) != staff:
            out.append(
                IrViolation(
                    agent=f, note=f"{set_key(staff)} is not its own choice"
                )
            )
    return out


def oracle_find_blocking_coalition(
    m: DiscreteMarket, mu: DiscreteMatching
) -> BlockingCoalition | None:
    """The best block of the lowest-id blocking firm, or None.

    For each firm in id order, T_f collects the workers weakly preferring f
    to their current match; the firm blocks iff Ch_f(T_f) beats mu(f).
    """
    for f in sorted(m.firms):
        t_f = frozenset(
            w for w in m.workers if worker_weakly_prefers(m, w, f, mu.firm_of(w))
        )
        best = choice(m, f, t_f)
        if firm_strictly_prefers(m, f, best, mu.workers_of(f)):
            return BlockingCoalition(firm=f, workers=best)
    return None


def oracle_forward_blocking(m: DiscreteMarket, firms: list[str], options):
    """The prune hook of the enumeration: true when a firm placed at a slot
    up to i blocks every completion of the partial assignment.

    For a placed firm g, L_g holds the workers sure to weakly prefer g to
    their final match: an assigned worker that weakly prefers g to its firm,
    and an unassigned one that ranks g above staying unmatched and above
    every firm it could still join (a later slot with an option containing
    it).  L_g lies inside T_g in every completion, and Ch_g picks the best
    listed set inside its argument, so if Ch_g(L_g) beats g's set then g
    blocks every completion.  No substitutability is assumed.
    """
    workers = sorted(m.workers)
    rank = {w: {f: r for r, f in enumerate(m.worker_prefs.get(w, ()))} for w in workers}
    # accept[k]: (worker, its rank of firms[k]) for the workers that list it.
    accept = [[(w, rank[w][f]) for w in workers if f in rank[w]] for f in firms]
    # open_rank[i][w]: the best rank w gives a firm at a slot after i that
    # can hire it, or to staying unmatched.
    open_rank = [None] * len(firms)
    best = {w: len(rank[w]) for w in workers}
    for i in range(len(firms) - 1, -1, -1):
        open_rank[i] = dict(best)
        f = firms[i]
        for key, _ in options[i]:
            for w in key:
                best[w] = min(best[w], rank[w][f])

    def blocked(i: int, picked) -> bool:
        held = {}  # assigned worker -> its rank of its firm
        for k in range(i + 1):
            f = firms[k]
            for w in picked[k]:
                held[w] = rank[w][f]
        bound = open_rank[i]
        for k in range(i + 1):
            g = firms[k]
            pool = [
                w
                for w, r in accept[k]
                if (r <= held[w] if w in held else r < bound[w])
            ]
            if firm_strictly_prefers(m, g, choice(m, g, pool), picked[k]):
                return True
        return False

    return blocked


DISCRETE_FIXTURES = (
    "appendixC_discrete.json",
    "example2_discrete.json",
    "example3_discrete.json",
    "intro_discrete.json",
    "marriage.json",
    "profile13.json",
)


def all_matchings(m: DiscreteMarket):
    """Every worker-to-firm-or-none map, with no pruning whatsoever."""
    workers = sorted(m.workers)
    firms = sorted(m.firms)
    for combo in product([None] + firms, repeat=len(workers)):
        yield DiscreteMatching(
            assignment={w: f for w, f in zip(workers, combo) if f is not None}
        )


def probe_matchings(m: DiscreteMarket, most=500):
    """The matchings the stability tests are compared on: every matching of
    a small market; for a larger one, the disjoint assignments of listed
    sets and, per firm, of its lowest unlisted singleton, thinned to at most
    about ``most`` evenly spaced in DFS order.  Besides rational candidates
    these include workers at firms they do not list and firms holding
    unlisted or non-satisfactory sets."""
    if (len(m.firms) + 1) ** len(m.workers) <= 10_000:
        return list(all_matchings(m))
    workers = sorted(m.workers)
    options = []
    for f in sorted(m.firms):
        sets = m.firm_prefs.get(f, ())
        unlisted = next((fs({w}) for w in workers if fs({w}) not in sets), None)
        sets += (unlisted,) if unlisted else ()
        options.append([(fs(), ())] + [(s, tuple((w, f) for w in s)) for s in sets])
    picks = list(iter_disjoint_assignments(options, _Budget(10**7, "probe")))
    return [
        DiscreteMatching(assignment=chain.from_iterable(picked))
        for picked in picks[:: -(-len(picks) // most)]
    ]


class TestIndividualRationality:
    def test_empty_matching(self, market1):
        assert is_individually_rational(market1, DiscreteMatching(assignment={})) == []

    def test_unwanted_singleton(self, market1):
        mu = DiscreteMatching(assignment={"w1": "f1"})
        violations = is_individually_rational(market1, mu)
        assert any(v.agent == "f1" for v in violations)

    def test_example2_rational(self, example2_discrete):
        mu = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
        assert is_individually_rational(example2_discrete, mu) == []

    def test_worker_at_unacceptable_firm(self, example2_discrete):
        mu = DiscreteMatching(assignment={"w3": "f1"})
        violations = is_individually_rational(example2_discrete, mu)
        assert any(v.agent == "w3" for v in violations)


class TestFindBlocking:
    def test_market1_poaches_w2(self, market1):
        mu = DiscreteMatching(assignment={"w1": "f1", "w2": "f1"})
        block = find_blocking_coalition(market1, mu)
        assert block is not None
        assert (block.firm, block.workers) == ("f2", fs({"w2"}))

    def test_example2_no_block(self, example2_discrete):
        mu = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
        assert find_blocking_coalition(example2_discrete, mu) is None

    def test_no_preferences_no_block(self):
        m = DiscreteMarket(
            firms={"f1", "f2"},
            workers={"w"},
            firm_prefs={"f1": (), "f2": ()},
            worker_prefs={"w": ("f1",)},
        )
        assert find_blocking_coalition(m, DiscreteMatching(assignment={})) is None

    def test_returned_block_satisfies_definition(self):
        for seed in range(60):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            for mu in [DiscreteMatching(assignment={})] + enumerate_stable_matchings(m)[:1]:
                block = find_blocking_coalition(m, mu)
                if block is None:
                    continue
                assert firm_strictly_prefers(
                    m, block.firm, block.workers, mu.workers_of(block.firm)
                )
                for w in block.workers:
                    assert worker_weakly_prefers(m, w, block.firm, mu.firm_of(w))


class TestCheckStable:
    def test_example2_stable(self, example2_discrete):
        mu = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
        assert check_stable_discrete(example2_discrete, mu).stable

    def test_market1_nothing_is_stable(self, market1):
        for mu in all_matchings(market1):
            assert not check_stable_discrete(market1, mu).stable

    def test_empty_market(self):
        m = DiscreteMarket(firms=set(), workers=set(), firm_prefs={}, worker_prefs={})
        assert check_stable_discrete(m, DiscreteMatching(assignment={})).stable

    @pytest.mark.parametrize(
        "extra,message",
        [
            (
                {"ghost": "nofirm"},
                "assignment for unknown worker 'ghost'; "
                "worker 'ghost' assigned to unknown firm 'nofirm'",
            ),
            ({"ghost": "x1"}, "assignment for unknown worker 'ghost'"),
            ({"m1": "nofirm"}, "worker 'm1' assigned to unknown firm 'nofirm'"),
        ],
    )
    def test_unknown_agents_are_an_invalid_market_error(self, marriage, extra, message):
        stable = {"m1": "x1", "m2": "x2"}
        assert check_stable_discrete(marriage, DiscreteMatching(assignment=stable)).stable
        with pytest.raises(InvalidMarketError) as e:
            check_stable_discrete(marriage, DiscreteMatching(assignment=stable | extra))
        assert str(e.value) == message


class TestEnumerate:
    def test_market1_empty(self, market1):
        assert enumerate_stable_matchings(market1) == []

    def test_marriage_exactly_two(self, marriage):
        found = enumerate_stable_matchings(marriage)
        assert [mu.assignment for mu in found] == [
            {"m1": "x1", "m2": "x2"},
            {"m1": "x2", "m2": "x1"},
        ]

    def test_appendix_c_contains_favorite_match(self, appendix_c_discrete):
        found = enumerate_stable_matchings(appendix_c_discrete)
        assert DiscreteMatching(
            assignment={"w1": "f1", "w2": "f1", "w4": "f1"}
        ) in found

    def test_example2_unique_stable_matching(self, example2_discrete):
        # The one stable outcome; the alternative that breaks the narrated
        # cycle (f2 with w1, f3 with the pair) is blocked by f1 poaching w1.
        found = enumerate_stable_matchings(example2_discrete)
        assert [mu.assignment for mu in found] == [
            {"w1": "f1", "w2": "f1", "w3": "f2"}
        ]
        alt = DiscreteMatching(assignment={"w1": "f2", "w2": "f3", "w3": "f3"})
        verdict = check_stable_discrete(example2_discrete, alt)
        assert not verdict.stable
        assert (verdict.blocking.firm, verdict.blocking.workers) == ("f1", fs({"w1"}))

    def test_completeness_against_brute_force(self):
        for seed in range(50):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4,
                                              max_acceptable_sets_per_firm=3,
                                              max_set_size=2))
            expected = sorted(
                (mu.key() for mu in all_matchings(m)
                 if check_stable_discrete(m, mu).stable)
            )
            got = [mu.key() for mu in enumerate_stable_matchings(m)]
            assert got == expected

    def test_limit_short_circuits(self, marriage):
        found = enumerate_stable_matchings(marriage, limit=1)
        assert len(found) == 1
        assert check_stable_discrete(marriage, found[0]).stable

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_refused_before_any_search(self, marriage, limit, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(discrete_solver, "iter_disjoint_assignments", no_search)
        with pytest.raises(ValueError, match=f"^limit must be at least 1, got {limit}$"):
            enumerate_stable_matchings(marriage, limit=limit)

    def test_guard(self):
        workers = {f"w{i:02d}" for i in range(13)}
        m = DiscreteMarket(firms={"f"}, workers=workers, firm_prefs={}, worker_prefs={})
        with pytest.raises(SizeGuardExceeded, match="13 workers > guard 12"):
            enumerate_stable_matchings(m)

    def test_marriage_markets_always_have_stable_matchings(self):
        for seed in range(80):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=4, worker_count=5,
                                              max_acceptable_sets_per_firm=4,
                                              max_set_size=1))
            assert enumerate_stable_matchings(m, limit=1)


class TestForwardBlockingPrune:
    """The pruned enumeration against the unpruned one."""

    @staticmethod
    def agree(m):
        for limit in (None, 1):
            assert enumerate_stable_matchings(m, limit=limit) == exhaustive_stable_oracle(
                m, limit
            )

    @pytest.mark.parametrize("name", DISCRETE_FIXTURES)
    def test_fixtures(self, name):
        self.agree(load_market(FIXTURES / name))

    @pytest.mark.parametrize("params", [SUITE_PARAMS, WIDE_PARAMS], ids=["suite", "wide"])
    def test_generated_markets(self, params):
        for seed in range(500):
            self.agree(gen_discrete_market(GenParams(seed=seed, **params)))

    def test_complete_marriage_markets(self):
        for n_firms, n_workers in MARRIAGE_SHAPES:
            for seed in range(2):
                self.agree(complete_marriage_market(n_firms, n_workers, seed))

    def test_prune_tables_stay_linear_in_the_listed_sets(self):
        # One firm lists all 1,023 nonempty subsets of 10 workers, largest
        # first.  A table of the masks ranked above each option would hold
        # about half a million entries (a 4.2 MiB peak).
        workers = [f"w{j}" for j in range(10)]
        sets = [fs(c) for k in range(10, 0, -1) for c in combinations(workers, k)]
        m = DiscreteMarket(
            firms={"f"},
            workers=set(workers),
            firm_prefs={"f": tuple(sets)},
            worker_prefs={w: ("f",) for w in workers},
        )
        tracemalloc.start()
        try:
            found = enumerate_stable_matchings(m, limit=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [DiscreteMatching(assignment=dict.fromkeys(workers, "f"))]
        assert peak < 2 * 2**20

    def test_each_call_extends_the_latest_calls_below_its_slot(self, monkeypatch):
        # The prune keeps state per slot and reads slot i - 1's at slot i:
        # the options at the slots below i must be the ones the latest calls
        # there placed, and each of those calls must have returned false.
        calls = []

        def spy(options, budget, prune):
            def recorded(i, picked):
                hit = prune(i, picked)
                calls.append((i, tuple(picked[: i + 1]), hit))
                return hit

            return iter_disjoint_assignments(options, budget, recorded)

        monkeypatch.setattr(discrete_solver, "iter_disjoint_assignments", spy)
        markets = [load_market(FIXTURES / name) for name in DISCRETE_FIXTURES]
        markets += [gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS)) for seed in range(40)]
        markets += [complete_marriage_market(4, 5, seed) for seed in range(3)]
        deep = 0
        for m in markets:
            calls.clear()
            enumerate_stable_matchings(m)
            latest = {}
            for i, prefix, hit in calls:
                assert [latest[k] for k in range(i)] == [(s, False) for s in prefix[:i]]
                latest[i] = (prefix[i], hit)
                deep += i > 0
        assert deep > 0

    def test_pruned_prefixes_have_no_stable_completion(self, monkeypatch):
        pruned = []

        def spy(options, budget, prune):
            def recorded(i, picked):
                hit = prune(i, picked)
                if hit:
                    pruned.append(tuple(picked[: i + 1]))
                return hit

            return iter_disjoint_assignments(options, budget, recorded)

        monkeypatch.setattr(discrete_solver, "iter_disjoint_assignments", spy)
        markets = [
            gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4,
                                          max_acceptable_sets_per_firm=3,
                                          max_set_size=2))
            for seed in range(40)
        ]
        markets += [complete_marriage_market(3, 4, seed) for seed in range(10)]
        total = 0
        for m in markets:
            pruned.clear()
            enumerate_stable_matchings(m)
            firms = sorted(m.firms)
            stable = [mu for mu in all_matchings(m) if check_stable_discrete(m, mu).stable]
            for prefix in pruned:
                for mu in stable:
                    assert [mu.workers_of(f) for f in firms[: len(prefix)]] != list(prefix)
            total += len(pruned)
        assert total > 0


MARRIAGE_SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                   (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)]


class TestStabilityTestsAgainstOracles:
    """The rank-table and bitmask stability tests against the per-worker
    ``choice`` versions they replaced: the prune's verdict at every prefix
    the enumeration visits, and the blocking search and rationality check
    on every probe matching."""

    @staticmethod
    def prune_agrees(m, monkeypatch, limit=None):
        """The prune's verdict against the oracle's at every prefix the
        enumeration visits; returns the number of visits."""
        visits = 0

        def spy(options, budget, prune):
            oracle = oracle_forward_blocking(m, sorted(m.firms), options)

            def both(i, picked):
                nonlocal visits
                visits += 1
                hit = prune(i, picked)
                assert hit == oracle(i, picked)
                return hit

            return iter_disjoint_assignments(options, budget, both)

        monkeypatch.setattr(discrete_solver, "iter_disjoint_assignments", spy)
        enumerate_stable_matchings(m, limit=limit)
        return visits

    @classmethod
    def agree(cls, m, monkeypatch, kinds):
        visits = cls.prune_agrees(m, monkeypatch)
        for mu in probe_matchings(m):
            ir = oracle_is_individually_rational(m, mu)
            assert is_individually_rational(m, mu) == ir
            assert find_blocking_coalition(m, mu) == oracle_find_blocking_coalition(m, mu)
            for v in ir:
                if v.agent in m.workers:
                    kinds["worker at an unlisted firm"] += 1
                elif mu.workers_of(v.agent) in m.firm_prefs[v.agent]:
                    kinds["firm holding a non-satisfactory set"] += 1
                else:
                    kinds["firm holding an unlisted set"] += 1
        return visits

    def check(self, markets, monkeypatch):
        kinds = Counter()
        assert sum(self.agree(m, monkeypatch, kinds) for m in markets) > 0
        return kinds

    def test_fixtures(self, monkeypatch):
        self.check([load_market(FIXTURES / name) for name in DISCRETE_FIXTURES], monkeypatch)

    def test_complete_marriage_markets(self, monkeypatch):
        markets = [
            complete_marriage_market(n_firms, n_workers, seed)
            for n_firms, n_workers in MARRIAGE_SHAPES
            for seed in range(2)
        ]
        self.check(markets, monkeypatch)

    @pytest.mark.parametrize("params", [SUITE_PARAMS, WIDE_PARAMS], ids=["suite", "wide"])
    def test_generated_markets(self, params, monkeypatch):
        markets = [gen_discrete_market(GenParams(seed=seed, **params)) for seed in range(200)]
        assert len(self.check(markets, monkeypatch)) == 3

    @pytest.mark.parametrize("shape", [(5, 7), (6, 6)], ids=["5x7", "6x6"])
    def test_unit_demand_shapes(self, shape, monkeypatch):
        # The shapes of the largest complete marriage markets the benchmark
        # enumerates, where the search goes deepest.
        visits = [
            self.prune_agrees(complete_marriage_market(*shape, seed), monkeypatch)
            for seed in range(3)
        ]
        assert sum(visits) > 400

    def test_multi_worker_sets_and_partial_lists_under_a_limit(self, monkeypatch):
        params = dict(firm_count=5, worker_count=7, max_acceptable_sets_per_firm=6,
                      max_set_size=3, acceptability_density=0.6)
        stopped_early = 0
        for seed in range(40):
            m = gen_discrete_market(GenParams(seed=seed, **params))
            assert any(len(m.worker_prefs.get(w, ())) < len(m.firms) for w in m.workers)
            assert any(len(s) > 1 for prefs in m.firm_prefs.values() for s in prefs)
            visits = self.prune_agrees(m, monkeypatch, limit=1)
            stopped_early += visits < self.prune_agrees(m, monkeypatch)
        assert stopped_early > 0


# The least --budget under which ``solve-discrete --all`` answers (one step
# per option the enumeration places).  A change to the enumeration that
# keeps its search tree keeps these numbers.
BUDGET_STEPS = {
    "appendixC_discrete.json": 4,
    "example2_discrete.json": 9,
    "example3_discrete.json": 7,
    "intro_discrete.json": 6,
    "marriage.json": 7,
    "profile13.json": 7,
    "marriage-5x6": 43,
    "marriage-5x7": 121,
    "marriage-6x6": 187,
}


class TestBudgetSteps:
    @pytest.mark.parametrize("name", list(BUDGET_STEPS))
    def test_least_budget_that_answers(self, name, tmp_path, capsys):
        if name.startswith("marriage-"):
            shape = tuple(int(n) for n in name.removeprefix("marriage-").split("x"))
            path = str(tmp_path / f"{name}.json")
            write_json(path, serialize_market(complete_marriage_market(*shape, 0)))
        else:
            path = str(FIXTURES / name)
        steps = BUDGET_STEPS[name]
        assert main(["solve-discrete", path, "--all", "--budget", str(steps)]) in (0, 1)
        assert main(["solve-discrete", path, "--all", "--budget", str(steps - 1)]) == 3
        assert capsys.readouterr().err == "error: enumeration budget exhausted\n"


class TestDynamics:
    def test_market1_cycles_within_eight_steps(self, market1):
        start = DiscreteMatching(assignment={"w1": "f1", "w2": "f1"})
        trace = run_blocking_dynamics(market1, start, max_steps=50)
        assert trace.outcome == "cycle"
        assert trace.revisit == (0, 4)
        assert trace.states[0] == trace.states[4]
        # The narrated loop: w2 defects, f1 fires, f2 switches, f1 rehires.
        assert [
            (mv.kind, mv.firm, tuple(sorted(mv.workers))) for mv in trace.moves
        ] == [
            ("block", "f2", ("w2",)),
            ("block", "f1", ()),
            ("block", "f2", ("w1",)),
            ("block", "f1", ("w1", "w2")),
        ]

    def test_example2_reaches_stability_from_empty(self, example2_discrete):
        trace = run_blocking_dynamics(
            example2_discrete, DiscreteMatching(assignment={}), max_steps=50
        )
        assert trace.outcome == "stable"
        assert trace.stable_at == 2
        final = trace.states[trace.stable_at]
        assert check_stable_discrete(example2_discrete, final).stable
        assert final.assignment == {"w1": "f1", "w2": "f1", "w3": "f2"}

    def test_stable_start_stops_immediately(self, example2_discrete):
        start = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
        trace = run_blocking_dynamics(example2_discrete, start)
        assert trace.outcome == "stable"
        assert trace.stable_at == 0
        assert trace.moves == ()

    def test_state_reached_by_the_last_allowed_move_is_tested(self, example2_discrete):
        # From empty, the dynamics reach stability with their second move.
        empty = DiscreteMatching(assignment={})
        trace = run_blocking_dynamics(example2_discrete, empty, max_steps=2)
        assert (trace.outcome, trace.stable_at, len(trace.moves)) == ("stable", 2, 2)
        trace = run_blocking_dynamics(example2_discrete, empty, max_steps=1)
        assert (trace.outcome, trace.stable_at, len(trace.moves)) == ("budget", None, 1)

    def test_zero_steps_still_tests_the_start(self, example2_discrete):
        stable = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
        trace = run_blocking_dynamics(example2_discrete, stable, max_steps=0)
        assert (trace.outcome, trace.stable_at, trace.moves) == ("stable", 0, ())
        empty = DiscreteMatching(assignment={})
        trace = run_blocking_dynamics(example2_discrete, empty, max_steps=0)
        assert (trace.outcome, trace.moves) == ("budget", ())

    def test_quit_move_fires_first(self, example2_discrete):
        # w3 never accepts f1, so the first move is a quit.
        start = DiscreteMatching(assignment={"w3": "f1"})
        trace = run_blocking_dynamics(example2_discrete, start, max_steps=50)
        assert trace.moves[0].kind == "quit"
        assert trace.moves[0].worker == "w3"

    def test_consecutive_states_differ_by_one_move(self, market1):
        start = DiscreteMatching(assignment={"w1": "f1", "w2": "f1"})
        trace = run_blocking_dynamics(market1, start, max_steps=50)
        assert len(trace.states) == len(trace.moves) + 1

    def test_soundness_over_random_markets(self):
        for seed in range(60):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            trace = run_blocking_dynamics(
                m, DiscreteMatching(assignment={}), max_steps=200
            )
            if trace.outcome == "stable":
                assert check_stable_discrete(m, trace.states[trace.stable_at]).stable
            elif trace.outcome == "cycle":
                i, j = trace.revisit
                assert i < j
                assert trace.states[i] == trace.states[j]
