from fractions import Fraction
from itertools import chain, product
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
from matchkit.errors import SizeGuardExceeded
from matchkit.generator import GenParams, SplitMix64, gen_discrete_market
from matchkit.io import load_market
from matchkit.model import (
    _Budget,
    iter_disjoint_assignments,
    satisfactory_sets,
)

fs = frozenset

FIXTURES = Path(__file__).parent / "fixtures"

SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(Fraction(0), Fraction(10)),
    acceptability_density=0.85,
)
WIDE_PARAMS = dict(
    firm_count=6,
    worker_count=10,
    max_acceptable_sets_per_firm=6,
    max_set_size=3,
)


def exhaustive_stable_oracle(m: DiscreteMarket, limit=None):
    """The unpruned enumeration: every disjoint assignment of satisfactory
    sets, in DFS order, each checked by check_stable_discrete."""
    options = []
    for f in sorted(m.firms):
        opts = [(fs(), ())]
        for s in satisfactory_sets(m, f):
            if all(f in m.acceptable_firms(w) for w in s):
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


def complete_marriage_market(n_firms, n_workers, seed):
    """Every firm ranks every single worker and every worker every firm,
    in seeded random order."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    firm_prefs = {}
    for f in firms:
        sets = [fs({w}) for w in workers]
        rng.shuffle(sets)
        firm_prefs[f] = tuple(sets)
    worker_prefs = {}
    for w in workers:
        ranked = list(firms)
        rng.shuffle(ranked)
        worker_prefs[w] = tuple(ranked)
    return DiscreteMarket(
        firms=set(firms), workers=set(workers), firm_prefs=firm_prefs, worker_prefs=worker_prefs
    )


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
                assert m.firm_strictly_prefers(
                    block.firm, block.workers, mu.workers_of(block.firm)
                )
                for w in block.workers:
                    assert m.worker_weakly_prefers(w, block.firm, mu.firm_of(w))


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
        for n_firms, n_workers in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                                   (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)]:
            for seed in range(2):
                self.agree(complete_marriage_market(n_firms, n_workers, seed))

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
