from fractions import Fraction
from itertools import product

import pytest

from matchkit import (
    Coalition,
    TuMarket,
    TuMatching,
    build_lp_problem,
    check_stable_tu,
    find_stable_matching_tu,
    max_partition_value,
    potential_coalitions,
    solve_lp,
)
from matchkit.errors import SizeGuardExceeded, WorkBudgetExceeded
from matchkit.generator import GenParams, gen_tu_market
from matchkit.model import SizeGuard

F = Fraction
fs = frozenset

SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(F(0), F(10)),
    acceptability_density=0.85,
)


def partition_oracle(m: TuMarket):
    """Best partition by brute force: itertools.product over each firm's
    options (unmatched, then its acceptable sets whose workers all accept it,
    in sorted-member order), keeping disjoint combinations in product order
    and the first one of greatest total."""
    firms = sorted(m.firms)
    options = []
    for f in firms:
        opts = [(fs(), F(0))]
        for s in sorted(m.firm_valuations.get(f, {}), key=sorted):
            if all(f in m.worker_valuations.get(w, {}) for w in s):
                value = m.firm_valuations[f][s]
                value += sum(m.worker_valuations[w][f] for w in s)
                opts.append((s, value))
        options.append(opts)
    best = None
    for combo in product(*options):
        sets = [s for s, _ in combo]
        if sum(map(len, sets)) != len(fs().union(*sets)):
            continue
        total = sum(v for _, v in combo)
        if best is None or total > best[0]:
            best = (total, dict(zip(firms, sets)))
    return best


class TestPotentialCoalitions:
    def test_intro_family(self, intro_tu):
        family = potential_coalitions(intro_tu)
        singletons = [c for c in family if c.is_singleton]
        firm_cs = [c for c in family if not c.is_singleton]
        assert len(singletons) == 4
        assert {c.label() for c in firm_cs} == {
            "{f1,w1,w2}",
            "{f2,w1}",
            "{f2,w2}",
        }

    def test_worker_acceptability_filters(self, intro_tu):
        # w2 no longer accepts f1: the pair coalition drops out.
        m = TuMarket(
            firms=intro_tu.firms,
            workers=intro_tu.workers,
            firm_valuations=intro_tu.firm_valuations,
            worker_valuations={"w1": {"f1": 0, "f2": 0}, "w2": {"f2": 0}},
        )
        labels = {c.label() for c in potential_coalitions(m) if not c.is_singleton}
        assert labels == {"{f2,w1}", "{f2,w2}"}

    def test_example1_counts(self, example1_tu):
        family = potential_coalitions(example1_tu)
        assert sum(c.is_singleton for c in family) == 6
        assert sum(not c.is_singleton for c in family) == 5


class TestMaxPartitionValue:
    def test_intro(self, intro_tu):
        value, mu = max_partition_value(intro_tu)
        assert value == 6
        assert mu == {"f1": fs({"w1", "w2"}), "f2": fs()}

    def test_example1_lex_first_maximizer(self, example1_tu):
        value, mu = max_partition_value(example1_tu)
        assert value == 4
        assert mu == {"f1": fs(), "f2": fs({"w1"}), "f3": fs({"w2", "w3"})}

    def test_no_positive_coalition(self):
        m = TuMarket(
            firms={"f"},
            workers={"w"},
            firm_valuations={"f": {fs({"w"}): -1}},
            worker_valuations={"w": {"f": 0}},
        )
        value, mu = max_partition_value(m)
        assert value == 0
        assert mu == {"f": fs()}

    def test_guard(self, intro_tu):
        with pytest.raises(SizeGuardExceeded):
            max_partition_value(intro_tu, guard=SizeGuard(max_firms=1))

    def test_budget(self, example1_tu):
        with pytest.raises(WorkBudgetExceeded, match="partition search"):
            max_partition_value(example1_tu, budget=2)
        with pytest.raises(WorkBudgetExceeded):
            find_stable_matching_tu(example1_tu, budget=2)

    def test_agrees_with_product_oracle(self):
        for seed in range(250):
            m = gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS))
            assert max_partition_value(m) == partition_oracle(m), f"seed {seed}"


class TestSolveLp:
    def test_intro_fractional_cover(self, intro_tu):
        x, dual = solve_lp(build_lp_problem(intro_tu))
        assert dual.value == 7
        assert sum(x.values()) == 7
        firm_weights = {
            c.label(): w for c, w in dual.weights.items() if not c.is_singleton
        }
        assert firm_weights == {
            "{f1,w1,w2}": F(1, 2),
            "{f2,w1}": F(1, 2),
            "{f2,w2}": F(1, 2),
        }
        assert dual.weights[Coalition.singleton("f1", is_firm=True)] == F(1, 2)

    def test_example1_primal_point(self, example1_tu):
        x, dual = solve_lp(build_lp_problem(example1_tu))
        assert dual.value == 4
        assert x == {"f1": 0, "f2": 0, "f3": 0, "w1": 2, "w2": 1, "w3": 1}

    def test_singletons_only(self):
        m = TuMarket(
            firms={"f"}, workers={"w"}, firm_valuations={"f": {}},
            worker_valuations={"w": {"f": 0}},
        )
        x, dual = solve_lp(build_lp_problem(m))
        assert dual.value == 0
        assert all(v == 0 for v in x.values())

    def test_coverage_is_exactly_one(self, example1_tu):
        _, dual = solve_lp(build_lp_problem(example1_tu))
        coverage = {}
        for c, w in dual.weights.items():
            assert w >= 0
            for a in c.members():
                coverage[a] = coverage.get(a, F(0)) + w
        assert all(v == 1 for v in coverage.values())


class TestFindStable:
    def test_intro_unstable(self, intro_tu):
        rep = find_stable_matching_tu(intro_tu)
        assert not rep.stable
        assert rep.lp_value == 7
        assert rep.partition_value == 6
        assert rep.certificate.value == 7

    def test_example1_stable_with_expected_prices(self, example1_tu):
        rep = find_stable_matching_tu(example1_tu)
        assert rep.stable
        assert rep.matching.assignment == {"w1": "f2", "w2": "f3", "w3": "f3"}
        assert rep.matching.prices == {"w1": 2, "w2": 1, "w3": 1}
        assert check_stable_tu(example1_tu, rep.matching).stable

    def test_appendix_c_recipe(self, appendix_c_tu):
        rep = find_stable_matching_tu(appendix_c_tu)
        assert rep.stable
        assert rep.lp_value == 5 and rep.partition_value == 5
        assert rep.matching.assignment == {"w1": "f1", "w2": "f1", "w4": "f1"}
        assert rep.matching.prices == {"w1": 0, "w2": 0, "w4": 5}


class TestCheckStable:
    def test_example1_matching_stable(self, example1_tu):
        mu = TuMatching(
            assignment={"w1": "f2", "w2": "f3", "w3": "f3"},
            prices={"w1": 2, "w2": 1, "w3": 1},
        )
        assert check_stable_tu(example1_tu, mu).stable

    def test_intro_even_split_blocked(self, intro_tu):
        mu = TuMatching(
            assignment={"w1": "f1", "w2": "f1"}, prices={"w1": 3, "w2": 3}
        )
        verdict = check_stable_tu(intro_tu, mu)
        assert not verdict.stable
        blocks = [v for v in verdict.violations if v.kind == "block"]
        assert blocks[0].coalition.label() == "{f2,w1}"
        assert blocks[0].deficit == 1

    def test_empty_matching_stable_when_values_nonpositive(self):
        m = TuMarket(
            firms={"f"},
            workers={"w"},
            firm_valuations={"f": {fs({"w"}): -2}},
            worker_valuations={"w": {"f": 0}},
        )
        assert check_stable_tu(m, TuMatching(assignment={})).stable

    def test_negative_wage_breaks_worker_rationality(self, example1_tu):
        mu = TuMatching(
            assignment={"w1": "f2"}, prices={"w1": -1}
        )
        verdict = check_stable_tu(example1_tu, mu)
        assert any(v.kind == "ir" and v.agent == "w1" for v in verdict.violations)


class TestSolverProperties:
    def test_lp_value_dominates_partition_value(self):
        for seed in range(60):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            rep = find_stable_matching_tu(m, canonical_prices=False)
            assert rep.lp_value >= rep.partition_value

    def test_soundness_both_ways(self):
        stable_seen = unstable_seen = 0
        for seed in range(80):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4,
                                        max_acceptable_sets_per_firm=3,
                                        max_set_size=3))
            rep = find_stable_matching_tu(m)
            if rep.stable:
                stable_seen += 1
                assert check_stable_tu(m, rep.matching).stable
            else:
                unstable_seen += 1
                assert rep.certificate.value > rep.partition_value
                coverage = {}
                for c, w in rep.certificate.weights.items():
                    assert w >= 0
                    for a in c.members():
                        coverage[a] = coverage.get(a, F(0)) + w
                assert all(v == 1 for v in coverage.values())
        assert stable_seen and unstable_seen

    def test_scaling_equivariance(self, example1_tu, intro_tu):
        c = F(3, 2)
        for market in (example1_tu, intro_tu):
            scaled = TuMarket(
                firms=market.firms,
                workers=market.workers,
                firm_valuations={
                    f: {s: c * v for s, v in vals.items()}
                    for f, vals in market.firm_valuations.items()
                },
                worker_valuations={
                    w: {f: c * v for f, v in vals.items()}
                    for w, vals in market.worker_valuations.items()
                },
            )
            base = find_stable_matching_tu(market)
            big = find_stable_matching_tu(scaled)
            assert big.lp_value == c * base.lp_value
            assert big.partition_value == c * base.partition_value
            assert big.stable == base.stable
            assert {a: c * v for a, v in base.lp_primal.items()} == big.lp_primal
            if base.stable:
                assert big.matching.assignment == base.matching.assignment
                assert big.matching.prices == {
                    w: c * p for w, p in base.matching.prices.items()
                }

    def test_unmatched_workers_have_zero_lp_value(self):
        for seed in range(40):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            rep = find_stable_matching_tu(m)
            if rep.stable:
                matched = set(rep.matching.assignment)
                for w in m.workers - matched:
                    assert rep.lp_primal[w] == 0
