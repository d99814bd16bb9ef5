"""Acceptance suite: exact reproduction of the worked examples plus the
four 500-instance property sweeps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  All equalities on values and prices are exact (Fractions);
no tolerances anywhere.
"""

import time
from fractions import Fraction
from itertools import combinations

from matchkit import (
    DiscreteMatching,
    build_hypergraph,
    build_lp_problem,
    check_balanced,
    check_stable_discrete,
    check_stable_tu,
    demand_type,
    enumerate_stable_matchings,
    find_stable_matching_tu,
    is_nontrivial_odd,
    is_specialist,
    is_totally_unimodular,
    check_specialized,
    prop1_check,
    run_blocking_dynamics,
    solve_lp,
    tu_cycle_certificate,
    tu_utilities,
)
from matchkit.analysis import bareiss_determinant
from matchkit.generator import (
    GenParams,
    SplitMix64,
    gen_discrete_market,
    gen_roadmap_instance,
    gen_tu_market,
)

from cycle_oracles import enumerate_cycles
from golden import SUITE_PARAMS
from test_analysis import prop2_sides

F = Fraction
fs = frozenset


def ok(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS - {label}")


def test_criterion_01_intro_tu_gap(intro_tu):
    t0 = time.perf_counter()
    rep = find_stable_matching_tu(intro_tu)
    elapsed = time.perf_counter() - t0
    assert not rep.stable
    assert rep.lp_value == F(7)
    assert rep.partition_value == F(6)
    assert elapsed < 1.0
    ok(1, f"intro TU market: unstable, LP 7 vs partition 6 in {elapsed:.3f}s")


def test_criterion_02_intro_discrete(market1):
    assert enumerate_stable_matchings(market1) == []
    h = build_hypergraph(market1)
    verdict = check_balanced(h)
    assert not verdict.balanced and len(verdict.witness) == 3
    start = DiscreteMatching(assignment={"w1": "f1", "w2": "f1"})
    trace = run_blocking_dynamics(market1, start, max_steps=8)
    assert trace.outcome == "cycle"
    assert trace.revisit[1] <= 8
    ok(2, "intro discrete market: empty stable set, 3-edge witness, cycle in 4 steps")


def test_criterion_03_example_one(example1_tu):
    h = build_hypergraph(example1_tu)
    assert check_balanced(h).balanced
    odd = enumerate_cycles(h, odd_only=True)
    assert len(odd) == 1
    cycle = odd[0]
    assert not is_nontrivial_odd(h, cycle)
    big = next(i for i in cycle.edges if h.edges[i] == ("f1", fs({"w1", "w2"})))
    assert len(h.edge_members(big) & set(cycle.vertices)) == 3
    rep = find_stable_matching_tu(example1_tu)
    assert rep.stable
    assert rep.matching.prices == {"w1": F(2), "w2": F(1), "w3": F(1)}
    utilities = tu_utilities(example1_tu, rep.matching)
    assert utilities == rep.lp_primal
    assert check_stable_tu(example1_tu, rep.matching).stable
    ok(3, "balanced, single trivial odd cycle, stable with prices (2,1,1)")


def test_criterion_04_example_two(example2_discrete):
    mu = DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w3": "f2"})
    assert check_stable_discrete(example2_discrete, mu).stable
    found = enumerate_stable_matchings(example2_discrete)
    assert found
    assert mu in found
    ok(4, "example profile: f1 takes the pair, f2 takes w3; enumeration non-empty")


def test_criterion_05_example_three(example3_discrete):
    assert prop1_check(example3_discrete).guaranteed
    dt = demand_type(example3_discrete)
    assert dt.union == fs({(1, 1), (1, 0), (0, 1)})
    assert is_totally_unimodular(dt.matrix()).totally_unimodular
    ok(5, "pairwise-choice condition holds; demand type TU")


def test_criterion_06_appendix_b(market1):
    dt = demand_type(market1)
    assert dt.union == fs({(1, 1), (1, 0), (0, 1), (1, -1)})
    verdict = is_totally_unimodular(dt.matrix())
    assert not verdict.totally_unimodular
    assert len(verdict.row_indices) == 2 and len(verdict.col_indices) == 2
    assert abs(verdict.determinant) == 2
    witness = prop1_check(market1).witness
    cert = tu_cycle_certificate(market1, witness)
    assert cert.rows == ("w1", "w2")
    assert {cert.column(0), cert.column(1)} == {(1, 1), (1, -1)}
    det = bareiss_determinant([list(r) for r in cert.entries])
    assert abs(det) == 2
    ok(6, "demand type has (1,-1); 2x2 violation and certificate with |det| = 2")


def test_criterion_07_appendix_c(appendix_c_tu, appendix_c_discrete):
    for m in (appendix_c_tu, appendix_c_discrete):
        verdict = check_balanced(build_hypergraph(m))
        assert not verdict.balanced
        assert set(verdict.witness.vertices) == {"w1", "w2", "w3"}
    rep = find_stable_matching_tu(appendix_c_tu)
    assert rep.stable and rep.lp_value == F(5) == rep.partition_value
    found = enumerate_stable_matchings(appendix_c_discrete)
    assert DiscreteMatching(assignment={"w1": "f1", "w2": "f1", "w4": "f1"}) in found
    ok(7, "unbalanced hypergraph, yet both instances have stable matchings")


def test_criterion_08_marriage_markets(marriage):
    found = enumerate_stable_matchings(marriage)
    assert [mu.assignment for mu in found] == [
        {"m1": "x1", "m2": "x2"},
        {"m1": "x2", "m2": "x1"},
    ]
    for seed in range(1000):
        m = gen_discrete_market(
            GenParams(seed=seed, firm_count=4, worker_count=6,
                      max_acceptable_sets_per_firm=4, max_set_size=1,
                      value_range=(F(0), F(10)), acceptability_density=0.9)
        )
        assert check_balanced(build_hypergraph(m)).balanced
    ok(8, "exactly two stable marriages; 1000/1000 unit-demand markets balanced")


def test_criterion_09_theorem_1_suite():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 500:
        m = gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS))
        seed += 1
        if not check_balanced(build_hypergraph(m)).balanced:
            continue
        checked += 1
        rep = find_stable_matching_tu(m)
        assert rep.stable, f"seed {seed - 1}: balanced but no stable matching"
        assert check_stable_tu(m, rep.matching).stable
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok(9, f"theorem 1: 500/500 balanced TU markets stable ({elapsed:.1f}s, {seed} seeds)")


def test_criterion_10_theorem_2_suite():
    checked = 0
    seed = 0
    while checked < 500:
        m = gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS))
        seed += 1
        if not check_balanced(build_hypergraph(m)).balanced:
            continue
        checked += 1
        found = enumerate_stable_matchings(m, limit=1)
        assert found, f"seed {seed - 1}: balanced but empty stable set"
        assert check_stable_discrete(m, found[0]).stable
    ok(10, f"theorem 2: 500/500 balanced discrete markets non-empty ({seed} seeds)")


def test_criterion_11_proposition_2_suite():
    offenders = []
    for seed in range(500):
        m = gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS))
        tu, p1 = prop2_sides(m)
        if tu.totally_unimodular and not p1.guaranteed:
            offenders.append(seed)
    assert offenders == []
    ok(11, "proposition 2: 0/500 markets with a TU demand type but a qualifying cycle")


def test_criterion_12_theorem_3_suite():
    checked = 0
    seed = 0
    while checked < 500:
        params = GenParams(seed=seed, **SUITE_PARAMS)
        seed += 1
        try:
            rm, market = gen_roadmap_instance(
                params, kind="tu" if seed % 2 else "discrete"
            )
        except ValueError:
            continue
        checked += 1
        assert all(is_specialist(rm, w) for w in market.workers)
        assert check_specialized(market, rm).specialized
        assert check_balanced(build_hypergraph(market)).balanced, f"seed {seed - 1}"
    ok(12, f"theorem 3: 500/500 roadmap instances specialist+specialized+balanced ({seed} seeds)")


def test_criterion_13_lp_self_consistency():
    for seed in range(120):
        m = gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS))
        problem = build_lp_problem(m)
        x, dual = solve_lp(problem)
        primal_value = sum(x.values(), F(0))
        assert primal_value == dual.value
        values = {c: F(v, problem.scale) for c, v in zip(problem.coalitions, problem.values)}
        for c, w in dual.weights.items():
            assert w >= 0
            if w > 0:
                held = sum((x[a] for a in c.members()), F(0))
                assert held == values[c]
        rep = find_stable_matching_tu(m)
        assert rep.partition_value <= rep.lp_value
    ok(13, "LP: primal equals dual exactly, slackness holds, partition never exceeds LP")


def test_criterion_14_determinant_oracle_equivalence():
    def cofactor(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        return sum(
            (-1) ** j * rows[0][j] * cofactor([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(n)
            if rows[0][j]
        )

    from matchkit import IntMatrix

    rng = SplitMix64(424242)
    for _ in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        entries = [[rng.randint(-1, 1) for _ in range(c)] for _ in range(r)]
        m = IntMatrix(
            rows=tuple(f"r{i}" for i in range(r)),
            cols=tuple(f"c{j}" for j in range(c)),
            entries=tuple(tuple(row) for row in entries),
        )
        oracle_tu = all(
            cofactor([[entries[i][j] for j in cols] for i in rows_]) in (-1, 0, 1)
            for k in range(1, min(r, c) + 1)
            for rows_ in combinations(range(r), k)
            for cols in combinations(range(c), k)
        )
        assert is_totally_unimodular(m).totally_unimodular == oracle_tu
    ok(14, "unimodularity agrees with the cofactor oracle on 200 random sign matrices")
