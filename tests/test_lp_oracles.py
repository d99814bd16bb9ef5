"""Differential tests: the integer LP layer against its Fraction-era oracles
(``lp_oracles``), which certify every solve themselves.  The results, the
coverage weights, the prices and every stability violation, deficits
included, must be the same."""

from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from matchkit import simplex, tu_solver
from matchkit.errors import CertificateError
from matchkit.generator import GenParams, SplitMix64, gen_tu_market
from matchkit.io import load_market
from matchkit.model import TuMarket, TuMatching, tu_utilities
from matchkit.simplex import LpInternalError, simplex_max
from matchkit.tu_solver import (
    build_lp_problem,
    check_stable_tu,
    find_stable_matching_tu,
    potential_coalitions,
    solve_lp,
)

import lp_oracles
from golden import SUITE_PARAMS, assignment_game, tied_game

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

COMPLETE_SHAPES = ((2, 3), (3, 5), (4, 4), (5, 6), (6, 8), (7, 10))


def eighths_game(n_firms, n_workers, seed):
    """A complete assignment game with values in eighths, as the benchmark
    draws them: the objective has denominators, the coverage rows do not."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    return TuMarket(
        firms=set(firms),
        workers=set(workers),
        firm_valuations={
            f: {frozenset({w}): F(rng.randint(0, 80), 8) for w in workers} for f in firms
        },
        worker_valuations={w: {f: F(rng.randint(0, 24), 8) for f in firms} for w in workers},
    )


def tu_markets():
    """(label, market): the TU fixtures, 500 SUITE_PARAMS seeds, and
    complete assignment games up to 7x10 with integer, tied and eighths
    values."""
    for path in sorted(FIXTURES.glob("*_tu.json")):
        yield path.name, load_market(str(path))
    for seed in range(500):
        yield f"suite {seed}", gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS))
    for shape in COMPLETE_SHAPES:
        for seed in range(2):
            for make in (assignment_game, tied_game, eighths_game):
                yield f"{make.__name__} {shape} {seed}", make(*shape, seed)


MARKETS = list(tu_markets())


def coverage_program(problem):
    """The coverage program solve_lp builds: (objective, rows, rhs)."""
    firm_cols = problem.firm_coalitions()
    rows = [[int(a in c.members()) for c, _ in firm_cols] for a in problem.agents]
    return [v for _, v in firm_cols], rows, [1] * len(rows)


def same_solve(c, rows, rhs):
    """simplex_max against the oracle: the same error, or the x and value of
    the oracle's Bland run, with the duals of the oracle's run under the
    lexicographic leaving rule.  simplex_max reaches the lexicographic duals
    by a dual phase after Bland's optimum, so its x stays Bland's.  Returns
    the dual phase's pivot count, or None on an error."""
    try:
        bland = lp_oracles.simplex_max(c, rows, rhs)
    except (LpInternalError, ValueError) as e:
        with pytest.raises(type(e), match=str(e)):
            simplex_max(c, rows, rhs)
        return None
    lex = lp_oracles.simplex_max(c, rows, rhs, lex_duals=True)
    assert lex.value == bland.value
    got = simplex_max(c, rows, rhs)
    assert (got.x, got.duals, got.value) == (bland.x, lex.duals, bland.value)
    return got.dual_pivots


def test_lp_results_match_the_oracles_on_tu_markets():
    stable = unstable = 0
    phase_pivots = Counter()
    for label, m in MARKETS:
        problem = build_lp_problem(m)
        assert problem.scale == lcm(
            *(
                v.denominator
                for d in (m.firm_valuations, m.worker_valuations)
                for vals in d.values()
                for v in vals.values()
            )
        ), label
        assert [F(v, problem.scale) for v in problem.values] == [
            lp_oracles.coalition_value(m, c) for c in problem.coalitions
        ], label
        phase_pivots[same_solve(*coverage_program(problem))] += 1
        ref_x = same_lp(problem, label)

        rep = find_stable_matching_tu(m)
        if not rep.stable:
            unstable += 1
            assert rep.utilities is None
            continue
        stable += 1
        assert rep.matching.prices == {
            w: ref_x[w] - m.worker_value(w, f) for w, f in rep.matching.assignment.items()
        }, label
        assert rep.utilities == tu_utilities(m, rep.matching) == ref_x, label
    assert (stable, unstable) == (486, 53)
    # The dual phase makes no pivot on some programs and up to ten on others.
    assert (phase_pivots[0], max(phase_pivots), sum(phase_pivots.values())) == (43, 10, 539)


def same_lp(problem, label):
    """solve_lp against the two-solve oracle: the same prices, weights (in
    order) and value, all Fractions.  Returns the oracle's prices."""
    x, dual = solve_lp(problem)
    ref_x, ref_dual = lp_oracles.solve_lp(problem)
    assert x == ref_x, label
    assert dual.value == ref_dual.value, label
    assert list(dual.weights.items()) == list(ref_dual.weights.items()), label
    assert all(type(w) is F for w in (*x.values(), *dual.weights.values()))
    return ref_x


def test_the_dual_phase_runs_on_a_tied_game():
    # Bland's optimal basis for this degenerate 2x3 game is not
    # lexicographically feasible: the dual phase pivots twice.
    c, rows, rhs = coverage_program(build_lp_problem(tied_game(2, 3, 17)))
    assert same_solve(c, rows, rhs) == 2
    bland = lp_oracles.simplex_max(c, rows, rhs)
    assert simplex_max(c, rows, rhs).duals != bland.duals


@pytest.mark.parametrize("seed,sets,size", [(1, 32, 4), (0, 40, 5), (1, 40, 5)])
def test_solve_lp_matches_the_two_solve_oracle_at_the_guard(seed, sets, size):
    # Generated 8x12 markets, at the firm and worker guard, with 100 to 300
    # coalitions: columns enough for long degenerate pivot runs.
    m = gen_tu_market(
        GenParams(
            seed=seed,
            firm_count=8,
            worker_count=12,
            max_acceptable_sets_per_firm=sets,
            max_set_size=size,
        )
    )
    problem = build_lp_problem(m)
    assert 100 <= len(problem.coalitions) <= 300
    same_lp(problem, seed)


def rational(rng, lo, hi):
    d = (1, 2, 3, 5)[rng.randint(0, 3)]
    return F(rng.randint(lo * d, hi * d), d)


def coverage_programs(rng, count):
    """Random coverage-like programs with Fraction rows and right-hand
    sides, put over integers: nonnegative rows, mostly zeros, positive
    right-hand sides, and an objective of either sign.  A column of zeros
    with a positive cost makes the program unbounded."""
    for _ in range(count):
        n = rng.randint(1, 7)
        m = rng.randint(1, 6)
        rows = [
            [rational(rng, 0, 3) if rng.chance(0.4) else F(0) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [rational(rng, 1, 3) if rng.chance(0.7) else F(1) for _ in range(m)]
        c = [rational(rng, -2, 5) for _ in range(n)]
        yield lp_oracles.integer_program(c, rows, rhs)


def test_simplex_matches_the_oracle_on_random_coverage_programs():
    # None counts the unbounded programs; the others count by the number of
    # pivots of the dual phase.
    phase_pivots = Counter(
        same_solve(c, rows, rhs) for c, rows, rhs in coverage_programs(SplitMix64(17), 600)
    )
    assert phase_pivots == {None: 278, 0: 315, 1: 7}


def probe_matchings(m, rng, count):
    """Matchings of ``m`` to re-check, most of them unstable: the solver's
    own matching when there is one, with each price nudged; disjoint
    acceptable coalitions with random prices; and workers sent to random
    firms, acceptable or not."""
    rep = find_stable_matching_tu(m)
    if rep.stable:
        yield rep.matching
        for w in rep.matching.assignment:
            for delta in (F(-1, 2), F(1, 3)):
                prices = dict(rep.matching.prices)
                prices[w] += delta
                yield TuMatching(rep.matching.assignment, prices)
    firm_coalitions = [c for c in potential_coalitions(m) if not c.is_singleton]
    workers, firms = sorted(m.workers), sorted(m.firms)
    for k in range(count):
        assignment = {}
        if k % 3:
            used = set()
            for c in firm_coalitions:
                if rng.chance(0.5) and not c.workers & used and c.firm not in assignment.values():
                    used |= c.workers
                    assignment.update(dict.fromkeys(c.workers, c.firm))
        else:
            for w in workers:
                if rng.chance(0.6):
                    assignment[w] = firms[rng.randint(0, len(firms) - 1)]
        prices = {w: rational(rng, -3, 8) for w in assignment}
        yield TuMatching(assignment, prices)


def test_stability_recheck_matches_the_oracle_on_probe_matchings():
    rng = SplitMix64(3)
    kinds = set()
    stable = 0
    for label, m in MARKETS:
        for mu in probe_matchings(m, rng, 12):
            got = check_stable_tu(m, mu)
            ref = lp_oracles.check_stable_tu(m, mu)
            assert (got.stable, got.violations) == (ref.stable, ref.violations), label
            if got.utilities is not None:
                assert got.utilities == tu_utilities(m, mu), label
            else:
                assert got.violations and got.violations[0].kind == "ir"
            stable += got.stable
            for v in got.violations:
                kinds.add((v.kind, v.deficit is None))
    assert stable > 50
    assert kinds == {("ir", True), ("ir", False), ("block", False)}


def test_certify_runs_once_per_solve_lp(monkeypatch, example1_tu, intro_tu):
    calls = []
    honest = simplex.certify

    def counting(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(simplex, "certify", counting)
    monkeypatch.setattr(tu_solver, "certify", counting)
    for m in (example1_tu, intro_tu, assignment_game(4, 4, 0), eighths_game(3, 4, 0)):
        calls.clear()
        problem = build_lp_problem(m)
        x, dual = solve_lp(problem)
        assert len(calls) == 1
        # The certified pair is the one reported: Bland's weights with the
        # lexicographic prices, which are the duals over the problem's scale.
        _, _, _, weights, duals = calls[0]
        assert [d / problem.scale for d in duals] == [x[a] for a in problem.agents]
        firm_cols = problem.firm_coalitions()
        assert {c: w for (c, _), w in zip(firm_cols, weights) if w} == {
            c: w for c, w in dual.weights.items() if not c.is_singleton
        }


@pytest.mark.parametrize("tamper", ["raise", "lower"])
def test_a_tampered_lexicographic_dual_is_refused(monkeypatch, example1_tu, tamper):
    honest = tu_solver._lex_min_primal

    def tampered(rows, objective):
        lp = honest(rows, objective)
        duals = list(lp.duals)
        k = max(range(len(duals)), key=lambda i: duals[i])
        duals[k] += F(1) if tamper == "raise" else F(-1, 2)
        return lp._replace(duals=duals)

    monkeypatch.setattr(tu_solver, "_lex_min_primal", tampered)
    with pytest.raises(CertificateError):
        solve_lp(build_lp_problem(example1_tu))


def test_a_value_other_than_blands_is_refused(monkeypatch, example1_tu):
    honest = tu_solver.certify
    monkeypatch.setattr(tu_solver, "certify", lambda *args: honest(*args) + 1)
    with pytest.raises(CertificateError, match="differs from the coverage solve"):
        solve_lp(build_lp_problem(example1_tu))
