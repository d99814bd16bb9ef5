from collections import Counter
from fractions import Fraction

import pytest

from matchkit import tu_solver
from matchkit.errors import CertificateError
from matchkit.generator import SplitMix64
from matchkit.model import TuMarket
from matchkit.simplex import LpInternalError, LpResult, certify, simplex_max

from golden import tied_game

F = Fraction
ZERO = F(0)
ONE = F(1)


def dense_simplex_max(c, rows, rhs, ties=(), lex_duals=False):
    """Reference: simplex_max with dense pivots, updating every column of
    every row and every allowed reduced cost, zero or not, and with a
    phase-1 round (artificial variables) for a negative right-hand side,
    which simplex_max refuses.  Then maximize each objective in ``ties`` in
    turn over the points optimal for all objectives before it (the
    lexicographic simplex run as tie stages).  ``value`` and ``duals``
    belong to ``c``.  With ``lex_duals``, a ratio tie goes to the row whose
    slack entries over its pivot entry come first lexicographically."""
    m, n = len(rows), len(c)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in rhs]
    neg = [i for i in range(m) if b[i] < 0]
    n_art = len(neg)
    width = n + m + n_art
    tab, basis = [], []
    art_col = {i: n + m + k for k, i in enumerate(neg)}
    for i in range(m):
        row = [Fraction(v) for v in rows[i]] + [ZERO] * (m + n_art)
        row[n + i] = ONE
        flip = i in art_col
        if flip:
            row = [-v for v in row]
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        row.append(-b[i] if flip else b[i])
        tab.append(row)

    def pivot(r, col):
        prow = tab[r]
        piv = prow[col]
        if piv != ONE:
            inv = ONE / piv
            tab[r] = prow = [v * inv for v in prow]
        for i in range(m):
            if i == r:
                continue
            factor = tab[i][col]
            if factor:
                row_i = tab[i]
                tab[i] = [a - factor * p for a, p in zip(row_i, prow)]
        basis[r] = col

    def run(red, allowed):
        while True:
            enter = -1
            for j in allowed:
                if red[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best
                        and (
                            [tab[i][n + k] / a for k in range(m)]
                            < [tab[leave][n + k] / tab[leave][enter] for k in range(m)]
                            if lex_duals
                            else basis[i] < basis[leave]
                        )
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise LpInternalError("linear program is unbounded")
            pivot(leave, enter)
            factor = red[enter]
            prow = tab[leave]
            for j in allowed:
                red[j] -= factor * prow[j]

    def reduced(obj):
        red = [Fraction(v) for v in obj] + [ZERO] * (m + n_art)
        for i in range(m):
            factor = red[basis[i]]
            if factor:
                red = [a - factor * p for a, p in zip(red, tab[i])]
        return red

    allowed = list(range(n + m))
    if n_art:
        red1 = [ZERO] * width
        for i in neg:
            for j in range(width):
                red1[j] += tab[i][j]
        for k in range(n_art):
            red1[n + m + k] = ZERO
        run(red1, allowed)
        total = sum((tab[i][-1] for i in range(m) if basis[i] >= n + m), ZERO)
        if total != 0:
            raise LpInternalError("linear program is infeasible")
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if tab[i][j] != 0:
                        pivot(i, j)
                        break
                else:
                    raise LpInternalError("degenerate artificial row")
    red = reduced(c)
    run(red, allowed)
    duals = [-red[n + i] for i in range(m)]
    for obj in ties:
        allowed = [j for j in allowed if red[j] == 0]
        red = reduced(obj)
        run(red, allowed)
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return LpResult(value=fraction_certify_oracle(c, rows, b, x, duals), x=x, duals=duals)


def fraction_certify_oracle(c, rows, b, x, duals):
    """Reference: simplex.certify with Fraction arithmetic, the same checks
    in the same order."""
    for xi in x:
        if xi < 0:
            raise LpInternalError("negative primal variable")
    for row, bi in zip(rows, b):
        lhs = sum((a * xi for a, xi in zip(row, x) if a), ZERO)
        if lhs > bi:
            raise LpInternalError("primal constraint violated")
    dual_value = ZERO
    for yi, bi in zip(duals, b):
        if yi < 0:
            raise LpInternalError("negative dual variable")
        dual_value += yi * bi
    for j, cj in enumerate(c):
        col = sum(
            (duals[i] * rows[i][j] for i in range(len(rows)) if rows[i][j]), ZERO
        )
        if col < cj:
            raise LpInternalError("dual constraint violated")
    value = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    if dual_value != value:
        raise LpInternalError("duality gap at claimed optimum")
    return value


def test_textbook_max():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6
    res = simplex_max([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)])
    assert res.value == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_negative_rhs_triggers_phase_one():
    # max -x  s.t.  -x <= -2,  x <= 5   (i.e. minimize x over [2, 5]): the
    # slack basis is infeasible, so the dense reference needs phase 1 and
    # simplex_max, which has none, refuses the program.
    rows, rhs = [[F(-1)], [F(1)]], [F(-2), F(5)]
    res = dense_simplex_max([F(-1)], rows, rhs)
    assert res.value == F(-2)
    assert res.x == [F(2)]
    with pytest.raises(ValueError, match="nonnegative right-hand side"):
        simplex_max([F(-1)], rows, rhs)


def test_infeasible_detected():
    # x <= -1 with x >= 0 is empty: the reference's phase 1 finds that, and
    # simplex_max refuses the negative right-hand side before pivoting.
    with pytest.raises(LpInternalError, match="infeasible"):
        dense_simplex_max([F(1)], [[F(1)]], [F(-1)])
    with pytest.raises(ValueError, match="nonnegative right-hand side"):
        simplex_max([F(1)], [[F(1)]], [F(-1)])


def test_unbounded_detected():
    with pytest.raises(LpInternalError):
        simplex_max([F(1)], [], [])


def test_degenerate_ties_terminate():
    # Multiple rows with identical ratios exercise the Bland tie-break.
    res = simplex_max(
        [F(1), F(1)],
        [[F(1), F(0)], [F(1), F(0)], [F(0), F(1)]],
        [F(1), F(1), F(1)],
    )
    assert res.value == F(2)


def test_duals_certify_value():
    rows = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(4), F(6)]
    res = simplex_max([F(3), F(5)], rows, rhs)
    assert sum(y * b for y, b in zip(res.duals, rhs)) == res.value


def _random_instances(rng, count=60):
    """Small bounded, feasible programs: (c, rows, rhs)."""
    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        c = [F(rng.randint(-5, 5)) for _ in range(n)]
        rows = [[F(rng.randint(-3, 5)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(0, 8)) for _ in range(m)]
        # Cap every variable so the instance is bounded and feasible.
        for j in range(n):
            rows.append([F(1) if k == j else F(0) for k in range(n)])
            rhs.append(F(10))
        yield c, rows, rhs


def _linprog_max(linprog, c, rows, rhs):
    ref = linprog(
        [-float(v) for v in c],
        A_ub=[[float(v) for v in r] for r in rows],
        b_ub=[float(v) for v in rhs],
        bounds=[(0, None)] * len(c),
        method="highs",
    )
    assert ref.success
    return -ref.fun


def test_matches_scipy_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for c, rows, rhs in _random_instances(SplitMix64(2024)):
        res = simplex_max(c, rows, rhs)
        assert abs(float(res.value) - _linprog_max(linprog, c, rows, rhs)) < 1e-7


def test_ties_match_sequential_scipy_on_random_instances():
    # Reference: maximize each objective with linprog, then keep it at its
    # optimum (to a small tolerance) while maximizing the next one.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = SplitMix64(2024)
    for c, rows, rhs in _random_instances(rng):
        ties = tuple([F(rng.randint(-3, 3)) for _ in c] for _ in range(2))
        res = dense_simplex_max(c, rows, rhs, ties=ties)
        ref_rows, ref_rhs = list(rows), list(rhs)
        for obj in (c,) + ties:
            best = _linprog_max(linprog, obj, ref_rows, ref_rhs)
            got = sum(a * b for a, b in zip(obj, res.x))
            assert abs(float(got) - best) < 1e-6
            ref_rows.append([-v for v in obj])
            ref_rhs.append(F(-best + 1e-9))

def test_ties_pick_a_vertex_of_an_optimal_edge():
    # max x + y  s.t.  x + y <= 2,  x <= 3/2,  y <= 3/2: the optimal face is
    # the edge from (1/2, 3/2) to (3/2, 1/2); the tie objective picks an end.
    rows = [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(2), F(3, 2), F(3, 2)]
    for tie, vertex in (([F(1), F(0)], [F(3, 2), F(1, 2)]),
                        ([F(0), F(1)], [F(1, 2), F(3, 2)]),
                        ([F(-1), F(0)], [F(1, 2), F(3, 2)])):
        res = dense_simplex_max([F(1), F(1)], rows, rhs, ties=(tie,))
        assert res.x == vertex
        assert res.value == 2
        assert res.duals == [F(1), F(0), F(0)]


def test_later_ties_stay_on_the_earlier_optimal_face():
    # The first tie fixes x = 0 on the face x + y + z = 1; the second then
    # splits y against z, and may not trade x back in.
    rows = [[F(1), F(1), F(1)], [F(0), F(1), F(0)]]
    rhs = [F(1), F(1, 3)]
    ones = [F(1)] * 3
    res = dense_simplex_max(ones, rows, rhs, ties=([F(-1), F(0), F(0)], [F(1), F(1), F(-1)]))
    assert res.x == [F(0), F(1, 3), F(2, 3)]


def test_ties_on_a_degenerate_program():
    # Every vertex of the face x1 + x2 + x3 = 1 is degenerate (several rows
    # tight at once); the lexicographically least point is (0, 0, 1).
    rows = [
        [F(1), F(1), F(1)],
        [F(1), F(1), F(0)],
        [F(0), F(1), F(1)],
        [F(1), F(0), F(0)],
    ]
    rhs = [F(1)] * 4
    ties = ([F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)])
    res = dense_simplex_max([F(1)] * 3, rows, rhs, ties=ties)
    assert res.x == [F(0), F(0), F(1)]
    assert res.value == 1


def test_ties_after_phase_one():
    # min x + y  s.t.  x + y >= 2,  x >= 1/2: lexicographically least
    # optimal point (1/2, 3/2) once x is minimized.
    rows = [[F(-1), F(-1)], [F(-1), F(0)]]
    rhs = [F(-2), F(-1, 2)]
    res = dense_simplex_max([F(-1), F(-1)], rows, rhs, ties=([F(-1), F(0)],))
    assert res.x == [F(1, 2), F(3, 2)]
    assert res.value == -2


def test_unbounded_tie_detected():
    # max -x  s.t.  x - y <= 0: the optimal face x = 0 leaves y unbounded.
    with pytest.raises(LpInternalError):
        dense_simplex_max([F(-1), F(0)], [[F(1), F(-1)]], [F(0)], ties=([F(0), F(1)],))


def test_certify_rejects_a_suboptimal_pair():
    rows = [[F(1), F(2)], [F(3), F(1)]]
    rhs = [F(4), F(6)]
    res = simplex_max([F(1), F(1)], rows, rhs)
    assert certify([F(1), F(1)], rows, rhs, res.x, res.duals) == res.value
    with pytest.raises(LpInternalError, match="duality gap"):
        certify([F(1), F(1)], rows, rhs, [F(0), F(0)], res.duals)
    with pytest.raises(LpInternalError, match="primal constraint"):
        certify([F(1), F(1)], rows, rhs, [F(4), F(0)], res.duals)
    with pytest.raises(LpInternalError, match="dual constraint"):
        certify([F(1), F(1)], rows, rhs, res.x, [F(0), F(0)])
    assert issubclass(LpInternalError, CertificateError)


def _sparse_programs(rng, count):
    """Feasible, bounded programs with mostly-zero rows: a random point x0
    fixes the right-hand sides (often tight, so degenerate ratio ties occur,
    and often negative, which simplex_max refuses), and every variable is
    capped."""
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        x0 = [rng.randint(0, 3) for _ in range(n)]
        rows, rhs = [], []
        for _ in range(m):
            row = [F(rng.randint(-2, 3)) if rng.chance(0.4) else F(0) for _ in range(n)]
            rows.append(row)
            slack = 0 if rng.chance(0.5) else rng.randint(0, 3)
            rhs.append(sum(a * x for a, x in zip(row, x0)) + slack)
        for j in range(n):
            rows.append([F(int(k == j)) for k in range(n)])
            rhs.append(F(10))
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        yield c, rows, rhs


def _same_result(c, rows, rhs):
    """simplex_max against the dense reference: the x and value of its
    Bland run, and the duals of its run under the lexicographic leaving
    rule.  simplex_max reaches the lexicographic duals by a dual phase after
    Bland's optimum, so its x stays Bland's.  Returns the dual phase's pivot
    count."""
    got = simplex_max(c, rows, rhs)
    ref = dense_simplex_max(c, rows, rhs)
    duals = dense_simplex_max(c, rows, rhs, lex_duals=True).duals
    assert (got.x, got.duals, got.value) == (ref.x, duals, ref.value)
    return got.dual_pivots


def _same_results(programs):
    """Sparse against dense on each program with a nonnegative right-hand
    side; every other program must be refused.  Returns (refused, compared)
    counts and a Counter of the compared programs by the dual phase's pivot
    count."""
    refused = compared = 0
    phase_pivots = Counter()
    for c, rows, rhs in programs:
        if any(b < 0 for b in rhs):
            with pytest.raises(ValueError, match="nonnegative right-hand side"):
                simplex_max(c, rows, rhs)
            refused += 1
        else:
            phase_pivots[_same_result(c, rows, rhs)] += 1
            compared += 1
    return (refused, compared), phase_pivots


def test_sparse_pivots_match_dense_pivots_on_random_programs():
    counts, phase_pivots = _same_results(_sparse_programs(SplitMix64(7), 200))
    assert counts == (88, 112)
    assert phase_pivots == {0: 102, 1: 10}


def test_the_dual_phase_matches_the_dense_lexicographic_rule_on_tied_games():
    # Degenerate coverage programs, where the dual phase makes two to eight
    # pivots; then one where Bland's optimum needs no repair.
    phase_pivots = Counter()
    for shape in ((2, 3), (3, 4), (4, 4), (4, 6)):
        for seed in range(6):
            problem = tu_solver.build_lp_problem(tied_game(*shape, seed))
            firm_cols = problem.firm_coalitions()
            rows = [[int(a in c.members()) for c, _ in firm_cols] for a in problem.agents]
            objective = [v for _, v in firm_cols]
            phase_pivots[_same_result(objective, rows, [1] * len(rows))] += 1
    assert phase_pivots == {2: 6, 3: 9, 4: 3, 5: 3, 7: 1, 8: 2}
    rows = [[1, 1, 0], [0, 1, 1]]
    assert _same_result([1, 1, 1], rows, [1, 1]) == 0


@pytest.mark.parametrize("n_firms,n_workers", [(4, 4), (5, 6)])
def test_sparse_pivots_match_dense_pivots_on_assignment_games(monkeypatch, n_firms, n_workers):
    # The one program each solve_lp solves: the coverage program, passed
    # positionally (the benchmark's cell counter reads the first two).
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return simplex_max(*args, **kwargs)

    monkeypatch.setattr(tu_solver, "simplex_max", recording)
    for seed in range(3):
        rng = SplitMix64(seed)
        firms = [f"f{i}" for i in range(1, n_firms + 1)]
        workers = [f"w{i}" for i in range(1, n_workers + 1)]
        m = TuMarket(
            firms=set(firms),
            workers=set(workers),
            firm_valuations={
                f: {frozenset({w}): F(rng.randint(0, 80), 8) for w in workers} for f in firms
            },
            worker_valuations={w: {f: F(rng.randint(0, 24), 8) for f in firms} for w in workers},
        )
        tu_solver.solve_lp(tu_solver.build_lp_problem(m))
    assert len(calls) == 3
    for args, kwargs in calls:
        assert (len(args), kwargs) == (3, {})
        _same_result(*args)


def _rational(rng, lo, hi):
    """A value k/d with d drawn from 1, 2, 3 and 7: a plain int when d = 1,
    so every program mixes int and Fraction entries."""
    d = (1, 2, 3, 7)[rng.randint(0, 3)]
    k = rng.randint(lo * d, hi * d)
    return k if d == 1 else F(k, d)


def _rational_programs(rng, count):
    """_sparse_programs with non-integer entries in rows, rhs, c and ties,
    so the tableau rows carry denominators other than 1."""
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        x0 = [_rational(rng, 0, 3) for _ in range(n)]
        rows, rhs = [], []
        for _ in range(m):
            row = [_rational(rng, -2, 3) if rng.chance(0.5) else 0 for _ in range(n)]
            rows.append(row)
            slack = 0 if rng.chance(0.5) else _rational(rng, 0, 3)
            rhs.append(sum(a * x for a, x in zip(row, x0)) + slack)
        for j in range(n):
            rows.append([int(k == j) for k in range(n)])
            rhs.append(F(21, 2))
        c = [_rational(rng, -3, 3) for _ in range(n)]
        ties = tuple(
            [_rational(rng, -2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))
        )
        yield c, rows, rhs, ties


RATIONAL_PROGRAMS = list(_rational_programs(SplitMix64(11), 240))


def test_integer_tableau_matches_fraction_tableau_on_rational_programs():
    counts, phase_pivots = _same_results((c, rows, rhs) for c, rows, rhs, _ in RATIONAL_PROGRAMS)
    assert counts == (130, 110)
    assert phase_pivots == {0: 108, 1: 2}
    assert any(
        isinstance(v, Fraction) and v.denominator in (3, 7)
        for c, rows, rhs, ties in RATIONAL_PROGRAMS
        for v in (*c, *rhs, *(a for row in rows for a in row), *(a for t in ties for a in t))
    )


def test_outputs_are_fractions_for_mixed_inputs():
    # max x + 3/2 y  s.t.  x + 2y <= 4,  3x + y <= 6 (ints and Fractions).
    res = simplex_max([1, F(3, 2)], [[1, F(2)], [3, 1]], [F(4), 6])
    assert res.value == F(17, 5)
    assert res.x == [F(8, 5), F(6, 5)]
    for v in (res.value, *res.x, *res.duals):
        assert type(v) is Fraction
    value = certify([1, 1], [[1, 2], [3, 1]], [4, 6], [F(8, 5), F(6, 5)], [F(2, 5), F(1, 5)])
    assert type(value) is Fraction and value == F(14, 5)


def _outcome(check, *args):
    try:
        return check(*args)
    except LpInternalError as e:
        return str(e)


def test_certify_matches_the_fraction_certifier_on_perturbed_pairs():
    rng = SplitMix64(5)
    deltas = [F(s * k, d) for s in (-1, 1) for k, d in ((1, 1), (1, 2), (1, 3), (2, 7))]
    outcomes = {}
    pairs = 0
    for c, rows, rhs, ties in RATIONAL_PROGRAMS:
        res = dense_simplex_max(c, rows, rhs, ties)
        for _ in range(15):
            x, duals = list(res.x), list(res.duals)
            for _ in range(rng.randint(0, 2)):
                vec = x if rng.chance(0.5) else duals
                vec[rng.randint(0, len(vec) - 1)] += deltas[rng.randint(0, len(deltas) - 1)]
            got = _outcome(certify, c, rows, rhs, x, duals)
            assert got == _outcome(fraction_certify_oracle, c, rows, rhs, x, duals)
            outcomes[got if isinstance(got, str) else "certified"] = True
            pairs += 1
    assert pairs >= 3600
    assert set(outcomes) == {
        "certified",
        "negative primal variable",
        "primal constraint violated",
        "negative dual variable",
        "dual constraint violated",
        "duality gap at claimed optimum",
    }


def test_lex_duals_are_the_tie_stage_least_dual_point():
    # The duals after the lexicographic dual phase are the point the tie
    # stages reach on the dual program  min b.y  s.t.  rows^T y >= c,
    # y >= 0: least b.y, then least y_1, y_2, ... in turn.
    checked = 0
    for c, rows, rhs, _ in RATIONAL_PROGRAMS:
        if any(b < 0 for b in rhs):
            continue
        m = len(rows)
        dual_rows = [[-row[j] for row in rows] for j in range(len(c))]
        ties = [[-int(k == i) for k in range(m)] for i in range(m)]
        ref = dense_simplex_max([-b for b in rhs], dual_rows, [-v for v in c], ties)
        assert simplex_max(c, rows, rhs).duals == ref.x
        checked += 1
    assert checked >= 100


def test_lex_duals_reject_a_negative_rhs():
    with pytest.raises(ValueError, match="nonnegative right-hand side"):
        simplex_max([F(1)], [[F(1)], [F(-1)]], [F(2), F(-1)])
