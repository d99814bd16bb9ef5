from fractions import Fraction

import pytest

from matchkit.errors import CertificateError
from matchkit.generator import SplitMix64
from matchkit.simplex import LpInternalError, certify, simplex_max

F = Fraction


def test_textbook_max():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6
    res = simplex_max([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)])
    assert res.value == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_negative_rhs_triggers_phase_one():
    # max -x  s.t.  -x <= -2,  x <= 5   (i.e. minimize x over [2, 5])
    res = simplex_max([F(-1)], [[F(-1)], [F(1)]], [F(-2), F(5)])
    assert res.value == F(-2)
    assert res.x == [F(2)]


def test_infeasible_detected():
    # x <= -1 with x >= 0 is empty.
    with pytest.raises(LpInternalError):
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
        res = simplex_max(c, rows, rhs, ties=ties)
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
        res = simplex_max([F(1), F(1)], rows, rhs, ties=(tie,))
        assert res.x == vertex
        assert res.value == 2
        assert res.duals == [F(1), F(0), F(0)]


def test_later_ties_stay_on_the_earlier_optimal_face():
    # The first tie fixes x = 0 on the face x + y + z = 1; the second then
    # splits y against z, and may not trade x back in.
    rows = [[F(1), F(1), F(1)], [F(0), F(1), F(0)]]
    rhs = [F(1), F(1, 3)]
    ones = [F(1)] * 3
    res = simplex_max(ones, rows, rhs, ties=([F(-1), F(0), F(0)], [F(1), F(1), F(-1)]))
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
    res = simplex_max([F(1)] * 3, rows, rhs, ties=ties)
    assert res.x == [F(0), F(0), F(1)]
    assert res.value == 1


def test_ties_after_phase_one():
    # min x + y  s.t.  x + y >= 2,  x >= 1/2: lexicographically least
    # optimal point (1/2, 3/2) once x is minimized.
    rows = [[F(-1), F(-1)], [F(-1), F(0)]]
    rhs = [F(-2), F(-1, 2)]
    res = simplex_max([F(-1), F(-1)], rows, rhs, ties=([F(-1), F(0)],))
    assert res.x == [F(1, 2), F(3, 2)]
    assert res.value == -2


def test_unbounded_tie_detected():
    # max -x  s.t.  x - y <= 0: the optimal face x = 0 leaves y unbounded.
    with pytest.raises(LpInternalError):
        simplex_max([F(-1), F(0)], [[F(1), F(-1)]], [F(0)], ties=([F(0), F(1)],))


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
