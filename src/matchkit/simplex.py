"""Exact simplex over rationals.

Solves  max c.x  subject to  A x <= b,  x >= 0  with Bland's smallest-index
anti-cycling rule, starting from the slack basis.  That basis is feasible
only when b >= 0, so there is no phase 1 and a negative right-hand side
raises ValueError; matchkit's programs are coverage programs, with b all
ones.  A lexicographic dual phase always follows Bland's optimum.  It
repairs the basis for the program perturbed as if the i-th right-hand side
were raised by eps^i, the perturbation behind the lexicographic rule of
Dantzig, Orden & Wolfe (1955): a row with a zero right-hand side whose row
of B^-1 (its slack columns) is lexicographically negative is pivoted out by
the dual simplex under Bland's rule (Bland 1977), which is finite.  The
point x and its value stay Bland's, and the final basis is optimal for the
perturbed program, so its duals are the lexicographically least optimal
dual point: least b.y, then least y_1, then y_2 and so on.  A solve is not
certified: the caller certifies the pair of points it reports with
``certify`` (primal and dual feasibility, equal objective values), once.

Inputs may be ``int`` or ``Fraction``; outputs are ``Fraction``.  Inside,
each tableau row (and each reduced-cost row) is a list of ``int``
numerators over one positive ``int`` row denominator, and pivots are
fraction-free in the manner of Edmonds (1967) and Bareiss (1968): the row
becomes  p*row - f*pivot_row  over  den*p,  subtracting on the pivot row's
nonzero columns only, and a row over a denominator above 1 is reduced by its
gcd.  On a totally unimodular program every pivot is 1, every denominator
stays 1 and rows are updated in place; the tableau's rows are its own
lists, never the caller's.  The rationals stored are exactly those of a
``Fraction`` tableau, so every pivot choice is the same.  ``certify``
likewise works on integer numerators over common denominators.  A matrix
(with its right-hand side, in ``simplex_max``) of plain ``int`` entries,
such as matchkit's 0/1 coverage matrix, is its own numerators over 1; one
with any ``Fraction`` entry is first put over its least common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import NamedTuple

from .errors import CertificateError


class LpInternalError(CertificateError):
    """Unbounded programs cannot arise from well-formed markets; hitting
    one, or failing a certificate, means the caller built a bad program or
    the arithmetic went wrong."""


class LpResult(NamedTuple):
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    dual_pivots: int = 0  # pivots of the lexicographic dual phase


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over their least
    common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integral(rows, *vectors) -> bool:
    """Whether every entry of ``rows`` and ``vectors`` is an ``int``."""
    return {int}.issuperset(map(type, chain(*rows, *vectors)))


def _eliminate(row: list[int], den: int, f: int, prow: list[int], p: int, cols):
    """row/den - (f/den) * prow/p, reduced: ``prow`` over ``p`` is a pivot
    row whose pivot entry is 1 (numerator ``p``), ``cols`` its nonzero
    columns, and ``f`` is ``row``'s numerator in the pivot column.  When
    ``p`` is 1, ``row`` itself is updated and returned."""
    new = row if p == 1 else [p * a for a in row]
    for j in cols:
        new[j] -= f * prow[j]
    den *= p
    g = gcd(den, *new) if den > 1 else 1
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def simplex_max(
    c: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> LpResult:
    """Maximize c.x s.t. rows[i].x <= rhs[i] for all i, x >= 0 by Bland's
    rule, starting from the slack basis, which is feasible only when every
    right-hand side is nonnegative (a ValueError otherwise).  The
    lexicographic dual phase follows, so ``duals`` is the lexicographically
    least optimal dual point, while ``x`` and ``value`` are Bland's.
    ``value`` is c.x, read off the tableau and not certified here."""
    m, n = len(rows), len(c)
    if any(b < 0 for b in rhs):
        raise ValueError("simplex_max needs a nonnegative right-hand side")

    # Tableau columns: n decision vars, m slacks, then the right-hand side.
    # Row i < m holds the equation for basis[i]: numerators tab[i] over
    # den[i], which starts as the least common denominator of the program.
    # Row m holds the reduced costs, c itself in the slack basis (zero on
    # slacks), and -c.x, which the slack basis starts at 0 and no pivot
    # raises above 0, so its column never enters.
    # An all-int program is its own numerators over 1.
    if _integral(rows, rhs):
        d, nums, bs = 1, rows, rhs
    else:
        d = lcm(*(a.denominator for row in rows for a in row), *(b.denominator for b in rhs))
        nums = [[a.numerator * (d // a.denominator) for a in row] for row in rows]
        bs = [b.numerator * (d // b.denominator) for b in rhs]
    tab: list[list[int]] = []
    for i, row in enumerate(nums):
        new = row + [0] * m  # a new list: pivots update tableau rows in place
        new[n + i] = d
        new.append(bs[i])
        tab.append(new)
    red, rd = _scaled(c)
    tab.append(red + [0] * (m + 1))
    den = [d] * m + [rd]
    basis = list(range(n, n + m))

    def pivot(r: int, col: int) -> None:
        # The pivot row's new denominator is its pivot entry, made positive:
        # a primal pivot entry is positive and a dual one negative.  Only
        # rows with a nonzero entry in the pivot column change, and only in
        # the pivot row's nonzero columns: matchkit's programs are mostly
        # zeros.
        prow = tab[r]
        p = prow[col]
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        g = gcd(*prow) if p > 1 else 1
        if g > 1:
            prow = [v // g for v in prow]
            p //= g
        tab[r], den[r] = prow, p
        cols = list(compress(range(len(prow)), prow))
        for i in range(m + 1):
            if i != r and tab[i][col]:
                tab[i], den[i] = _eliminate(tab[i], den[i], tab[i][col], prow, p, cols)
        basis[r] = col

    # Bland: entering = lowest-index column with positive reduced cost;
    # leaving = min ratio, ties by lowest basic-variable index.  Row
    # denominators cancel in a ratio, and ratios are compared by
    # cross-multiplying with positive denominators.
    while True:
        enter = next((j for j, r in enumerate(tab[m]) if r > 0), -1)
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                num = tab[i][-1]
                if leave < 0 or num * best_den < best_num * a or (
                    num * best_den == best_num * a and basis[i] < basis[leave]
                ):
                    best_num, best_den = num, a
                    leave = i
        if leave < 0:
            raise LpInternalError("linear program is unbounded")
        pivot(leave, enter)

    # The lexicographic dual phase.  With the i-th right-hand side raised by
    # eps^i, a row with a zero right-hand side is negative when the first
    # nonzero of its slack entries is.  Bland's dual rule pivots out the
    # lowest such basic index, entering the least ratio red_j / a_j over the
    # row's negative entries (ties by lowest index), so no reduced cost turns
    # positive.  Each pivot row's right-hand side is zero: x and the value
    # do not move.
    dual_pivots = 0
    while True:
        leave = -1
        for i in range(m):
            row = tab[i]
            if not row[-1] and (leave < 0 or basis[i] < basis[leave]):
                if next(v for v in row[n : n + m] if v) < 0:
                    leave = i
        if leave < 0:
            break
        row, red = tab[leave], tab[m]
        enter = -1
        for j in range(n + m):
            a = row[j]
            # Both entries negative: red_j/a_j < red_e/a_e iff red_j*a_e < red_e*a_j.
            if a < 0 and (enter < 0 or red[j] * row[enter] < red[enter] * a):
                enter = j
        if enter < 0:
            # A lexicographically negative row has a negative slack entry, so
            # only broken arithmetic gets here.
            raise LpInternalError("lexicographic dual phase found no entering column")
        pivot(leave, enter)
        dual_pivots += 1

    red, rd = tab[m], den[m]
    duals = [Fraction(-red[n + i], rd) for i in range(m)]

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], den[i])
    return LpResult(value=Fraction(-red[-1], rd), x=x, duals=duals, dual_pivots=dual_pivots)


def certify(c, rows, b, x, duals) -> Fraction:
    """Return the common value of  max c.x  s.t.  rows.x <= b,  x >= 0  and
    its dual  min b.y  s.t.  rows^T y >= c,  y >= 0  at the pair (x, duals),
    or raise LpInternalError unless both points are feasible with equal
    values.  Equal values make both optimal and imply complementary
    slackness.  Each vector is compared as integer numerators over one
    common denominator."""
    X, dx = _scaled(x)
    if any(v < 0 for v in X):
        raise LpInternalError("negative primal variable")
    if _integral(rows):
        da, A = 1, rows
    else:
        da = lcm(*(a.denominator for row in rows for a in row))
        A = [[a.numerator * (da // a.denominator) for a in row] for row in rows]
    B, db = _scaled(b)
    # rows[i].x <= b[i]  <=>  (A[i].X) * db <= B[i] * da * dx
    scale = da * dx
    for row, bi in zip(A, B):
        if sum(a * xj for a, xj in zip(row, X) if a) * db > bi * scale:
            raise LpInternalError("primal constraint violated")
    Y, dy = _scaled(duals)
    if any(v < 0 for v in Y):
        raise LpInternalError("negative dual variable")
    C, dc = _scaled(c)
    # (rows^T y)[j] >= c[j]  <=>  (Y.A[:, j]) * dc >= C[j] * da * dy
    col = [0] * len(C)
    for yi, row in zip(Y, A):
        if yi:
            for j, a in enumerate(row):
                if a:
                    col[j] += yi * a
    scale = da * dy
    for s, cj in zip(col, C):
        if s * dc < cj * scale:
            raise LpInternalError("dual constraint violated")
    # b.y = dual / (db * dy)  and  c.x = value / (dc * dx)
    dual = sum(yi * bi for yi, bi in zip(Y, B))
    value = sum(cj * xj for cj, xj in zip(C, X))
    if dual * dc * dx != value * db * dy:
        raise LpInternalError("duality gap at claimed optimum")
    return Fraction(value, dc * dx)
