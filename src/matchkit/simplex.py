"""Exact simplex on integer programs.

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

The program is an integer one: ``c``, the rows and the right-hand side
hold ``int``s; outputs are ``Fraction``.  Inside, each tableau row (and
each reduced-cost row) is a list of ``int`` numerators over one positive
``int`` row denominator, 1 at the start, and pivots are fraction-free in
the manner of Edmonds (1967) and Bareiss (1968): the row becomes
p*row - f*pivot_row  over  den*p,  subtracting on the pivot row's nonzero
columns only, and a row over a denominator above 1 is reduced by its gcd.
On a totally unimodular program every pivot is 1, every denominator stays
1 and rows are updated in place; the tableau's rows are its own lists,
never the caller's.  The rationals stored are exactly those of a
``Fraction`` tableau, so every pivot choice is the same.  ``certify``
likewise compares integer numerators, with the rational points over their
least common denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
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


def simplex_max(c: list[int], rows: list[list[int]], rhs: list[int]) -> LpResult:
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
    # den[i].  Row m holds the reduced costs, c itself in the slack basis
    # (zero on slacks), and -c.x, which the slack basis starts at 0 and no
    # pivot raises above 0, so its column never enters.
    tab: list[list[int]] = []
    for i, row in enumerate(rows):
        new = row + [0] * m  # a new list: pivots update tableau rows in place
        new[n + i] = 1
        new.append(rhs[i])
        tab.append(new)
    tab.append(c + [0] * (m + 1))
    den = [1] * (m + 1)
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
    slackness.  ``x`` and ``duals`` are compared as integer numerators over
    their least common denominators."""
    X, dx = _scaled(x)
    if any(v < 0 for v in X):
        raise LpInternalError("negative primal variable")
    # rows[i].x <= b[i]  <=>  rows[i].X <= b[i] * dx
    for row, bi in zip(rows, b):
        if sum(a * xj for a, xj in zip(row, X) if a) > bi * dx:
            raise LpInternalError("primal constraint violated")
    Y, dy = _scaled(duals)
    if any(v < 0 for v in Y):
        raise LpInternalError("negative dual variable")
    # (rows^T y)[j] >= c[j]  <=>  (Y.rows[:, j]) >= c[j] * dy
    col = [0] * len(c)
    for yi, row in zip(Y, rows):
        if yi:
            for j, a in enumerate(row):
                if a:
                    col[j] += yi * a
    for s, cj in zip(col, c):
        if s < cj * dy:
            raise LpInternalError("dual constraint violated")
    # b.y = dual / dy  and  c.x = value / dx
    dual = sum(yi * bi for yi, bi in zip(Y, b))
    value = sum(cj * xj for cj, xj in zip(c, X))
    if dual * dx != value * dy:
        raise LpInternalError("duality gap at claimed optimum")
    return Fraction(value, dx)
