"""Exact simplex over rationals.

Solves  max c.x  subject to  A x <= b,  x >= 0  with Bland's smallest-index
anti-cycling rule, starting from the slack basis.  That basis is feasible
only when b >= 0, so there is no phase 1 and a negative right-hand side
raises ValueError; matchkit's programs are coverage programs, with b all
ones.  With ``lex_duals`` the leaving row is chosen by the lexicographic
rule of Dantzig, Orden & Wolfe (1955) instead: ratio ties are broken on the
rows of B^-1 (the slack columns), as if the i-th right-hand side were
raised by eps^i.  The final basis is then optimal for that perturbed
program, so its duals are the lexicographically least optimal dual point:
least b.y, then least y_1, then y_2 and so on.  Every solve is certified
before returning: primal feasibility, dual feasibility, and exact equality
of the two objective values.

Inputs may be ``int`` or ``Fraction``; outputs are ``Fraction``.  Inside,
each tableau row (and each reduced-cost row) is a list of ``int``
numerators over one positive ``int`` row denominator, and pivots are
fraction-free in the manner of Edmonds (1967) and Bareiss (1968): the row
becomes  p*row - f*pivot_row  over  den*p  and is reduced by its gcd.  The
rationals stored are exactly those of a ``Fraction`` tableau, so every
pivot choice is the same.  ``certify`` likewise works on integer numerators
over common denominators.
"""

from __future__ import annotations

from fractions import Fraction
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


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over their least
    common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(row: list[int], den: int, f: int, prow: list[int], p: int):
    """row/den - (f/den) * prow/p, reduced: ``prow`` over ``p`` is a pivot
    row whose pivot entry is 1 (numerator ``p``) and ``f`` is ``row``'s
    numerator in the pivot column.  A result as long as the shorter input."""
    new = [p * a - f * b for a, b in zip(row, prow)]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def simplex_max(
    c: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    lex_duals: bool = False,
) -> LpResult:
    """Maximize c.x s.t. rows[i].x <= rhs[i] for all i, x >= 0, starting
    from the slack basis, which is feasible only when every right-hand side
    is nonnegative (a ValueError otherwise).  With ``lex_duals`` the leaving
    rule is lexicographic, so ``duals`` is the lexicographically least
    optimal dual point."""
    m, n = len(rows), len(c)
    if any(b < 0 for b in rhs):
        raise ValueError("simplex_max needs a nonnegative right-hand side")

    # Tableau columns: n decision vars, m slacks, then the right-hand side.
    # Row i holds the equation for basis[i]: numerators tab[i] over den[i].
    tab: list[list[int]] = []
    den: list[int] = []
    for i in range(m):
        nums, d = _scaled([*rows[i], rhs[i]])
        row = nums[:n] + [0] * m + nums[n:]
        row[n + i] = d
        tab.append(row)
        den.append(d)
    basis = list(range(n, n + m))

    def pivot(r: int, col: int) -> None:
        # The pivot row's new denominator is its pivot entry.  A row with a
        # zero entry in the pivot column is unchanged: matchkit's programs
        # are mostly zeros, so most rows are skipped.
        prow = tab[r]
        p = prow[col]
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        g = gcd(*prow)
        if g > 1:
            prow = [v // g for v in prow]
            p //= g
        tab[r], den[r] = prow, p
        for i in range(m):
            if i != r and tab[i][col]:
                tab[i], den[i] = _eliminate(tab[i], den[i], tab[i][col], prow, p)
        basis[r] = col

    def lex_first(i: int, a: int, leave: int, b: int) -> bool:
        # Row i over its pivot entry a precedes row ``leave`` over b on the
        # slack columns, the rows of B^-1.  Those rows are linearly
        # independent, so some column tells them apart.
        row, best = tab[i], tab[leave]
        for k in range(n, n + m):
            u, v = row[k] * b, best[k] * a
            if u != v:
                return u < v
        return False

    # In the slack basis the reduced costs are c itself (zero on slacks).
    # Bland: entering = lowest-index column with positive reduced cost;
    # leaving = min ratio, ties by lowest basic-variable index or, with
    # lex_duals, lexicographically.  Row denominators cancel in a ratio, and
    # ratios are compared by cross-multiplying with positive denominators.
    red, rd = _scaled(c)
    red += [0] * m
    while True:
        enter = next((j for j, r in enumerate(red) if r > 0), -1)
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                num = tab[i][-1]
                if leave < 0 or num * best_den < best_num * a or (
                    num * best_den == best_num * a
                    and (
                        lex_first(i, a, leave, best_den)
                        if lex_duals
                        else basis[i] < basis[leave]
                    )
                ):
                    best_num, best_den = num, a
                    leave = i
        if leave < 0:
            raise LpInternalError("linear program is unbounded")
        pivot(leave, enter)
        red, rd = _eliminate(red, rd, red[enter], tab[leave], den[leave])
    duals = [Fraction(-red[n + i], rd) for i in range(m)]

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], den[i])
    value = certify(c, rows, rhs, x, duals)
    return LpResult(value=value, x=x, duals=duals)


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
