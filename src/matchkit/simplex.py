"""Exact simplex over rationals.

Solves  max c.x  subject to  A x <= b,  x >= 0  with Fraction arithmetic,
Bland's smallest-index anti-cycling rule, and a phase-1 round (artificial
variables) whenever some right-hand side is negative.  Tie-breaking
objectives are then maximized in turn over the optimal face, in the same
tableau: the lexicographic simplex of Dantzig, Orden & Wolfe (1955).  Every
solve is certified before returning: primal feasibility, dual feasibility,
and exact equality of the two objective values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError

ZERO = Fraction(0)
ONE = Fraction(1)


class LpInternalError(CertificateError):
    """Unbounded/infeasible programs cannot arise from well-formed markets;
    hitting one, or failing a certificate, means the caller built a bad
    program or the arithmetic went wrong."""


@dataclass
class LpResult:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]


def simplex_max(
    c: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    ties: Sequence[list[Fraction]] = (),
) -> LpResult:
    """Maximize c.x s.t. rows[i].x <= rhs[i] for all i, x >= 0; then
    maximize each objective in ``ties`` in turn over the points optimal for
    all objectives before it.  ``value`` and ``duals`` belong to ``c``."""
    m, n = len(rows), len(c)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in rhs]

    # Tableau columns: n decision vars, m slacks, then (phase 1 only) one
    # artificial per negated row.  Row i holds the equation for basis[i].
    neg = [i for i in range(m) if b[i] < 0]
    n_art = len(neg)
    width = n + m + n_art
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {}
    for k, i in enumerate(neg):
        art_col[i] = n + m + k
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

    def pivot(r: int, col: int) -> None:
        # matchkit's programs are mostly zeros: update only the pivot row's
        # nonzero columns, in place (a zero entry changes no other row).
        prow = tab[r]
        nz = [j for j, v in enumerate(prow) if v]
        piv = prow[col]
        if piv != ONE:
            inv = ONE / piv
            for j in nz:
                prow[j] *= inv
        for i in range(m):
            if i == r:
                continue
            row_i = tab[i]
            factor = row_i[col]
            if factor:
                for j in nz:
                    row_i[j] -= factor * prow[j]
        basis[r] = col

    def run(red: list[Fraction], allowed: list[int]) -> None:
        # Bland: entering = lowest-index allowed column with positive reduced
        # cost; leaving = min ratio, ties by lowest basic-variable index.
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
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise LpInternalError("linear program is unbounded")
            pivot(leave, enter)
            factor = red[enter]
            prow = tab[leave]
            for j in allowed:
                if prow[j]:
                    red[j] -= factor * prow[j]

    def reduced(obj: list[Fraction]) -> list[Fraction]:
        # Reduced costs of ``obj`` (zero on slacks) in the current basis.
        red = [Fraction(v) for v in obj] + [ZERO] * (m + n_art)
        for i in range(m):
            factor = red[basis[i]]
            if factor:
                row = tab[i]
                for j in range(width):
                    if row[j]:
                        red[j] -= factor * row[j]
        return red

    allowed = list(range(n + m))

    if n_art:
        # Phase 1: drive the artificials (basic, cost -1) to zero.
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
                # Basic artificial at zero: swap in any structural column
                # (its own slack always has a nonzero coefficient).
                for j in range(n + m):
                    if tab[i][j] != 0:
                        pivot(i, j)
                        break
                else:
                    raise LpInternalError("degenerate artificial row")

    # Phase 2 on the real objective.
    red = reduced(c)
    run(red, allowed)
    duals = [-red[n + i] for i in range(m)]
    for obj in ties:
        # A column with nonzero reduced cost would leave the optimal face:
        # freeze it.  Pivots on the remaining columns leave the earlier
        # objectives' reduced costs, hence ``duals``, unchanged.
        allowed = [j for j in allowed if red[j] == 0]
        red = reduced(obj)
        run(red, allowed)

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = certify(c, rows, b, x, duals)
    return LpResult(value=value, x=x, duals=duals)


def certify(c, rows, b, x, duals) -> Fraction:
    """Return the common value of  max c.x  s.t.  rows.x <= b,  x >= 0  and
    its dual  min b.y  s.t.  rows^T y >= c,  y >= 0  at the pair (x, duals),
    or raise LpInternalError unless both points are feasible with equal
    values.  Equal values make both optimal and imply complementary
    slackness."""
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
