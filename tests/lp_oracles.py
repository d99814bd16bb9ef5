"""The LP layer as it was before ``solve-tu`` ran on integers end to end:
``simplex_max`` certifying each solve itself, with dense eliminations and
the lexicographic leaving rule under ``lex_duals``; ``solve_lp`` making two
solves, Bland's rule for the weights and the lexicographic rule for the
prices, certifying its pair a third time and summing coverage in
Fractions; and ``check_stable_tu`` summing utilities and coalition values
in Fractions.  This file is the two-solve reference: the package solves
once, Bland's rule followed by a lexicographic dual phase, and must report
this ``simplex_max``'s Bland x and value with its lexicographic-rule duals.
Kept verbatim as oracles for the differential tests in
``test_lp_oracles.py``, together with ``coalition_value``, which left
``matchkit.model`` once only these oracles and the tests called it; only
``solve_lp`` changed since, to read the problem's integer values over its
scale.  ``integer_program`` puts a rational program over integers, the
form the package's ``simplex_max`` and ``certify`` take."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from matchkit.model import (
    Coalition,
    TuMarket,
    TuMatching,
    set_key,
    tu_utilities,
    validate_tu_matching,
)
from matchkit.simplex import LpInternalError, LpResult
from matchkit.tu_solver import (
    DualSolution,
    StabilityViolation,
    TuLpProblem,
    TuStabilityVerdict,
    agent_order,
    potential_coalitions,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def coalition_value(m: TuMarket, c: Coalition) -> Fraction:
    """Aggregate value V(S): v_f(S') plus the members' firm valuations for
    coalitions {f} u S', and 0 for singletons.

    The coalition must belong to I u E: for a firm coalition, S' must be
    acceptable to f and f acceptable to every member.
    """
    if c.firm is None:
        (w,) = c.workers
        if w not in m.workers:
            raise ValueError(f"unknown worker {w!r}")
        return Fraction(0)
    if c.firm not in m.firms:
        raise ValueError(f"unknown firm {c.firm!r}")
    if not c.workers:
        return Fraction(0)
    if c.workers not in m.firm_valuations.get(c.firm, {}):
        raise ValueError(f"{c.label()} is not an acceptable set of {c.firm!r}")
    for w in c.workers:
        if c.firm not in m.worker_valuations.get(w, {}):
            raise ValueError(f"firm {c.firm!r} is unacceptable to worker {w!r}")
    total = m.firm_value(c.firm, c.workers)
    for w in c.workers:
        total += m.worker_value(w, c.firm)
    return total


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over their least
    common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_program(c, rows, rhs):
    """``max c.x  s.t.  rows.x <= rhs,  x >= 0`` with integer entries: each
    row with its right-hand side times that row's least common denominator,
    and ``c`` times its own.  The feasible set, the pivots and ``x`` stay the
    same; the value scales by c's factor, and the i-th dual by c's factor
    over row i's."""
    scaled = [_scaled([*row, b])[0] for row, b in zip(rows, rhs)]
    return _scaled(c)[0], [r[:-1] for r in scaled], [r[-1] for r in scaled]


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


def solve_lp(problem: TuLpProblem) -> tuple[dict[str, Fraction], DualSolution]:
    """Exact optimal primal point and dual weights with equal values.

    The dual (coverage) program is solved by simplex starting from the
    all-singletons basis.  The primal point is the lexicographically least
    optimal one in agent order, so that reported prices are reproducible
    across optima; ``simplex.certify`` checks it against the coverage
    weights.
    """
    agents = problem.agents
    idx = {a: i for i, a in enumerate(agents)}
    firm_cols = problem.firm_coalitions()
    n_rows = len(agents)

    rows = [[0] * len(firm_cols) for _ in agents]
    for j, (c, _) in enumerate(firm_cols):
        for a in c.members():
            rows[idx[a]][j] = 1
    rhs = [1] * n_rows
    objective = [Fraction(v, problem.scale) for _, v in firm_cols]
    result = simplex_max(objective, rows, rhs)
    x = _lex_min_primal(rows, objective)
    certify(objective, rows, rhs, result.x, x)

    weights: dict[Coalition, Fraction] = {}
    coverage = [ZERO] * n_rows
    for j, (c, _) in enumerate(firm_cols):
        if result.x[j] != 0:
            weights[c] = result.x[j]
            for a in c.members():
                coverage[idx[a]] += result.x[j]
    for c in problem.coalitions:
        if c.is_singleton:
            (a,) = c.members()
            slack = ONE - coverage[idx[a]]
            if slack != 0:
                weights[c] = slack
    dual = DualSolution(weights=weights, value=result.value)
    return {a: x[i] for a, i in idx.items()}, dual


def _lex_min_primal(rows, objective):
    """The lexicographically least optimal point of  min sum x  s.t.
    rows^T x >= objective,  x >= 0: minimize the sum, then x_1, x_2, ...
    over the optimal face.  It is the dual point of the coverage program
    max objective.w  s.t.  rows w <= 1,  w >= 0  solved under the
    lexicographic leaving rule."""
    return simplex_max(objective, rows, [1] * len(rows), lex_duals=True).duals


def check_stable_tu(m: TuMarket, mu: TuMatching) -> TuStabilityVerdict:
    """Individual rationality plus the transferable-utility no-blocking
    test: every potential coalition's members must jointly hold at least the
    coalition's value."""
    problems = validate_tu_matching(m, mu)
    if problems:
        raise ValueError("; ".join(problems))
    violations: list[StabilityViolation] = []
    for w in sorted(m.workers):
        f = mu.firm_of(w)
        if f is not None and f not in m.worker_valuations.get(w, {}):
            violations.append(
                StabilityViolation(
                    kind="ir", agent=w, note=f"matched to unacceptable firm {f!r}"
                )
            )
    for f in sorted(m.firms):
        staff = mu.workers_of(f)
        if staff and staff not in m.firm_valuations.get(f, {}):
            violations.append(
                StabilityViolation(
                    kind="ir",
                    agent=f,
                    note=f"matched to unacceptable set {set_key(staff)}",
                )
            )
    if violations:
        return TuStabilityVerdict(stable=False, violations=tuple(violations))

    utilities = tu_utilities(m, mu)
    for a in agent_order(m):
        if utilities[a] < 0:
            violations.append(
                StabilityViolation(
                    kind="ir",
                    agent=a,
                    deficit=-utilities[a],
                    note="negative utility",
                )
            )
    for c in potential_coalitions(m):
        if c.is_singleton:
            continue
        held = sum((utilities[a] for a in c.members()), ZERO)
        value = coalition_value(m, c)
        if held < value:
            violations.append(
                StabilityViolation(kind="block", coalition=c, deficit=value - held)
            )
    return TuStabilityVerdict(stable=not violations, violations=tuple(violations))
