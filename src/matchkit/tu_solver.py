"""Stable-matching existence in TU markets via LP duality.

The fractional cover program over singleton and firm coalitions is solved
exactly; its value equals the best integral partition value precisely when
a stable matching exists, in which case prices fall out of the binding
coalition constraints of the optimal partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, SizeGuardExceeded
from .model import (
    Coalition,
    DEFAULT_BUDGET,
    DEFAULT_GUARD,
    TuMarket,
    TuMatching,
    WorkerSet,
    _Budget,
    check_guard,
    coalition_value,
    iter_disjoint_assignments,
    set_key,
    tu_utilities,
    validate_tu_matching,
)
from .simplex import certify, simplex_max

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class TuLpProblem:
    """min sum x(i)  s.t.  sum_{i in S} x(i) >= V(S) for S in I u E."""

    agents: tuple[str, ...]
    coalitions: tuple[Coalition, ...]
    values: tuple[Fraction, ...]

    def firm_coalitions(self) -> list[tuple[Coalition, Fraction]]:
        return [
            (c, v)
            for c, v in zip(self.coalitions, self.values)
            if not c.is_singleton
        ]


@dataclass(frozen=True)
class DualSolution:
    """Nonnegative coalition weights covering every agent exactly once."""

    weights: dict[Coalition, Fraction]
    value: Fraction


@dataclass(frozen=True)
class StabilityViolation:
    kind: str  # "ir" or "block"
    agent: str | None = None
    coalition: Coalition | None = None
    deficit: Fraction | None = None
    note: str = ""


@dataclass(frozen=True)
class TuStabilityVerdict:
    stable: bool
    violations: tuple[StabilityViolation, ...] = ()


@dataclass(frozen=True)
class TuStabilityReport:
    lp_value: Fraction
    partition_value: Fraction
    stable: bool
    matching: TuMatching | None
    certificate: DualSolution | None
    optimal_partition: dict[str, WorkerSet]
    lp_primal: dict[str, Fraction]


def agent_order(m: TuMarket) -> tuple[str, ...]:
    return tuple(sorted(m.firms) + sorted(m.workers))


def potential_coalitions(m: TuMarket) -> list[Coalition]:
    """I u E: all singletons, then every firm coalition {f} u S with S
    acceptable to f and f acceptable to every member of S."""
    out = [Coalition.singleton(f, is_firm=True) for f in sorted(m.firms)]
    out += [Coalition.singleton(w, is_firm=False) for w in sorted(m.workers)]
    for f in sorted(m.firms):
        for s in m.acceptable_sets(f):
            if all(f in m.worker_valuations.get(w, {}) for w in s):
                out.append(Coalition.of(f, s))
    return out


def build_lp_problem(m: TuMarket) -> TuLpProblem:
    check_guard(m)
    coalitions = tuple(potential_coalitions(m))
    if len(coalitions) > DEFAULT_GUARD.max_coalitions:
        raise SizeGuardExceeded(
            f"{len(coalitions)} coalitions > guard {DEFAULT_GUARD.max_coalitions}"
        )
    values = tuple(coalition_value(m, c) for c in coalitions)
    return TuLpProblem(agents=agent_order(m), coalitions=coalitions, values=values)


def max_partition_value(
    m: TuMarket, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, dict[str, WorkerSet]]:
    """Best aggregate value over all assignments of disjoint firm coalitions
    (or none) to firms, by exhaustive search; returns the
    lexicographically-first maximizer in (firm order, set order)."""
    check_guard(m)
    coalitions = [c for c in potential_coalitions(m) if c.firm is not None]
    values = [coalition_value(m, c) for c in coalitions]
    # Totals are summed as integers over a common denominator: exact, and
    # much cheaper per assignment than adding Fractions.
    scale = math.lcm(*(v.denominator for v in values))
    # A firm's singleton, listed before its other coalitions, is the empty set.
    options: dict[str, list] = {f: [] for f in sorted(m.firms)}
    for c, v in zip(coalitions, values):
        options[c.firm].append((c.workers, (c.workers, int(v * scale))))

    # The all-empty assignment (value 0) is always feasible.
    best_total = 0
    best = [(frozenset(), 0)] * len(options)
    search = iter_disjoint_assignments(
        list(options.values()), _Budget(budget, "partition search")
    )
    for picked in search:
        total = sum(v for _, v in picked)
        if total > best_total:
            best_total, best = total, picked
    return Fraction(best_total, scale), {f: s for f, (s, _) in zip(options, best)}


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
    objective = [v for _, v in firm_cols]
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
    over the optimal face, in one simplex tableau."""
    n = len(rows)
    primal = [[-r[j] for r in rows] for j in range(len(objective))]
    ties = [[-int(k == i) for k in range(n)] for i in range(n)]
    return simplex_max([-1] * n, primal, [-v for v in objective], ties).x


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


def find_stable_matching_tu(
    m: TuMarket, budget: int = DEFAULT_BUDGET
) -> TuStabilityReport:
    """Decide stable-matching existence: stable with (mu, p) when the LP
    value equals the best partition value, otherwise unstable with the
    fractional cover as certificate.  The partition search spends at most
    ``budget`` steps."""
    problem = build_lp_problem(m)
    vbar, partition = max_partition_value(m, budget)
    x, dual = solve_lp(problem)
    vtilde = dual.value
    if vtilde < vbar:
        raise CertificateError("partition value exceeded the LP value")

    if vtilde > vbar:
        return TuStabilityReport(
            lp_value=vtilde,
            partition_value=vbar,
            stable=False,
            matching=None,
            certificate=dual,
            optimal_partition=partition,
            lp_primal=x,
        )

    assignment: dict[str, str] = {}
    prices: dict[str, Fraction] = {}
    for f, staff in partition.items():
        for w in staff:
            assignment[w] = f
            prices[w] = x[w] - m.worker_value(w, f)
    for w in m.workers:
        if w not in assignment and x[w] != 0:
            raise CertificateError(f"unmatched worker {w!r} with positive LP value")
    for f, staff in partition.items():
        implied = m.firm_value(f, staff) - sum((prices[w] for w in staff), ZERO)
        if implied != x[f]:
            raise CertificateError(
                f"firm {f!r} value inconsistent with binding coalition"
            )
    matching = TuMatching(assignment=assignment, prices=prices)
    verdict = check_stable_tu(m, matching)
    if not verdict.stable:
        raise CertificateError(f"constructed matching unstable: {verdict.violations}")
    return TuStabilityReport(
        lp_value=vtilde,
        partition_value=vbar,
        stable=True,
        matching=matching,
        certificate=dual,
        optimal_partition=partition,
        lp_primal=x,
    )
