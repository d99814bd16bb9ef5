"""Stable-matching existence in TU markets via LP duality.

The fractional cover program over singleton and firm coalitions is solved
exactly; its value equals the best integral partition value precisely when
a stable matching exists, in which case prices fall out of the binding
coalition constraints of the optimal partition.

The coverage program is solved twice from the all-singletons basis: once
under Bland's rule for the reported coalition weights, and once under the
lexicographic leaving rule, whose duals are the lexicographically least
optimal primal point, hence the reported prices.  The best partition comes
from a dynamic program over (firm, used-worker bitmask) on the same
coalitions and values: ``build_lp_problem`` builds them once per solve, and
only ``check_stable_tu``, the independent re-check of a constructed
matching, builds them again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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
    set_key,
    tu_utilities,
    validate_tu_matching,
)
from .simplex import certify, simplex_max

ZERO = Fraction(0)
ONE = Fraction(1)


class TuLpProblem(NamedTuple):
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


class DualSolution(NamedTuple):
    """Nonnegative coalition weights covering every agent exactly once."""

    weights: dict[Coalition, Fraction]
    value: Fraction


class StabilityViolation(NamedTuple):
    kind: str  # "ir" or "block"
    agent: str | None = None
    coalition: Coalition | None = None
    deficit: Fraction | None = None
    note: str = ""


class TuStabilityVerdict(NamedTuple):
    stable: bool
    violations: tuple[StabilityViolation, ...] = ()


class TuStabilityReport(NamedTuple):
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
    problem: TuLpProblem, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, dict[str, WorkerSet]]:
    """Best aggregate value over all assignments of disjoint firm coalitions
    (or none) to firms, read from the coalitions and values of ``problem``,
    by dynamic programming over (firm, used workers); returns the
    lexicographically-first maximizer in (firm order, set order).  Each
    (state, option) pair evaluated spends one budget step."""
    # Totals are summed as integers over a common denominator: exact, and
    # much cheaper than adding Fractions.
    scale = math.lcm(*(v.denominator for v in problem.values))
    # Which bit stands for which worker changes neither the totals nor the
    # number of states, so bits go out in the order workers are first seen.
    bit: dict[str, int] = {}
    # Firms come in the order of their singletons, which list first and
    # stand for the empty set.
    options: dict[str, list] = {}
    for c, v in zip(problem.coalitions, problem.values):
        if c.firm is not None:
            mask = sum(bit.setdefault(w, 1 << len(bit)) for w in c.workers)
            options.setdefault(c.firm, []).append(
                (c.workers, mask, v.numerator * (scale // v.denominator))
            )
    slots = list(options.values())
    memo: list[dict[int, int]] = [{} for _ in slots]
    steps = _Budget(budget, "partition search")

    def best(i: int, used: int) -> int:
        # Best total of firms i, i+1, ... given the workers in ``used``.
        if i == len(slots):
            return 0
        top = memo[i].get(used)
        if top is None:
            for _, mask, v in slots[i]:
                steps.spend()
                if not mask & used:
                    total = v + best(i + 1, used | mask)
                    if top is None or total > top:
                        top = total
            memo[i][used] = top
        return top

    # Forward: each firm takes its first option that keeps the best total,
    # which yields the first maximizer in product order.  Every state read
    # here was filled in by the search above.
    total = target = best(0, 0)
    used = 0
    partition = {}
    for i, (f, opts) in enumerate(options.items()):
        for s, mask, v in opts:
            if not mask & used and v + best(i + 1, used | mask) == target:
                partition[f] = s
                used |= mask
                target -= v
                break
    return Fraction(total, scale), partition


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


def find_stable_matching_tu(
    m: TuMarket, budget: int = DEFAULT_BUDGET
) -> TuStabilityReport:
    """Decide stable-matching existence: stable with (mu, p) when the LP
    value equals the best partition value, otherwise unstable with the
    fractional cover as certificate.  The partition search spends at most
    ``budget`` steps."""
    problem = build_lp_problem(m)
    vbar, partition = max_partition_value(problem, budget)
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
