"""Stable-matching existence in TU markets via LP duality.

The fractional cover program over singleton and firm coalitions is solved
exactly; its value equals the best integral partition value precisely when
a stable matching exists, in which case prices fall out of the binding
coalition constraints of the optimal partition.

The coverage program is solved once from the all-singletons basis: Bland's
rule gives the reported coalition weights, and a lexicographic dual phase
from Bland's optimal basis gives duals that are the lexicographically least
optimal primal point, hence the reported prices; ``solve_lp`` certifies
that pair, and only it, once.  The best partition comes from a dynamic
program over (firm, used-worker bitmask) on the same coalitions and values:
``build_lp_problem`` builds them once per solve, and only
``check_stable_tu``, the independent re-check of a constructed matching,
builds them again.  Both sum values as integers over one denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CertificateError, InvalidMarketError, SizeGuardExceeded
from .model import (
    Coalition,
    DEFAULT_BUDGET,
    DEFAULT_GUARD,
    TuMarket,
    TuMatching,
    WorkerSet,
    _Budget,
    check_guard,
    set_key,
    validate_tu_matching,
)
from .simplex import LpResult, _scaled, certify, simplex_max

ZERO = Fraction(0)


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
    utilities: dict[str, Fraction] | None = None  # once every partner is acceptable


class TuStabilityReport(NamedTuple):
    lp_value: Fraction
    partition_value: Fraction
    stable: bool
    matching: TuMatching | None
    certificate: DualSolution | None
    optimal_partition: dict[str, WorkerSet]
    lp_primal: dict[str, Fraction]
    utilities: dict[str, Fraction] | None = None  # of a stable matching


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
    nums, scale = _scaled_values(m, coalitions)
    values = tuple(Fraction(v, scale) if v else ZERO for v in nums)
    return TuLpProblem(agents=agent_order(m), coalitions=coalitions, values=values)


def _scaled_values(m: TuMarket, coalitions, *dens: int) -> tuple[list[int], int]:
    """The values V(S) of coalitions in I u E as integers over ``scale``, a
    common denominator of ``dens`` and the market's values; and ``scale``."""
    fv, wv = m.firm_valuations, m.worker_valuations
    scale = math.lcm(
        *dens, *(v.denominator for d in (fv, wv) for vals in d.values() for v in vals.values())
    )
    out = [0] * len(coalitions)
    for k, (f, s) in enumerate(coalitions):
        if f is not None and s:
            out[k] = _num(fv[f][s], scale) + sum(_num(wv[w][f], scale) for w in s)
    return out, scale


def _num(v: Fraction, scale: int) -> int:
    """The numerator of ``v`` over ``scale``, a multiple of its denominator."""
    return v.numerator * (scale // v.denominator)


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
    nums, scale = _scaled(problem.values)
    # Which bit stands for which worker changes neither the totals nor the
    # number of states, so bits go out in the order workers are first seen.
    bit: dict[str, int] = {}
    # Firms come in the order of their singletons, which list first and
    # stand for the empty set.
    options: dict[str, list] = {}
    for c, v in zip(problem.coalitions, nums):
        if c.firm is not None:
            mask = sum(bit.setdefault(w, 1 << len(bit)) for w in c.workers)
            options.setdefault(c.firm, []).append((c.workers, mask, v))
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

    The dual (coverage) program is solved once, by simplex starting from
    the all-singletons basis: Bland's rule for the weights, then the
    lexicographic dual phase for the primal point, the lexicographically
    least optimal one in agent order, so that prices are reproducible
    across optima.  ``simplex.certify`` checks that pair, once.
    """
    agents = problem.agents
    idx = {a: i for i, a in enumerate(agents)}
    firm_cols = problem.firm_coalitions()

    rows = [[0] * len(firm_cols) for _ in agents]
    for j, (c, _) in enumerate(firm_cols):
        for a in c.members():
            rows[idx[a]][j] = 1
    rhs = [1] * len(agents)
    objective = [v for _, v in firm_cols]
    lp = _lex_min_primal(rows, objective)
    if certify(objective, rows, rhs, lp.x, lp.duals) != lp.value:
        raise CertificateError("certified LP value differs from the coverage solve's")

    # Singletons take up each agent's slack, in integers over dw.
    weights = {c: w for (c, _), w in zip(firm_cols, lp.x) if w}
    ws, dw = _scaled(lp.x)
    for c in problem.coalitions:
        if c.is_singleton:
            (a,) = c.members()
            slack = dw - sum(w for w, e in zip(ws, rows[idx[a]]) if e)
            if slack:
                weights[c] = Fraction(slack, dw)
    dual = DualSolution(weights=weights, value=lp.value)
    return {a: lp.duals[i] for a, i in idx.items()}, dual


def _lex_min_primal(rows, objective) -> LpResult:
    """The one solve of the coverage program  max objective.w  s.t.
    rows w <= 1,  w >= 0:  ``x`` holds Bland's weights, and ``duals`` the
    lexicographically least optimal point of its dual  min sum x  s.t.
    rows^T x >= objective,  x >= 0  (minimize the sum, then x_1, x_2, ...
    over the optimal face), reached by simplex_max's lexicographic dual
    phase.  The arguments go positionally: the benchmark's ``simplex.cells``
    counter reads the first two."""
    return simplex_max(objective, rows, [1] * len(rows))


def check_stable_tu(m: TuMarket, mu: TuMatching) -> TuStabilityVerdict:
    """Individual rationality plus the transferable-utility no-blocking
    test: every potential coalition's members must jointly hold at least the
    coalition's value, rebuilt from the market.  Both sides are integers over
    one denominator.  Once every partner is acceptable, the verdict carries
    the utilities (``model.tu_utilities``)."""
    problems = validate_tu_matching(m, mu)
    if problems:
        raise InvalidMarketError("; ".join(problems))
    fv, wv = m.firm_valuations, m.worker_valuations
    violations: list[StabilityViolation] = []
    for w in sorted(m.workers):
        f = mu.firm_of(w)
        if f is not None and f not in wv.get(w, {}):
            violations.append(
                StabilityViolation(
                    kind="ir", agent=w, note=f"matched to unacceptable firm {f!r}"
                )
            )
    staff = {f: mu.workers_of(f) for f in sorted(m.firms)}
    for f, s in staff.items():
        if s and s not in fv.get(f, {}):
            violations.append(
                StabilityViolation(
                    kind="ir",
                    agent=f,
                    note=f"matched to unacceptable set {set_key(s)}",
                )
            )
    if violations:
        return TuStabilityVerdict(stable=False, violations=tuple(violations))

    firm_coalitions = [c for c in potential_coalitions(m) if not c.is_singleton]
    dens = (p.denominator for p in mu.prices.values())
    values, scale = _scaled_values(m, firm_coalitions, *dens)
    # Utilities in integers over scale; an unmatched worker's price is 0.
    held = dict.fromkeys(m.workers, 0)
    held.update((f, _num(fv[f][s], scale) if s else 0) for f, s in staff.items())
    for w, f in mu.assignment.items():
        wage = _num(mu.prices.get(w, ZERO), scale)
        held[w] = _num(wv[w][f], scale) + wage
        held[f] -= wage
    agents = agent_order(m)
    for a in agents:
        if held[a] < 0:
            deficit = Fraction(-held[a], scale)
            violations.append(
                StabilityViolation(kind="ir", agent=a, deficit=deficit, note="negative utility")
            )
    for c, value in zip(firm_coalitions, values):
        have = held[c.firm] + sum(held[w] for w in c.workers)
        if have < value:
            violations.append(
                StabilityViolation(
                    kind="block", coalition=c, deficit=Fraction(value - have, scale)
                )
            )
    return TuStabilityVerdict(
        stable=not violations,
        violations=tuple(violations),
        utilities={a: Fraction(held[a], scale) for a in agents},
    )


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

    report = TuStabilityReport(
        lp_value=vtilde,
        partition_value=vbar,
        stable=False,
        matching=None,
        certificate=dual,
        optimal_partition=partition,
        lp_primal=x,
    )
    if vtilde > vbar:
        return report

    # Each wage leaves its worker the LP payoff x[w].  The re-check's utilities
    # must then be the LP payoffs of all agents, unmatched workers and firms too.
    assignment: dict[str, str] = {}
    prices: dict[str, Fraction] = {}
    for f, staff in partition.items():
        for w in staff:
            assignment[w] = f
            prices[w] = x[w] - m.worker_value(w, f)
    matching = TuMatching(assignment=assignment, prices=prices)
    verdict = check_stable_tu(m, matching)
    if not verdict.stable:
        raise CertificateError(f"constructed matching unstable: {verdict.violations}")
    if verdict.utilities != x:
        raise CertificateError("constructed payoffs differ from the LP primal point")
    return report._replace(stable=True, matching=matching, utilities=verdict.utilities)
