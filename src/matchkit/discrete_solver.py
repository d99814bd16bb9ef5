"""Stability checking, exhaustive enumeration, and blocking dynamics for
discrete markets.

One scan per firm gives the whole verdict.  The blocking search per firm f
looks at T_f, the workers weakly preferring f to their current match;
Ch_f(T_f) dominates every coalition f could form, so checking it against
mu(f) is both sound and complete.  All T_f come from one pass over the
workers, which also notes the workers at firms they do not list, and f's
list is scanned only down to mu(f): the first set inside T_f is f's block,
and a set inside mu(f) itself, or an unlisted mu(f), makes f irrational,
so a firm that is not rational always blocks.  No per-worker ``choice`` or
rank-helper calls.  ``is_individually_rational`` and
``find_blocking_coalition`` read ``check_stable_discrete``'s verdict, and
the dynamics run the same scan on each state.

Enumeration is one depth-first loop over worker bitmasks, each firm's
options built once as masks in rank order, pruned by a forward version of
the same test: a partial assignment in which some placed firm blocks every
completion is not extended, and its subtree spends no budget steps.  Every
candidate that survives is still verified by check_stable_discrete.  The
prune packs the pools in one integer, a lane per firm, and keeps per slot
the state the next slot extends; a firm blocks when a set it ranks above
its option's lies in its pool: one AND with the single workers ranked
above, and for larger sets a rank memoized per firm by pool mask.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidMarketError
from .model import (
    DEFAULT_BUDGET,
    DiscreteMarket,
    DiscreteMatching,
    WorkerSet,
    _Budget,
    check_guard,
    choice,  # noqa: F401  not called here; a module attribute perfbench/tracing.py wraps
    set_key,
    validate_assignment,
)


class BlockingCoalition(NamedTuple):
    """A firm and the worker set it would rather employ; workers all weakly
    prefer the firm to their current match.  An empty set means the firm
    wants to fire its way back to a satisfactory position."""

    firm: str
    workers: WorkerSet


class IrViolation(NamedTuple):
    agent: str
    note: str


class DiscreteStabilityVerdict(NamedTuple):
    stable: bool
    ir_violations: tuple[IrViolation, ...] = ()
    blocking: BlockingCoalition | None = None


class DynamicsMove(NamedTuple):
    kind: str  # "quit" or "block"
    worker: str | None = None
    firm: str | None = None
    workers: WorkerSet | None = None


class DynamicsTrace(NamedTuple):
    states: tuple[DiscreteMatching, ...]
    moves: tuple[DynamicsMove, ...]
    outcome: str  # "stable" | "cycle" | "budget"
    stable_at: int | None = None
    revisit: tuple[int, int] | None = None


def is_individually_rational(
    m: DiscreteMarket, mu: DiscreteMatching
) -> list[IrViolation]:
    """Violation list (empty means rational): every matched worker must find
    her firm acceptable, every firm's set must be its own choice.  Unknown
    agents raise InvalidMarketError."""
    return list(check_stable_discrete(m, mu).ir_violations)


def find_blocking_coalition(
    m: DiscreteMarket, mu: DiscreteMatching
) -> BlockingCoalition | None:
    """The best block of the lowest-id blocking firm, or None.  Unknown
    agents raise InvalidMarketError."""
    return check_stable_discrete(m, mu).blocking


def check_stable_discrete(
    m: DiscreteMarket, mu: DiscreteMatching
) -> DiscreteStabilityVerdict:
    """Rationality plus no blocking firm; unknown agents raise InvalidMarketError."""
    problems = validate_assignment(m, mu.assignment)
    if problems:
        raise InvalidMarketError("; ".join(problems))
    return _verdict(m, mu)


def _verdict(m: DiscreteMarket, mu: DiscreteMatching) -> DiscreteStabilityVerdict:
    """The verdict on a matching of known agents, by the one scan per firm
    the module docstring describes; T_f starts as f's staff.  The block
    reported is the lowest-id blocking firm's."""
    staff: dict[str, set[str]] = {}
    for w, f in mu.assignment.items():
        staff.setdefault(f, set()).add(w)
    t = {f: set(staff.get(f, ())) for f in m.firms}
    ir = []
    for w in sorted(m.workers):
        g = mu.assignment.get(w)
        for f in m.worker_prefs.get(w, ()):
            if f == g:
                break
            t[f].add(w)  # w ranks f above its current firm
        else:
            if g is not None:
                ir.append(IrViolation(agent=w, note=f"matched to unacceptable firm {g!r}"))
    block = None
    for f in sorted(m.firms):
        held = staff.get(f)
        if held is None and block is not None:
            continue  # an unmatched firm is rational
        t_f = t[f]
        for s in m.firm_prefs.get(f, ()):
            if s == held:
                break
            if block is None and s <= t_f:
                block = BlockingCoalition(firm=f, workers=s)
            if held and s <= held:
                ir.append(IrViolation(agent=f, note=f"{set_key(held)} is not its own choice"))
                break
        else:
            if held:  # an unlisted set ranks below the empty one
                ir.append(IrViolation(agent=f, note=f"{set_key(held)} is not its own choice"))
                if block is None:
                    block = BlockingCoalition(firm=f, workers=frozenset())
    return DiscreteStabilityVerdict(
        stable=not ir and block is None, ir_violations=tuple(ir), blocking=block
    )


def enumerate_stable_matchings(
    m: DiscreteMarket,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[DiscreteMatching]:
    """All stable matchings, by a depth-first search over assignments of
    disjoint satisfactory sets to firms (only rational candidates can be
    stable), each candidate verified by check_stable_discrete.

    Slot k holds firms[k]'s options: the empty set, then its satisfactory
    sets whose members all list it, in ``set_key`` order.  The last slot
    varies fastest, and every option placed spends one budget step.  The
    prune keeps the DFS order of what it does not cut, so the result is the
    unpruned search's.  With ``limit`` the search stops after that many hits
    (DFS order), and a ``limit`` below 1 raises ``ValueError``; otherwise the
    full list is returned sorted by assignment.  It spends at most ``budget``
    steps.

    The prune: for a placed firm g, L_g holds the workers sure to weakly
    prefer g to their final match: an assigned worker that weakly prefers g
    to its firm, and an unassigned one that ranks g above staying unmatched
    and above every firm it could still join (a later slot with an option
    containing it).  L_g lies inside T_g in every completion, and Ch_g picks
    the best listed set inside its argument, so if one of the sets g ranks
    above its own lies in L_g, g blocks every completion.  No
    substitutability is assumed.  Placing an option at slot i extends slot
    i - 1's lanes (the assigned workers in every lane; the assigned-and-sure
    pools, where slot i's workers join the lanes of the firms they weakly
    prefer to firms[i]); a table per depth gives the unassigned part.  In DFS
    order every state below slot i passed the test, and an older lane only
    gains workers from slot i - 1 to i (a worker slot i hires was in it only
    if it ranks that firm above firms[i]): only the new lane and the older
    lanes that changed can newly block.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    check_guard(m)
    work = _Budget(budget, "enumeration")
    firms = sorted(m.firms)
    n, width = len(firms), len(m.workers)
    full = (1 << width) - 1
    bit = {w: 1 << j for j, w in enumerate(sorted(m.workers))}
    lane = {f: k * width for k, f in enumerate(firms)}
    every = sum(1 << s for s in lane.values())  # mask * every: the mask in every lane
    low = [(1 << s) - 1 for s in lane.values()]  # low[k]: the lanes below k
    # upto[f][w]: for each w that lists f, w's bit in the lanes of f and the
    # firms w ranks above f; reach[w]: in those of the firms it prefers to
    # being unmatched and to later slots.
    upto, reach = {f: {} for f in firms}, {}
    for w, b in bit.items():
        acc = 0
        for f in m.worker_prefs.get(w, ()):
            acc |= b << lane[f]
            upto[f][w] = acc
        reach[w] = acc
    # options[k]: slot k's (mask, mask * every, its workers' upto lanes at
    # firms[k], rank, set); lone[k][r]: the single workers firms[k] ranks above
    # rank r; multi[k]: the (rank, mask) of each larger set it lists.
    options, lone, multi = [], [], []
    for f in firms:
        listed, up = m.firm_prefs.get(f, ()), upto[f]
        singles, prefix, larger, sat = 0, [0], [], []
        for r, s in enumerate(listed):
            b = sum(map(bit.__getitem__, s))
            # Satisfactory: no set ranked above s lies inside it.
            if s <= up.keys() and not b & singles:
                for q, _ in larger:
                    if listed[q] <= s:
                        break
                else:
                    sat.append((sorted(s), r, b, s))  # sorted(s) sorts as set_key(s)
            if len(s) == 1:
                singles |= b
            else:
                larger.append((r, b))
            prefix.append(singles)
        # The workers' upto lanes share no bit, so their sum is their union.
        options.append([(0, 0, 0, len(listed), frozenset())] + [
            (b, b * every, sum(map(up.__getitem__, s)), r, s) for _, r, b, s in sorted(sat)
        ])
        lone.append(prefix)
        multi.append(larger)
    # open_pools[i]: every worker's reach over the slots after i.
    open_pools = [0] * n
    for i in range(n - 1, -1, -1):
        open_pools[i] = sum(reach.values())
        f = firms[i]
        for opt in options[i]:
            for w in opt[4]:  # both are prefixes of w's list, so & keeps the shorter
                reach[w] &= upto[f][w] ^ bit[w] << lane[f]
    memo = [{} for _ in firms]  # memo[k][pool]: the rank of multi[k]'s first set inside pool

    # Slot i's state: held[i + 1] (the assigned workers in every lane, so its
    # lowest lane is the assigned mask), sure[i + 1], pooled[i + 1] (every
    # lane's pool), rank[i] and picked[i] (its option's rank and set).
    held, sure, pooled = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    rank, picked, pos = [0] * n, [None] * n, [0] * n
    count = [len(opts) for opts in options]
    found: list[DiscreteMatching] = []
    left = work.left  # spent locally, stored back before returning or raising
    i = 0
    while i >= 0:
        if i == n:  # every slot placed: verify the candidate
            i -= 1
            mu = DiscreteMatching(assignment={w: f for f, s in zip(firms, picked) for w in s})
            if check_stable_discrete(m, mu).stable:
                found.append(mu)
                if limit is not None and len(found) >= limit:
                    break
            continue
        j = pos[i]
        if j == count[i]:
            pos[i] = 0
            i -= 1
            continue
        pos[i] = j + 1
        mask, spread, pref, above, s = options[i][j]
        if mask & held[i]:
            continue
        if left <= 0:
            work.left = left
            work.spend()  # raises WorkBudgetExceeded
        left -= 1
        picked[i] = s
        rank[i] = above
        held[i + 1] = assigned = held[i] | spread
        sure[i + 1] = pref = sure[i] | pref
        pooled[i + 1] = pools = open_pools[i] & ~assigned | pref
        # Test the new lane, then, newest first, the older lanes that changed.
        k, shift = i, i * width
        changed = (pools ^ pooled[i]) & low[i]
        while k >= 0:
            if above:
                pool = pools >> shift & full
                if pool & lone[k][above]:
                    break
                if multi[k]:
                    r = memo[k].get(pool)
                    if r is None:
                        inside = (q for q, b in multi[k] if not b & ~pool)
                        r = memo[k][pool] = next(inside, len(lone[k]))
                    if r < above:
                        break
            if changed:
                k = (changed.bit_length() - 1) // width
                shift = k * width
                changed &= low[k]
                above = rank[k]
            else:
                k = -1
        else:
            i += 1  # no lane blocks: descend
    work.left = left
    if limit is None:
        found.sort(key=lambda mu: mu.key())
    return found


def _apply_block(mu: DiscreteMatching, block: BlockingCoalition) -> DiscreteMatching:
    assignment = dict(mu.assignment)
    for w in mu.workers_of(block.firm) - block.workers:
        del assignment[w]  # displaced by the firm's new set
    for w in block.workers:
        assignment[w] = block.firm  # poached workers leave their old firm
    return DiscreteMatching(assignment=assignment)


def run_blocking_dynamics(
    m: DiscreteMarket, start: DiscreteMatching, max_steps: int = 1000
) -> DynamicsTrace:
    """Iterate quit-then-block moves from a starting matching.

    Each step: the lowest-id worker matched to an unacceptable firm quits;
    otherwise the lowest-id blocking firm grabs its choice from T_f,
    displacing and poaching as needed.  Stops at a stable state, at the
    first exact revisit of an earlier state, or when ``max_steps`` moves
    have been made and the state they reach is not stable.
    """
    states, moves = [start], []
    seen = {start.key(): 0}
    current, revisit = start, None
    # Validated once: every later state is built from its agents and the market's.
    verdict = check_stable_discrete(m, start)
    while not verdict.stable and len(moves) < max_steps:
        ir = verdict.ir_violations
        if ir and ir[0].agent in m.workers:  # worker notes come first
            assignment = dict(current.assignment)
            del assignment[ir[0].agent]
            current = DiscreteMatching(assignment=assignment)
            moves.append(DynamicsMove(kind="quit", worker=ir[0].agent))
        else:  # a firm that is not rational blocks too
            block = verdict.blocking
            current = _apply_block(current, block)
            moves.append(DynamicsMove(kind="block", firm=block.firm, workers=block.workers))
        states.append(current)
        key = current.key()
        if key in seen:
            revisit = (seen[key], len(states) - 1)
            break
        seen[key] = len(states) - 1
        verdict = _verdict(m, current)
    return DynamicsTrace(
        states=tuple(states),
        moves=tuple(moves),
        outcome="cycle" if revisit else "stable" if verdict.stable else "budget",
        stable_at=len(states) - 1 if verdict.stable else None,
        revisit=revisit,
    )
