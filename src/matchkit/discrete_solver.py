"""Stability checking, exhaustive enumeration, and blocking dynamics for
discrete markets.

The blocking search per firm f looks at T_f, the workers weakly preferring
f to their current match; Ch_f(T_f) dominates every coalition f could form,
so checking it against mu(f) is both sound and complete.  A firm holding a
non-satisfactory set is flagged through the same route (its choice from T_f
beats mu(f)), which mirrors how no-blocking subsumes firm rationality.  All
T_f come from one pass over the workers, and f's list is scanned only down
to the rank of mu(f): no per-worker ``choice`` or rank-helper calls.

Enumeration walks the disjoint assignments of satisfactory sets depth first
and prunes them with a forward version of the same test: a partial
assignment in which some placed firm blocks every completion is not
extended, and its pruned subtree spends no budget steps.  Every candidate
that survives is still verified by check_stable_discrete.  The prune works
on worker bitmasks packed in one integer, a lane per firm, and keeps per
slot the state the next slot extends; a firm blocks when the rank of its
choice from its pool, memoized per firm by pool mask, beats its option's.
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
    choice,
    iter_disjoint_assignments,
    satisfactory_sets,
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


def _staff(mu: DiscreteMatching) -> dict[str, set[str]]:
    staff: dict[str, set[str]] = {}
    for w, f in mu.assignment.items():
        staff.setdefault(f, set()).add(w)
    return staff


def is_individually_rational(
    m: DiscreteMarket, mu: DiscreteMatching
) -> list[IrViolation]:
    """Violation list (empty means rational): every matched worker must find
    her firm acceptable, every firm's set must be its own choice."""
    return _ir_violations(m, mu, _staff(mu))


def _ir_violations(m: DiscreteMarket, mu: DiscreteMatching, staff) -> list[IrViolation]:
    out = []
    for w in sorted(m.workers):
        f = mu.assignment.get(w)
        if f is not None and f not in m.worker_prefs.get(w, ()):
            out.append(IrViolation(agent=w, note=f"matched to unacceptable firm {f!r}"))
    for f in sorted(m.firms):
        held = staff.get(f, frozenset())
        if choice(m, f, held) != held:
            out.append(IrViolation(agent=f, note=f"{set_key(held)} is not its own choice"))
    return out


def find_blocking_coalition(
    m: DiscreteMarket, mu: DiscreteMatching
) -> BlockingCoalition | None:
    """The best block of the lowest-id blocking firm, or None.

    For each firm in id order, T_f collects the workers weakly preferring f
    to their current match; the firm blocks iff Ch_f(T_f) beats mu(f), that
    is iff a set listed above mu(f) lies inside T_f (or mu(f) is unlisted).
    """
    return _blocking_coalition(m, mu, _staff(mu))


def _blocking_coalition(m: DiscreteMarket, mu: DiscreteMatching, staff):
    t = {f: set(staff.get(f, ())) for f in m.firms}
    for w in m.workers:
        g = mu.assignment.get(w)
        for f in m.worker_prefs.get(w, ()):
            if f == g:
                break
            t[f].add(w)  # w ranks f above its current firm
    for f in sorted(m.firms):
        held, t_f = staff.get(f), t[f]
        for s in m.firm_prefs.get(f, ()):
            if s == held:
                break
            if s <= t_f:
                return BlockingCoalition(firm=f, workers=s)
        else:
            if held:  # an unlisted set ranks below the empty one
                return BlockingCoalition(firm=f, workers=frozenset())
    return None


def check_stable_discrete(
    m: DiscreteMarket, mu: DiscreteMatching
) -> DiscreteStabilityVerdict:
    """Rationality plus no blocking firm; unknown agents raise InvalidMarketError."""
    problems = validate_assignment(m, mu.assignment)
    if problems:
        raise InvalidMarketError("; ".join(problems))
    staff = _staff(mu)
    ir = _ir_violations(m, mu, staff)
    block = _blocking_coalition(m, mu, staff)
    return DiscreteStabilityVerdict(
        stable=not ir and block is None,
        ir_violations=tuple(ir),
        blocking=block,
    )


def enumerate_stable_matchings(
    m: DiscreteMarket,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[DiscreteMatching]:
    """All stable matchings, by a depth-first search over assignments of
    disjoint satisfactory sets to firms (only rational candidates can be
    stable), each candidate verified by check_stable_discrete.

    The search is pruned by a forward blocking test (``_forward_blocking``):
    a partial assignment in which some placed firm blocks every completion
    is not extended, and its subtree spends no budget steps.  The surviving
    candidates keep their DFS order, so the result is the one the unpruned
    search gives.  With ``limit`` the search stops after that many hits (DFS
    order), and a ``limit`` below 1 raises ``ValueError``; otherwise the full
    list is returned sorted by assignment.  It spends at most ``budget`` steps.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    check_guard(m)
    firms = sorted(m.firms)
    options = []
    for f in firms:
        opts = [(frozenset(), frozenset())]
        for s in satisfactory_sets(m, f):
            if all(f in m.worker_prefs.get(w, ()) for w in s):
                opts.append((s, s))
        options.append(opts)

    found: list[DiscreteMatching] = []
    search = iter_disjoint_assignments(
        options, _Budget(budget, "enumeration"), _forward_blocking(m, firms, options)
    )
    for picked in search:
        mu = DiscreteMatching(
            assignment={w: f for f, s in zip(firms, picked) for w in s}
        )
        if check_stable_discrete(m, mu).stable:
            found.append(mu)
            if limit is not None and len(found) >= limit:
                break
    if limit is None:
        found.sort(key=lambda mu: mu.key())
    return found


def _forward_blocking(m: DiscreteMarket, firms: list[str], options):
    """The prune hook of the enumeration: true when a firm placed at a slot
    up to i blocks every completion of the partial assignment.

    For a placed firm g, L_g holds the workers sure to weakly prefer g to
    their final match: an assigned worker that weakly prefers g to its firm,
    and an unassigned one that ranks g above staying unmatched and above
    every firm it could still join (a later slot with an option containing
    it).  L_g lies inside T_g in every completion, and Ch_g picks the best
    listed set inside its argument, so if one of the sets g ranks above its
    own lies in L_g, g blocks every completion.  No substitutability is assumed.

    Pools sit in lanes of one integer, lane k a worker mask for firms[k].  A
    call at slot i extends slot i - 1's state (the assigned workers in every
    lane; the assigned-and-sure pools, where slot i's workers join the lanes
    of the firms they weakly prefer to firms[i]); a table per depth gives the
    unassigned part, and a memo per firm maps a pool mask to its choice's
    rank.  In DFS order the latest calls below slot i returned false, and an
    older lane only gains workers from slot i - 1 to i (a worker slot i hires
    was in it only if it ranks that firm above firms[i]): only a changed lane
    can newly block.
    """
    n, width = len(firms), len(m.workers)
    full = (1 << width) - 1
    bit = {w: 1 << j for j, w in enumerate(sorted(m.workers))}
    lane = {f: k * width for k, f in enumerate(firms)}
    every = sum(1 << s for s in lane.values())  # mask * every: the mask in every lane
    # upto[w][f]: w's bit in the lanes of f and the firms w ranks above f; reach[w]:
    # in those of the firms it prefers to being unmatched and to later slots.
    upto, reach = {}, {}
    for w, b in bit.items():
        acc, upto[w] = 0, {}
        for f in m.worker_prefs.get(w, ()):
            acc |= b << lane[f]
            upto[w][f] = acc
        reach[w] = acc
    # open_pools[i]: every worker's reach over the slots after i.
    open_pools = [0] * n
    for i in range(n - 1, -1, -1):
        open_pools[i] = sum(reach.values())
        f = firms[i]
        for key, _ in options[i]:
            for w in key:  # both are prefixes of w's list, so min is the shorter
                reach[w] = min(reach[w], upto[w][f] ^ bit[w] << lane[f])
    # masks[k]: the masks of firms[k]'s list; memo[k][pool]: its choice's rank.
    masks = [[sum(bit[w] for w in s) for s in m.firm_prefs.get(f, ())] for f in firms]
    memo = [{} for _ in firms]

    def choice_rank(k, pool):
        r = 0
        for b in masks[k]:
            if not b & ~pool:
                break
            r += 1
        memo[k][pool] = r
        return r

    # table[i][S], built on first use: S's mask in every lane, its workers'
    # upto lanes at firms[i], and its rank there.  Slot i's state: held[i + 1],
    # sure[i + 1], pooled[i + 1] (every lane's pool), rank[i] (its option's).
    table = [{} for _ in firms]
    held, sure, pooled, rank = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * n

    def blocked(i: int, picked) -> bool:
        s = picked[i]
        entry = table[i].get(s)
        if entry is None:
            f = firms[i]
            mask = pref = 0
            for w in s:
                mask |= bit[w]
                pref |= upto[w][f]
            above = m.firm_prefs[f].index(s) if s else len(masks[i])
            entry = table[i][s] = (mask * every, pref, above)
        spread, pref, above = entry
        rank[i] = above
        held[i + 1] = assigned = held[i] | spread
        sure[i + 1] = pref = sure[i] | pref
        pooled[i + 1] = pools = open_pools[i] & ~assigned | pref
        # Test the new lane, then, newest first, the older lanes that changed.
        k, shift = i, i * width
        changed = (pools ^ pooled[i]) & ((1 << shift) - 1)
        while True:
            if above:
                pool = pools >> shift & full
                r = memo[k].get(pool)
                if r is None:
                    r = choice_rank(k, pool)
                if r < above:
                    return True
            if not changed:
                return False
            k = (changed.bit_length() - 1) // width
            shift = k * width
            changed &= (1 << shift) - 1
            above = rank[k]

    return blocked


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
    workers = sorted(m.workers)
    states = [start]
    moves: list[DynamicsMove] = []
    seen = {start.key(): 0}
    current = start
    while True:
        quitter = next(
            (
                w
                for w in workers
                if (f := current.assignment.get(w)) is not None
                and f not in m.worker_prefs.get(w, ())
            ),
            None,
        )
        block = None if quitter is not None else find_blocking_coalition(m, current)
        if quitter is None and block is None:
            return DynamicsTrace(
                states=tuple(states),
                moves=tuple(moves),
                outcome="stable",
                stable_at=len(states) - 1,
            )
        if len(moves) >= max_steps:
            return DynamicsTrace(states=tuple(states), moves=tuple(moves), outcome="budget")
        if quitter is not None:
            assignment = dict(current.assignment)
            del assignment[quitter]
            current = DiscreteMatching(assignment=assignment)
            moves.append(DynamicsMove(kind="quit", worker=quitter))
        else:
            current = _apply_block(current, block)
            moves.append(
                DynamicsMove(kind="block", firm=block.firm, workers=block.workers)
            )
        states.append(current)
        key = current.key()
        if key in seen:
            return DynamicsTrace(
                states=tuple(states),
                moves=tuple(moves),
                outcome="cycle",
                revisit=(seen[key], len(states) - 1),
            )
        seen[key] = len(states) - 1
