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
on bitmasks built once per enumeration: a bit per worker, per firm the
masks of its listed sets, and per option its rank among them; a firm blocks
when one of the masks ranked above its option lies inside the mask of its
pool.
"""

from __future__ import annotations

from typing import NamedTuple

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
    order); otherwise the full list is returned sorted by assignment.  The
    search spends at most ``budget`` steps.
    """
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
    """
    workers = sorted(m.workers)
    bit = {w: 1 << j for j, w in enumerate(workers)}
    rank = {w: {f: r for r, f in enumerate(m.worker_prefs.get(w, ()))} for w in workers}
    # accept[k]: (worker, bit, its rank of firms[k]) for the workers listing it.
    accept = [[(w, bit[w], rank[w][f]) for w in workers if f in rank[w]] for f in firms]
    # masks[k]: the masks of the sets firms[k] lists, best first;
    # ranks[k][S]: how many of them it ranks above its option S.
    masks, ranks = [], []
    for f in firms:
        prefs = m.firm_prefs.get(f, ())
        masks.append([sum(bit[w] for w in s) for s in prefs])
        ranks.append({s: r for r, s in enumerate(prefs)} | {frozenset(): len(prefs)})
    # open_top[i][w]: the worst rank of a firm that an unassigned w prefers
    # to staying unmatched and to every later slot that can hire it.
    open_top = [None] * len(firms)
    top = {w: len(rank[w]) - 1 for w in workers}
    for i in range(len(firms) - 1, -1, -1):
        open_top[i] = dict(top)
        f = firms[i]
        for key, _ in options[i]:
            for w in key:
                top[w] = min(top[w], rank[w][f] - 1)

    def blocked(i: int, picked) -> bool:
        top = dict(open_top[i])
        for k in range(i + 1):
            f = firms[k]
            for w in picked[k]:
                top[w] = rank[w][f]  # an assigned worker: its rank of its own firm
        for k in range(i + 1):
            above = ranks[k][picked[k]]
            if not above:
                continue
            pool = 0
            for w, b, r in accept[k]:
                if r <= top[w]:
                    pool |= b
            for b in masks[k][:above]:
                if not b & ~pool:
                    return True
        return False

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
