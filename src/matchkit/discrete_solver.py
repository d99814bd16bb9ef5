"""Stability checking, exhaustive enumeration, and blocking dynamics for
discrete markets.

The blocking search per firm f looks at T_f, the workers weakly preferring
f to their current match; Ch_f(T_f) dominates every coalition f could form,
so checking it against mu(f) is both sound and complete.  A firm holding a
non-satisfactory set is flagged through the same route (its choice from T_f
beats mu(f)), which mirrors how no-blocking subsumes firm rationality.

Enumeration walks the disjoint assignments of satisfactory sets depth first
and prunes them with a forward version of the same test: a partial
assignment in which some placed firm blocks every completion is not
extended, and its pruned subtree spends no budget steps.  Every candidate
that survives is still verified by check_stable_discrete.
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


def is_individually_rational(
    m: DiscreteMarket, mu: DiscreteMatching
) -> list[IrViolation]:
    """Violation list (empty means rational): every matched worker must find
    her firm acceptable, every firm's set must be its own choice."""
    out = []
    for w in sorted(m.workers):
        f = mu.firm_of(w)
        if f is not None and f not in m.acceptable_firms(w):
            out.append(IrViolation(agent=w, note=f"matched to unacceptable firm {f!r}"))
    for f in sorted(m.firms):
        staff = mu.workers_of(f)
        if choice(m, f, staff) != staff:
            out.append(
                IrViolation(
                    agent=f, note=f"{set_key(staff)} is not its own choice"
                )
            )
    return out


def find_blocking_coalition(
    m: DiscreteMarket, mu: DiscreteMatching
) -> BlockingCoalition | None:
    """The best block of the lowest-id blocking firm, or None.

    For each firm in id order, T_f collects the workers weakly preferring f
    to their current match; the firm blocks iff Ch_f(T_f) beats mu(f).
    """
    for f in sorted(m.firms):
        t_f = frozenset(
            w for w in m.workers if m.worker_weakly_prefers(w, f, mu.firm_of(w))
        )
        best = choice(m, f, t_f)
        if m.firm_strictly_prefers(f, best, mu.workers_of(f)):
            return BlockingCoalition(firm=f, workers=best)
    return None


def check_stable_discrete(
    m: DiscreteMarket, mu: DiscreteMatching
) -> DiscreteStabilityVerdict:
    ir = is_individually_rational(m, mu)
    block = find_blocking_coalition(m, mu)
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
            if all(f in m.acceptable_firms(w) for w in s):
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
    listed set inside its argument, so if Ch_g(L_g) beats g's set then g
    blocks every completion.  No substitutability is assumed.
    """
    workers = sorted(m.workers)
    rank = {w: {f: r for r, f in enumerate(m.worker_prefs.get(w, ()))} for w in workers}
    # accept[k]: (worker, its rank of firms[k]) for the workers that list it.
    accept = [[(w, rank[w][f]) for w in workers if f in rank[w]] for f in firms]
    # open_rank[i][w]: the best rank w gives a firm at a slot after i that
    # can hire it, or to staying unmatched.
    open_rank = [None] * len(firms)
    best = {w: len(rank[w]) for w in workers}
    for i in range(len(firms) - 1, -1, -1):
        open_rank[i] = dict(best)
        f = firms[i]
        for key, _ in options[i]:
            for w in key:
                best[w] = min(best[w], rank[w][f])

    def blocked(i: int, picked) -> bool:
        held = {}  # assigned worker -> its rank of its firm
        for k in range(i + 1):
            f = firms[k]
            for w in picked[k]:
                held[w] = rank[w][f]
        bound = open_rank[i]
        for k in range(i + 1):
            g = firms[k]
            pool = [
                w
                for w, r in accept[k]
                if (r <= held[w] if w in held else r < bound[w])
            ]
            if m.firm_strictly_prefers(g, choice(m, g, pool), picked[k]):
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
    states = [start]
    moves: list[DynamicsMove] = []
    seen = {start.key(): 0}
    current = start
    while True:
        quitter = next(
            (
                w
                for w in sorted(m.workers)
                if current.firm_of(w) is not None
                and current.firm_of(w) not in m.acceptable_firms(w)
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
