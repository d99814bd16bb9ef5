"""The stable-matching enumeration as it was before it became one search
loop on worker bitmasks: ``enumerate_stable_matchings`` over the generic
``iter_disjoint_assignments`` with its ``prune`` hook, and
``_forward_blocking``, the hook it passed.  Kept verbatim as the oracle for
the differential tests in ``test_discrete_solver.py``, which also spy on the
hook to check each prune verdict, and for the hook's own tests in
``test_model.py``."""

from __future__ import annotations

from matchkit.discrete_solver import check_stable_discrete
from matchkit.model import (
    DEFAULT_BUDGET,
    DiscreteMarket,
    DiscreteMatching,
    _Budget,
    check_guard,
    satisfactory_sets,
)


def iter_disjoint_assignments(options, budget: _Budget, prune=None):
    """Yield a tuple with one payload per slot for every choice of one option
    per slot whose keys are pairwise disjoint.

    ``options[i]`` lists the ``(key, payload)`` pairs of slot i, keys being
    frozensets.  Choices come in depth-first order, the last slot varying
    fastest, and every option placed spends one budget step.  The search
    keeps one position per slot instead of recursing, which keeps the cost
    per choice low.

    ``prune(i, picked)``, when given, runs each time slot i's option has
    been placed and its step spent, before the search descends or yields;
    ``picked[:i + 1]`` holds the payloads placed so far (later entries are
    stale, and the hook must not change the list).  A true result skips
    every choice that extends this prefix, and the skipped subtree spends
    no further steps, so the calls come in DFS order: the options at the
    slots below i are the ones the latest calls there placed, and each of
    those calls returned false.  The choices that survive keep their DFS
    order.
    """
    n = len(options)
    if n == 0:
        yield ()
        return
    picked = [None] * n
    used = [frozenset()] * n  # used[i]: the keys placed in slots before i
    pos = [0] * n
    i = 0
    while i >= 0:
        j = pos[i]
        if j == len(options[i]):
            pos[i] = 0
            i -= 1
            continue
        pos[i] = j + 1
        key, payload = options[i][j]
        if key & used[i]:
            continue
        budget.spend()
        picked[i] = payload
        if prune is not None and prune(i, picked):
            continue
        if i == n - 1:
            yield tuple(picked)
        else:
            i += 1
            used[i] = used[i - 1] | key



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
