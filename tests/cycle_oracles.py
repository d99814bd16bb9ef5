"""The cycle search as it was before it served only the nontrivial odd
mode: ``iter_cycles`` with its ``odd_only`` and ``nontrivial_only`` flags,
``enumerate_cycles`` over it, the vertex-by-edge incidence matrices, and
``canonical_cycle``, the normal form its dedup compares.  Kept verbatim as
oracles for the differential tests in ``test_hypergraph.py`` and for the
tests of Example 1's trivial odd cycle."""

from __future__ import annotations

from matchkit.hypergraph import (
    FirmWorkerHypergraph,
    HyperCycle,
    IntMatrix,
    is_nontrivial_odd,
)
from matchkit.model import DEFAULT_BUDGET, _Budget


def canonical_cycle(c: HyperCycle) -> HyperCycle:
    """Normal form under rotation and reflection: the representation with
    the lexicographically least (vertex sequence, edge sequence) pair."""
    k = len(c.edges)
    best = None
    for verts, edges in ((c.vertices, c.edges), _reflect(c)):
        for r in range(k):
            cand = (verts[r:] + verts[:r], edges[r:] + edges[:r])
            if best is None or cand < best:
                best = cand
    return HyperCycle(vertices=best[0], edges=best[1])


def _reflect(c: HyperCycle) -> tuple[tuple[str, ...], tuple[int, ...]]:
    # Reversing direction keeps vertex 0 first; edge i of the reflected
    # cycle connects its vertices i and i+1.
    verts = (c.vertices[0],) + tuple(reversed(c.vertices[1:]))
    edges = tuple(reversed(c.edges))
    return verts, edges


def iter_cycles(
    h: FirmWorkerHypergraph,
    odd_only: bool = False,
    nontrivial_only: bool = False,
    budget: int = DEFAULT_BUDGET,
):
    """Lazily yield cycles (canonical forms, deduplicated) in DFS order;
    callers that stop early only pay for the search up to that point.

    Each search path starts at its least vertex, so a cycle is discovered
    from exactly one starting vertex (once per direction).  In nontrivial
    mode, edges on the partial path are kept at exactly two path vertices:
    adding vertices never shrinks an intersection, so any excess is final.
    """
    if odd_only and all(len(s) <= 1 for _, s in h.edges):
        # Consecutive cycle vertices share an edge, so a cycle of length
        # k >= 3 is a cycle of the 2-section graph.  With at most one worker
        # per edge that graph joins firms to workers only: it is bipartite
        # and has no odd cycle (assignment games, marriage markets).
        return
    steps = _Budget(budget, "cycle search")
    members = [h.edge_members(i) for i in range(len(h.edges))]
    members_sorted = [sorted(ms) for ms in members]
    by_vertex: dict[str, list[int]] = {v: [] for v in sorted(h.vertices)}
    for i, ms in enumerate(members):
        for v in ms:
            by_vertex[v].append(i)

    seen: set[HyperCycle] = set()

    def extend(start, path_v, path_e, used_v, used_e):
        cur = path_v[-1]
        for e in by_vertex[cur]:
            if e in used_e:
                continue
            steps.spend()
            overlap = len(members[e] & used_v)
            # Close the cycle back to the start vertex.
            if len(path_v) >= 2 and start in members[e]:
                k = len(path_v)
                if (not odd_only or k % 2 == 1) and (
                    not nontrivial_only or overlap == 2
                ):
                    cand = HyperCycle(tuple(path_v), tuple(path_e) + (e,))
                    if not nontrivial_only or is_nontrivial_odd(h, cand):
                        canon = canonical_cycle(cand)
                        if canon not in seen:
                            seen.add(canon)
                            yield canon
            if nontrivial_only and overlap > 1:
                # e already meets two path vertices; a third is inevitable
                # if we extend through it.
                continue
            for v in members_sorted[e]:
                if v <= start or v in used_v:
                    continue
                if nontrivial_only and any(v in members[e2] for e2 in used_e):
                    continue
                path_v.append(v)
                path_e.append(e)
                used_v.add(v)
                used_e.add(e)
                yield from extend(start, path_v, path_e, used_v, used_e)
                path_v.pop()
                path_e.pop()
                used_v.remove(v)
                used_e.remove(e)

    for start in sorted(h.vertices):
        yield from extend(start, [start], [], {start}, set())


def enumerate_cycles(
    h: FirmWorkerHypergraph,
    odd_only: bool = False,
    nontrivial_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[HyperCycle]:
    """All cycles up to rotation/reflection equivalence, sorted by canonical
    form."""
    return sorted(iter_cycles(h, odd_only, nontrivial_only, budget))


def incidence_matrix(h: FirmWorkerHypergraph) -> IntMatrix:
    """0/1 vertex-by-edge incidence matrix; rows are all vertices in sorted
    order (isolated vertices give zero rows), column j is the indicator of
    edge j."""
    rows = tuple(sorted(h.vertices))
    cols = tuple(h.edge_label(i) for i in range(len(h.edges)))
    entries = tuple(
        tuple(1 if v in h.edge_members(i) else 0 for i in range(len(h.edges)))
        for v in rows
    )
    return IntMatrix(rows=rows, cols=cols, entries=entries)


def cycle_incidence_matrix(h: FirmWorkerHypergraph, c: HyperCycle) -> IntMatrix:
    """Incidence matrix of a cycle: rows are the cycle's vertices (sorted),
    columns its edges in cycle order.  For a nontrivial odd cycle this is a
    square matrix with exactly two ones per row and per column."""
    rows = tuple(sorted(c.vertices))
    cols = tuple(h.edge_label(i) for i in c.edges)
    entries = tuple(
        tuple(1 if v in h.edge_members(i) else 0 for i in c.edges) for v in rows
    )
    return IntMatrix(rows=rows, cols=cols, entries=entries)
