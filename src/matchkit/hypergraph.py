"""Firm-worker hypergraphs: construction, cycle search, balancedness.

An edge joins one firm with one of its possible employee sets (acceptable
sets for TU markets, satisfactory sets for discrete markets).  A cycle is a
cyclic alternating sequence of distinct vertices and distinct edges; it is a
nontrivial odd-length cycle when the edge count is odd and every edge meets
exactly two cycle vertices.  A hypergraph with no such cycle is balanced.

Balancedness is decided by exhaustive search over alternating sequences
(desk-scale instances), with a work budget so a blown-up search surfaces as
an error rather than a wrong verdict.  When every edge has at most one
worker the hypergraph is a bipartite graph and the odd-cycle search returns
at once.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    DEFAULT_BUDGET,
    Market,
    TuMarket,
    WorkerSet,
    _Budget,
    satisfactory_sets,
)


class FirmWorkerHypergraph(NamedTuple):
    """Vertices are all firms and workers (isolated ones kept); each edge is
    a (firm, worker set) pair standing for {f} u S."""

    vertices: frozenset[str]
    edges: tuple[tuple[str, WorkerSet], ...]

    def edge_members(self, i: int) -> frozenset[str]:
        f, s = self.edges[i]
        return s | {f}

    def edge_label(self, i: int) -> str:
        f, s = self.edges[i]
        return "{" + ",".join([f] + sorted(s)) + "}"


class HyperCycle(NamedTuple):
    """Alternating sequence j^1,E^1,...,j^k,E^k with j^i,j^{i+1} in E^i.

    ``edges`` holds indices into the host hypergraph's edge list; entry i is
    the edge between vertices i and i+1 (wrapping around).
    """

    vertices: tuple[str, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        # The cycle's length, not its field count, so ``_make`` and
        # ``_replace`` (which check the field count by len) do not apply.
        return len(self.edges)


class IntMatrix(NamedTuple):
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


class BalanceVerdict(NamedTuple):
    balanced: bool
    witness: HyperCycle | None = None


def build_hypergraph(m: Market) -> FirmWorkerHypergraph:
    """One edge per (firm, acceptable set) for TU markets, per (firm,
    satisfactory set) for discrete markets; deterministic edge order."""
    edges = []
    for f in sorted(m.firms):
        if isinstance(m, TuMarket):
            sets = m.acceptable_sets(f)
        else:
            sets = satisfactory_sets(m, f)
        for s in sets:
            edges.append((f, s))
    return FirmWorkerHypergraph(vertices=m.firms | m.workers, edges=tuple(edges))


def is_cycle(h: FirmWorkerHypergraph, c: HyperCycle) -> bool:
    """True iff c is a valid cycle of h: k >= 2, distinct vertices, distinct
    edges, and consecutive vertices both lie in the connecting edge."""
    k = len(c.edges)
    if k < 2 or len(c.vertices) != k:
        return False
    if len(set(c.vertices)) != k or len(set(c.edges)) != k:
        return False
    for i in c.edges:
        if i < 0 or i >= len(h.edges):
            raise IndexError(f"edge index {i} out of range")
    for v in c.vertices:
        if v not in h.vertices:
            return False
    for i in range(k):
        members = h.edge_members(c.edges[i])
        if c.vertices[i] not in members or c.vertices[(i + 1) % k] not in members:
            return False
    return True


def is_nontrivial_odd(h: FirmWorkerHypergraph, c: HyperCycle) -> bool:
    """True iff the cycle has odd length and every one of its edges contains
    exactly two of its vertices (callers ensure is_cycle)."""
    if len(c) % 2 == 0:
        return False
    on_cycle = set(c.vertices)
    return all(len(h.edge_members(i) & on_cycle) == 2 for i in c.edges)


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


def _iter_cycles(
    h: FirmWorkerHypergraph,
    odd_only: bool,
    nontrivial_only: bool,
    max_len: int,
    budget: _Budget,
):
    """Yield cycles in DFS order (deduplicated via canonical form).

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
            budget.spend()
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
            if len(path_v) >= max_len:
                continue
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


def iter_cycles(
    h: FirmWorkerHypergraph,
    odd_only: bool = False,
    nontrivial_only: bool = False,
    max_len: int | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """Lazily yield cycles (canonical forms, deduplicated) in DFS order;
    callers that stop early only pay for the search up to that point."""
    if max_len is None:
        max_len = len(h.vertices)
    return _iter_cycles(
        h, odd_only, nontrivial_only, max_len, _Budget(budget, "cycle search")
    )


def enumerate_cycles(
    h: FirmWorkerHypergraph,
    odd_only: bool = False,
    nontrivial_only: bool = False,
    max_len: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[HyperCycle]:
    """All cycles up to rotation/reflection equivalence with length at most
    max_len (default: the vertex count), sorted by canonical form."""
    if max_len is None:
        max_len = len(h.vertices)
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    found = list(iter_cycles(h, odd_only, nontrivial_only, max_len, budget))
    return sorted(found)


def check_balanced(
    h: FirmWorkerHypergraph, budget: int = DEFAULT_BUDGET
) -> BalanceVerdict:
    """Balanced iff no nontrivial odd-length cycle exists; an unbalanced
    verdict carries the first such cycle found as a witness."""
    for c in iter_cycles(h, odd_only=True, nontrivial_only=True, budget=budget):
        return BalanceVerdict(balanced=False, witness=c)
    return BalanceVerdict(balanced=True)


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
