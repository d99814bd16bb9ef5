"""Firm-worker hypergraphs: construction, cycle search, balancedness.

An edge joins one firm with one of its possible employee sets (acceptable
sets for TU markets, satisfactory sets for discrete markets).  A cycle is a
cyclic alternating sequence of distinct vertices and distinct edges; it is a
nontrivial odd-length cycle when the edge count is odd and every edge meets
exactly two cycle vertices.  A hypergraph with no such cycle is balanced.

The cycle search yields nontrivial odd cycles only, each once; it decides
balancedness by exhaustive search over alternating sequences (desk-scale
instances), with a work budget so a blown-up search surfaces as an error
rather than a wrong verdict.  The search holds only its path, so its memory
grows with the path, not with the cycles found.  The witness of an
unbalanced verdict is the first cycle in DFS order, written from its least
vertex with the smaller of that vertex's neighbours second.  When every edge
has at most one worker the hypergraph is a bipartite graph and the search
returns at once.  The search runs on integer bitmasks of vertices, so a
membership, overlap or disjointness test is one mask operation.
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


def iter_cycles(h: FirmWorkerHypergraph, budget: int = DEFAULT_BUDGET):
    """Lazily yield the nontrivial odd cycles in DFS order, each once, from
    the least vertex with the smaller neighbour second; callers that stop
    early only pay for the search up to that point.

    Each search path starts at its least vertex.  Edges on the partial path
    are kept at exactly two path vertices (adding vertices never shrinks an
    intersection, so any excess is final), and a closing edge meets only the
    ends of an odd path: every cycle closed is nontrivial and odd.  Both
    directions of such a cycle pass every test, so the search meets it once
    from each end.  The two start with different edges and ``by_vertex``
    lists edges in ascending order, so the direction whose first edge is the
    lower index, the one whose closing edge is above its first, comes first;
    it alone is yielded.

    Vertex i is the i-th name in sorted order, and vertex sets are bit
    masks: ``used`` holds the path's vertices and ``covered`` the union of
    its edges, which a new path vertex must avoid.  Names are looked up only
    for a yielded cycle.
    """
    if all(len(s) <= 1 for _, s in h.edges):
        # Consecutive cycle vertices share an edge, so a cycle of length
        # k >= 3 is a cycle of the 2-section graph.  With at most one worker
        # per edge that graph joins firms to workers only: it is bipartite
        # and has no odd cycle (assignment games, marriage markets).
        return
    spend = _Budget(budget, "cycle search").spend
    names = sorted(h.vertices)
    index = {v: i for i, v in enumerate(names)}
    mem = []
    by_vertex: list[list[int]] = [[] for _ in names]
    for e, (f, s) in enumerate(h.edges):
        mask = 0
        for v in (f, *s):
            i = index[v]
            mask |= 1 << i
            by_vertex[i].append(e)
        mem.append(mask)

    def extend(start, above, path_v, path_e, used, covered):
        for e in by_vertex[path_v[-1]]:
            if e in path_e:
                continue
            spend()
            members = mem[e]
            overlap = (members & used).bit_count()
            # Close the cycle back to the start vertex (nontrivial: see above).
            if len(path_v) % 2 == 1 and overlap == 2 and members >> start & 1 and path_e[0] < e:
                if path_v[1] < path_v[-1]:
                    vs, es = path_v, (*path_e, e)
                else:
                    vs, es = (start, *path_v[:0:-1]), (e, *path_e[::-1])
                yield HyperCycle(tuple([names[v] for v in vs]), es)
            if overlap > 1:
                # e already meets two path vertices; a third is inevitable
                # if we extend through it.
                continue
            fresh = members & above & ~used & ~covered
            if fresh:
                path_e.append(e)
                # Passed down, never removed again: path edges overlap.
                deeper = covered | members
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    path_v.append(low.bit_length() - 1)
                    yield from extend(start, above, path_v, path_e, used | low, deeper)
                    path_v.pop()
                path_e.pop()

    for start in range(len(names)):
        yield from extend(start, -2 << start, [start], [], 1 << start, 0)


def check_balanced(
    h: FirmWorkerHypergraph, budget: int = DEFAULT_BUDGET
) -> BalanceVerdict:
    """Balanced iff no nontrivial odd-length cycle exists; an unbalanced
    verdict carries the first such cycle found as a witness."""
    for c in iter_cycles(h, budget=budget):
        return BalanceVerdict(balanced=False, witness=c)
    return BalanceVerdict(balanced=True)
