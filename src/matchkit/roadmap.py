"""Technology roadmaps: specialist workers, specialized firms, and the
balancedness guarantee that follows from both.

A roadmap is a directed tree of technologies, each demanding a non-empty
worker set.  A worker is a specialist when the technologies she engages in
form a single directed path (or one vertex); firms are specialized when
their acceptable sets are drawn from pairwise vertex-disjoint technology
paths.
"""

from __future__ import annotations

from typing import NamedTuple

from .hypergraph import BalanceVerdict, build_hypergraph, check_balanced
from .errors import InvalidMarketError
from .model import (
    DEFAULT_BUDGET,
    Market,
    WorkerSet,
    _Budget,
    iter_disjoint_assignments,
)


class _RoadmapFields(NamedTuple):
    technologies: frozenset[str]
    edges: tuple[tuple[str, str], ...]
    demanded: dict[str, WorkerSet]


class Roadmap(_RoadmapFields):
    """Directed tree of technologies; ``demanded[v]`` is the non-empty
    worker set technology v needs."""

    __slots__ = ()

    def __new__(cls, technologies, edges, demanded):
        edges = tuple(tuple(e) for e in edges)
        demanded = {v: frozenset(s) for v, s in demanded.items()}
        return super().__new__(cls, frozenset(technologies), edges, demanded)


class TechnologyPath(NamedTuple):
    """A directed path of the roadmap, or a single vertex (no edges)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


class SpecializationResult(NamedTuple):
    specialized: bool
    firm_paths: dict[str, TechnologyPath] | None = None
    reason: str | None = None


class Theorem3Report(NamedTuple):
    all_specialists: bool
    non_specialists: tuple[str, ...]
    specialization: SpecializationResult
    balance: BalanceVerdict
    falsification: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.all_specialists
            and self.specialization.specialized
            and self.balance.balanced
        )


def validate_roadmap(r: Roadmap, market: Market | None = None) -> list[str]:
    """Tree structure, orientation well-formedness, and demanded-set
    references (worker existence is checked when a market is supplied)."""
    problems = []
    if not r.technologies:
        problems.append("roadmap has no technologies")
    undirected = set()
    for a, b in r.edges:
        if a not in r.technologies or b not in r.technologies:
            problems.append(f"edge ({a},{b}) references unknown technology")
            continue
        if a == b:
            problems.append(f"self-loop at {a}")
            continue
        key = frozenset({a, b})
        if key in undirected:
            problems.append(f"duplicate edge between {a} and {b}")
        undirected.add(key)
    if not problems and r.technologies:
        if len(r.edges) != len(r.technologies) - 1:
            problems.append(
                f"{len(r.edges)} edges for {len(r.technologies)} vertices "
                "(a tree needs exactly |V|-1)"
            )
        elif not _is_connected(r.technologies, r.edges):
            problems.append("underlying graph is disconnected")
    for v in sorted(r.technologies):
        demanded = r.demanded.get(v)
        if not demanded:
            problems.append(f"technology {v} demands no workers")
        elif market is not None:
            unknown = demanded - market.workers
            if unknown:
                problems.append(
                    f"technology {v} demands unknown workers {sorted(unknown)}"
                )
    for v in r.demanded:
        if v not in r.technologies:
            problems.append(f"demanded set for unknown technology {v}")
    return problems


def require_valid_roadmap(r: Roadmap, market: Market | None = None) -> None:
    problems = validate_roadmap(r, market)
    if problems:
        raise InvalidMarketError("; ".join(problems))


def _is_connected(vertices, edges) -> bool:
    """True iff the undirected graph on the non-empty vertex set is connected."""
    neighbors: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for u in neighbors[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vertices)


def worker_subgraph(r: Roadmap, w: str) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """The subgraph the worker engages in: technologies demanding her, plus
    the roadmap edges between those technologies."""
    vertices = frozenset(v for v in r.technologies if w in r.demanded.get(v, ()))
    edges = frozenset((a, b) for a, b in r.edges if a in vertices and b in vertices)
    return vertices, edges


def _is_technology_path(vertices: frozenset[str], edges: frozenset[tuple[str, str]]) -> bool:
    """A single vertex, or a connected chain with uniform orientation.
    The empty subgraph counts (nothing to threaten a cycle)."""
    if len(vertices) <= 1:
        return not edges
    if len(edges) != len(vertices) - 1:
        return False
    out_deg = {v: 0 for v in vertices}
    in_deg = {v: 0 for v in vertices}
    for a, b in edges:
        out_deg[a] += 1
        in_deg[b] += 1
    if any(out_deg[v] > 1 or in_deg[v] > 1 for v in vertices):
        return False
    # n-1 edges with degrees <= 1 each way: a disjoint union of directed
    # chains, connected iff it is a single chain.
    return _is_connected(vertices, edges)


def is_specialist(r: Roadmap, w: str) -> bool:
    """True iff the worker's engagement subgraph is a technology path (a
    worker engaged nowhere is vacuously a specialist)."""
    vertices, edges = worker_subgraph(r, w)
    return _is_technology_path(vertices, edges)


def technology_paths(r: Roadmap) -> list[TechnologyPath]:
    """Every technology path of the roadmap: all single vertices plus all
    maximal-or-shorter directed paths, in (length, vertex tuple) order."""
    out_edges: dict[str, list[str]] = {v: [] for v in r.technologies}
    for a, b in r.edges:
        out_edges[a].append(b)
    paths = [TechnologyPath(vertices=(v,), edges=()) for v in sorted(r.technologies)]

    def walk(chain: list[str]):
        for nxt in sorted(out_edges[chain[-1]]):
            chain.append(nxt)
            paths.append(
                TechnologyPath(
                    vertices=tuple(chain),
                    edges=tuple((chain[i], chain[i + 1]) for i in range(len(chain) - 1)),
                )
            )
            walk(chain)
            chain.pop()

    for v in sorted(r.technologies):
        walk([v])
    paths.sort(key=lambda p: (len(p.vertices), p.vertices))
    return paths


def _covering_paths(m: Market, r: Roadmap) -> dict[str, list[TechnologyPath]]:
    """Validate the roadmap against the market, then list for each firm with
    acceptable sets (in id order) the technology paths whose demanded sets
    include all of them.  Firms with no acceptable sets constrain nothing
    and are left out."""
    require_valid_roadmap(r, m)
    paths = technology_paths(r)
    covering = {}
    for f in sorted(m.firms):
        sets = set(m.acceptable_sets(f))
        if sets:
            covering[f] = [
                p
                for p in paths
                if all(any(r.demanded[v] == s for v in p.vertices) for s in sets)
            ]
    return covering


def _disjoint_covers(covering: dict[str, list[TechnologyPath]], budget: int):
    """Yield each vertex-disjoint choice of one covering path per firm."""
    options = [[(frozenset(p.vertices), p) for p in ps] for ps in covering.values()]
    search = iter_disjoint_assignments(options, _Budget(budget, "specialization search"))
    for picked in search:
        yield dict(zip(covering, picked))


def iter_specializations(m: Market, r: Roadmap, budget: int = DEFAULT_BUDGET):
    """Yield every collection of vertex-disjoint technology paths covering
    the firms' acceptable sets, in canonical search order, as a firm -> path
    dict.  Firms with no acceptable sets are left out of the witness."""
    yield from _disjoint_covers(_covering_paths(m, r), budget)


def check_specialized(
    m: Market, r: Roadmap, budget: int = DEFAULT_BUDGET
) -> SpecializationResult:
    """Find one collection of vertex-disjoint technology paths, each
    covering its firm's acceptable sets, or explain why none exists."""
    covering = _covering_paths(m, r)
    for f, paths in covering.items():
        if not paths:
            return SpecializationResult(
                specialized=False,
                reason=f"no technology path covers all acceptable sets of {f}",
            )
    for witness in _disjoint_covers(covering, budget):
        return SpecializationResult(specialized=True, firm_paths=witness)
    return SpecializationResult(
        specialized=False,
        reason="covering paths exist per firm but no vertex-disjoint collection",
    )


def theorem3_report(
    m: Market, r: Roadmap, budget: int = DEFAULT_BUDGET
) -> Theorem3Report:
    """Check the two hypotheses (all workers specialists, firms specialized)
    and the hypergraph conclusion; a counterexample instance where both
    hypotheses hold yet the hypergraph is unbalanced is flagged.  The
    specialization search and the cycle search each spend at most
    ``budget`` steps.  ``check_specialized`` validates the roadmap."""
    non_specialists = tuple(
        w for w in sorted(m.workers) if not is_specialist(r, w)
    )
    spec = check_specialized(m, r, budget)
    balance = check_balanced(build_hypergraph(m), budget=budget)
    falsification = (
        not non_specialists and spec.specialized and not balance.balanced
    )
    return Theorem3Report(
        all_specialists=not non_specialists,
        non_specialists=non_specialists,
        specialization=spec,
        balance=balance,
        falsification=falsification,
    )
