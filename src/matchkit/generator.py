"""Seeded random instances for the property suites.

The generator runs on splitmix64 rather than the host RNG so that corpora
are reproducible bit-for-bit from (seed, params) on any platform:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
    output: z xor (z >> 31)

Integer draws reduce a draw modulo the range, without rejection: one 64-bit
word, or ceil(bits/64) words for a range wider than 2^64.  The bias is
negligible for a range far narrower than the draw, as in every corpus; near
the draw's width the lowest values can be up to twice as likely.

A value in [lo, hi] is drawn from a table of (d, n_lo, n_hi) triples, one
per denominator d <= 8 with some n/d in range: a uniform row, then
n in [n_lo, n_hi], giving n/d.  The table is built once per range and read
once per market.  A roadmap firm that every technology path would overlap
raises at once instead of spending its retry draws; the draws are the
call's own, so every output and error is the same as with the retries.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .model import DEFAULT_GUARD, DiscreteMarket, TuMarket, WorkerSet
from .roadmap import Roadmap, TechnologyPath, technology_paths

MASK64 = (1 << 64) - 1
MAX_DEN = 8  # largest denominator of a drawn value
MAX_ATTEMPTS = 200  # path draws per roadmap firm before giving up


@functools.lru_cache(maxsize=64)
def _denominators(lo: Fraction, hi: Fraction) -> tuple[tuple[int, int, int], ...]:
    """(d, n_lo, n_hi) for each denominator d <= MAX_DEN for which [lo, hi]
    holds some n/d: exactly the n in [n_lo, n_hi]."""
    bounds = ((d, math.ceil(lo * d), math.floor(hi * d)) for d in range(1, MAX_DEN + 1))
    return tuple(row for row in bounds if row[1] <= row[2])


def _value(rng: SplitMix64, table: tuple[tuple[int, int, int], ...]) -> Fraction:
    d, n_lo, n_hi = rng.choice(table)
    return Fraction(rng.randint(n_lo, n_hi), d)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        n, x, reach = hi - lo + 1, self.next_u64(), 1 << 64
        while reach < n:  # ceil(bits/64) words in all
            x, reach = x << 64 | self.next_u64(), reach << 64
        return lo + x % n

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


class _GenParamsFields(NamedTuple):
    seed: int
    firm_count: int = 3
    worker_count: int = 4
    max_acceptable_sets_per_firm: int = 3
    max_set_size: int = 2
    value_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(10))
    acceptability_density: float = 0.9


class GenParams(_GenParamsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lo, hi = self.value_range
        return self._replace(value_range=(Fraction(lo), Fraction(hi)))


def validate_params(p: GenParams) -> None:
    if p.firm_count < 0 or p.worker_count < 0:
        raise ValueError("negative agent count")
    if p.firm_count > DEFAULT_GUARD.max_firms:
        raise ValueError(f"firm_count {p.firm_count} exceeds guard {DEFAULT_GUARD.max_firms}")
    if p.worker_count > DEFAULT_GUARD.max_workers:
        raise ValueError(
            f"worker_count {p.worker_count} exceeds guard {DEFAULT_GUARD.max_workers}"
        )
    if p.max_acceptable_sets_per_firm < 0 or p.max_set_size < 0:
        raise ValueError("negative size parameter")
    if p.max_acceptable_sets_per_firm > 0 and p.max_set_size > p.worker_count:
        raise ValueError("max_set_size exceeds worker_count")
    if p.max_acceptable_sets_per_firm > 0 and p.max_set_size == 0:
        raise ValueError("acceptable sets requested but max_set_size is 0")
    if not 0.0 <= p.acceptability_density <= 1.0:
        raise ValueError("acceptability_density outside [0, 1]")
    lo, hi = p.value_range
    if hi < lo:
        raise ValueError("empty value range")
    if not _denominators(lo, hi):
        raise ValueError(f"value range contains no rational with denominator <= {MAX_DEN}")


def _names(prefix: str, count: int) -> list[str]:
    width = len(str(count))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(count)]


def _sample_sets(rng: SplitMix64, workers: list[str], p: GenParams) -> list[WorkerSet]:
    k = rng.randint(0, p.max_acceptable_sets_per_firm)
    sets: list[WorkerSet] = []
    attempts = 0
    while len(sets) < k and attempts < 4 * k + 8:
        attempts += 1
        size = rng.randint(1, p.max_set_size)
        s = frozenset(rng.sample(workers, size))
        if s not in sets:
            sets.append(s)
    return sets


def _market(
    rng: SplitMix64,
    kind: str,
    firms: list[str],
    workers: list[str],
    p: GenParams,
    sets_for: Callable[[str], list[WorkerSet]],
) -> TuMarket | DiscreteMarket:
    """Draw a market firm by firm, then worker by worker.  A firm's
    acceptable sets come from ``sets_for(f)``, then get a value each (TU) or
    are shuffled into a ranking (discrete); each worker accepts each firm
    with probability ``p.acceptability_density``, likewise valued or ranked."""
    density = p.acceptability_density
    if kind == "tu":
        table = _denominators(*p.value_range)
        firm_valuations = {f: {s: _value(rng, table) for s in sets_for(f)} for f in firms}
        worker_valuations = {
            w: {f: _value(rng, table) for f in firms if rng.chance(density)}
            for w in workers
        }
        return TuMarket(
            firms=frozenset(firms),
            workers=frozenset(workers),
            firm_valuations=firm_valuations,
            worker_valuations=worker_valuations,
        )
    if kind == "discrete":
        firm_prefs = {}
        for f in firms:
            sets = list(sets_for(f))
            rng.shuffle(sets)
            firm_prefs[f] = tuple(sets)
        worker_prefs = {}
        for w in workers:
            accepted = [f for f in firms if rng.chance(density)]
            rng.shuffle(accepted)
            worker_prefs[w] = tuple(accepted)
        return DiscreteMarket(
            firms=frozenset(firms),
            workers=frozenset(workers),
            firm_prefs=firm_prefs,
            worker_prefs=worker_prefs,
        )
    raise ValueError(f"unknown market kind {kind!r}")


def _random_market(p: GenParams, kind: str) -> TuMarket | DiscreteMarket:
    validate_params(p)
    rng = SplitMix64(p.seed)
    workers = _names("w", p.worker_count)
    return _market(
        rng,
        kind,
        _names("f", p.firm_count),
        workers,
        p,
        lambda f: _sample_sets(rng, workers, p),
    )


def gen_tu_market(p: GenParams) -> TuMarket:
    return _random_market(p, "tu")


def gen_discrete_market(p: GenParams) -> DiscreteMarket:
    return _random_market(p, "discrete")


def gen_roadmap_instance(
    p: GenParams, kind: str = "discrete"
) -> tuple[Roadmap, DiscreteMarket | TuMarket]:
    """Random directed tree, specialist workers (each engages along one
    random technology path), and vertex-disjoint firm paths with acceptable
    sets drawn from the demanded sets on the firm's own path."""
    validate_params(p)
    if p.worker_count < 1:
        raise ValueError("roadmap instances need at least one worker")
    if p.firm_count > p.worker_count:
        raise ValueError(
            "roadmap instances need firm_count <= worker_count for disjoint paths"
        )
    rng = SplitMix64(p.seed)
    firms = _names("f", p.firm_count)
    workers = _names("w", p.worker_count)
    n_v = rng.randint(max(1, p.firm_count), p.worker_count)
    vertices = _names("v", n_v)
    edges = []
    for i in range(1, n_v):
        other = vertices[rng.randint(0, i - 1)]
        if rng.chance(0.5):
            edges.append((other, vertices[i]))
        else:
            edges.append((vertices[i], other))

    paths = technology_paths(Roadmap(vertices, edges, {}))

    demanded: dict[str, set[str]] = {v: set() for v in vertices}
    for i, w in enumerate(workers):
        if i < n_v:
            path = TechnologyPath(vertices=(vertices[i],), edges=())
        else:
            path = rng.choice(paths)
        for v in path.vertices:
            demanded[v].add(w)

    path_vertices = [frozenset(path.vertices) for path in paths]
    used: set[str] = set()
    firm_paths: dict[str, TechnologyPath] = {}
    for f in firms:
        # When every path meets ``used``, no retry can succeed: skip them.
        feasible = any(used.isdisjoint(vs) for vs in path_vertices)
        for _ in range(MAX_ATTEMPTS if feasible else 0):
            i = rng.randint(0, len(paths) - 1)
            if used.isdisjoint(path_vertices[i]):
                firm_paths[f] = paths[i]
                used |= path_vertices[i]
                break
        else:
            raise ValueError(f"no disjoint path found for {f} within retry budget")

    roadmap = Roadmap(
        technologies=frozenset(vertices),
        edges=tuple(edges),
        demanded={v: frozenset(s) for v, s in demanded.items()},
    )

    acceptable: dict[str, list[WorkerSet]] = {}
    for f in firms:
        pool: list[WorkerSet] = []
        for v in firm_paths[f].vertices:
            s = roadmap.demanded[v]
            if s not in pool:
                pool.append(s)
        k = rng.randint(1, min(max(1, p.max_acceptable_sets_per_firm), len(pool)))
        acceptable[f] = rng.sample(pool, k)

    return roadmap, _market(rng, kind, firms, workers, p, lambda f: acceptable[f])
