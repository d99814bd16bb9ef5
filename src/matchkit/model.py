"""Market data model: agents, valuations, ranked preferences, choice functions.

Two market flavors share the same id conventions: agent ids are plain
strings, firm and worker namespaces are disjoint within one market, and the
null firm / empty set are never stored (absence encodes them).  All values
are exact rationals; nothing here touches floating point.

Records are immutable named tuples: equality and hashing go by the fields,
and being tuples they also iterate, index and compare equal to a plain
tuple of the same fields.  A record that normalizes its fields (lists to
frozensets, ints and strings to ``Fraction``) is a ``NamedTuple`` plus a
subclass whose ``__new__`` does it.  A market's ``__new__`` ends with
``require_valid``, so a market is checked once, when it is built: every
``TuMarket`` or ``DiscreteMarket`` in existence is valid (its dicts are not
meant to be mutated afterwards) and no solver checks it again.  The
exhaustive solvers refuse markets past one fixed size guard,
``DEFAULT_GUARD``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InvalidMarketError, SizeGuardExceeded, WorkBudgetExceeded

WorkerSet = frozenset[str]

DEFAULT_BUDGET = 10**7


def set_key(s: Iterable[str]) -> tuple[str, ...]:
    """Canonical sort key for a worker set (sorted member tuple)."""
    return tuple(sorted(s))


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


class SizeGuard(NamedTuple):
    """Limits under which the exhaustive solvers are allowed to run; the
    solvers all use the one instance ``DEFAULT_GUARD``."""

    max_firms: int = 8
    max_workers: int = 12
    max_coalitions: int = 4096
    max_path_vertices: int = 2_000_000


DEFAULT_GUARD = SizeGuard()


class _TuMarketFields(NamedTuple):
    firms: frozenset[str]
    workers: frozenset[str]
    firm_valuations: dict[str, dict[WorkerSet, Fraction]]
    worker_valuations: dict[str, dict[str, Fraction]]


class TuMarket(_TuMarketFields):
    """Transferable-utility market: firm valuations over acceptable worker
    sets, worker valuations over acceptable firms.

    ``firm_valuations[f]`` maps each acceptable set (non-empty) to v_f(S);
    ``worker_valuations[w]`` maps each acceptable firm to v_w(f).  The value
    of staying unmatched is 0 on both sides and is never stored.
    """

    __slots__ = ()

    def __new__(cls, firms, workers, firm_valuations, worker_valuations):
        fv = {
            f: {frozenset(s): _fraction(v) for s, v in vals.items()}
            for f, vals in firm_valuations.items()
        }
        wv = {
            w: {f: _fraction(v) for f, v in vals.items()}
            for w, vals in worker_valuations.items()
        }
        self = super().__new__(cls, frozenset(firms), frozenset(workers), fv, wv)
        require_valid(self)
        return self

    @property
    def kind(self) -> str:
        return "tu"

    def acceptable_sets(self, f: str) -> tuple[WorkerSet, ...]:
        """A_f in canonical order (sorted by member tuple)."""
        return tuple(sorted(self.firm_valuations.get(f, {}), key=set_key))

    def firm_value(self, f: str, s: WorkerSet) -> Fraction:
        if not s:
            return Fraction(0)
        return self.firm_valuations[f][frozenset(s)]

    def worker_value(self, w: str, f: str | None) -> Fraction:
        if f is None:
            return Fraction(0)
        return self.worker_valuations[w][f]


class _DiscreteMarketFields(NamedTuple):
    firms: frozenset[str]
    workers: frozenset[str]
    firm_prefs: dict[str, tuple[WorkerSet, ...]]
    worker_prefs: dict[str, tuple[str, ...]]


class DiscreteMarket(_DiscreteMarketFields):
    """Discrete market: strict ranked preferences on both sides.

    ``firm_prefs[f]`` lists f's acceptable worker sets best-first; any set
    not listed is strictly worse than the empty set (their relative order is
    irrelevant to stability).  ``worker_prefs[w]`` lists acceptable firms
    best-first; unlisted firms rank below staying unmatched.
    """

    __slots__ = ()

    def __new__(cls, firms, workers, firm_prefs, worker_prefs):
        fp = {f: tuple(frozenset(s) for s in prefs) for f, prefs in firm_prefs.items()}
        wp = {w: tuple(prefs) for w, prefs in worker_prefs.items()}
        self = super().__new__(cls, frozenset(firms), frozenset(workers), fp, wp)
        require_valid(self)
        return self

    @property
    def kind(self) -> str:
        return "discrete"

    def acceptable_sets(self, f: str) -> tuple[WorkerSet, ...]:
        """A_f in canonical order (sorted by member tuple)."""
        return tuple(sorted(set(self.firm_prefs.get(f, ())), key=set_key))

    def set_rank(self, f: str, s: WorkerSet) -> int:
        """Rank of a worker set for firm f: list index, len for the empty
        set, len+1 for unlisted sets (all tied below empty)."""
        prefs = self.firm_prefs.get(f, ())
        s = frozenset(s)
        if not s:
            return len(prefs)
        try:
            return prefs.index(s)
        except ValueError:
            return len(prefs) + 1


Market = TuMarket | DiscreteMarket


def validate_market(m: Market) -> list[str]:
    """Check the structural invariants; returns a list of violations
    (empty means valid)."""
    problems = []
    overlap = m.firms & m.workers
    if overlap:
        problems.append(f"ids used as both firm and worker: {sorted(overlap)}")
    if isinstance(m, TuMarket):
        for f in m.firm_valuations:
            if f not in m.firms:
                problems.append(f"valuation for unknown firm {f!r}")
        for f, vals in m.firm_valuations.items():
            for s in vals:
                if not s:
                    problems.append(f"firm {f!r} lists the empty set as acceptable")
                unknown = s - m.workers
                if unknown:
                    problems.append(
                        f"firm {f!r} set {set_key(s)} references unknown workers {sorted(unknown)}"
                    )
        for w, vals in m.worker_valuations.items():
            if w not in m.workers:
                problems.append(f"valuation for unknown worker {w!r}")
            for f in vals:
                if f not in m.firms:
                    problems.append(f"worker {w!r} values unknown firm {f!r}")
    else:
        for f, prefs in m.firm_prefs.items():
            if f not in m.firms:
                problems.append(f"preferences for unknown firm {f!r}")
            seen = set()
            for s in prefs:
                if not s:
                    problems.append(f"firm {f!r} ranks the empty set")
                if s in seen:
                    problems.append(f"firm {f!r} ranks {set_key(s)} twice")
                seen.add(s)
                unknown = s - m.workers
                if unknown:
                    problems.append(
                        f"firm {f!r} set {set_key(s)} references unknown workers {sorted(unknown)}"
                    )
        for w, prefs in m.worker_prefs.items():
            if w not in m.workers:
                problems.append(f"preferences for unknown worker {w!r}")
            if len(set(prefs)) != len(prefs):
                problems.append(f"worker {w!r} lists a firm twice")
            for f in prefs:
                if f not in m.firms:
                    problems.append(f"worker {w!r} ranks unknown firm {f!r}")
    return problems


def require_valid(m: Market) -> None:
    problems = validate_market(m)
    if problems:
        raise InvalidMarketError("; ".join(problems))


def check_guard(m: Market) -> None:
    """Raise SizeGuardExceeded if the instance is too large for exhaustive
    solving (firm/worker counts; the coalition-count limb is checked by the
    TU solver once the coalition family is built)."""
    guard = DEFAULT_GUARD
    if len(m.firms) > guard.max_firms:
        raise SizeGuardExceeded(f"{len(m.firms)} firms > guard {guard.max_firms}")
    if len(m.workers) > guard.max_workers:
        raise SizeGuardExceeded(f"{len(m.workers)} workers > guard {guard.max_workers}")


class _Budget:
    """Work counter of one exhaustive search: each step spends one unit, and
    running out raises WorkBudgetExceeded (an error, never a verdict)."""

    __slots__ = ("left", "search")

    def __init__(self, steps: int, search: str):
        self.left = steps
        self.search = search

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise WorkBudgetExceeded(f"{self.search} budget exhausted")


def iter_disjoint_assignments(options, budget: _Budget):
    """Yield a tuple with one payload per slot for every choice of one option
    per slot whose keys are pairwise disjoint.

    ``options[i]`` lists the ``(key, payload)`` pairs of slot i, keys being
    frozensets.  Choices come in depth-first order, the last slot varying
    fastest, and every option placed spends one budget step.  The search
    keeps one position per slot instead of recursing, which keeps the cost
    per choice low.
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
        if i == n - 1:
            yield tuple(picked)
        else:
            i += 1
            used[i] = used[i - 1] | key


def choice(m: DiscreteMarket, f: str, s: Iterable[str]) -> WorkerSet:
    """Ch_f(S): the best-ranked acceptable set contained in S, or the empty
    set when none is."""
    if f not in m.firms:
        raise KeyError(f"unknown firm {f!r}")
    s = frozenset(s)
    for candidate in m.firm_prefs.get(f, ()):
        if candidate <= s:
            return candidate
    return frozenset()


def satisfactory_sets(m: DiscreteMarket, f: str) -> tuple[WorkerSet, ...]:
    """Y_f: the acceptable sets S with Ch_f(S) = S, in canonical order."""
    if f not in m.firms:
        raise KeyError(f"unknown firm {f!r}")
    sets = [s for s in m.firm_prefs.get(f, ()) if choice(m, f, s) == s]
    return tuple(sorted(sets, key=set_key))


class _CoalitionFields(NamedTuple):
    firm: str | None
    workers: WorkerSet


class Coalition(_CoalitionFields):
    """Either a singleton {i} (firm with empty workers, or a lone worker
    with firm=None) or a firm together with a non-empty worker set."""

    __slots__ = ()

    def __new__(cls, firm, workers):
        workers = frozenset(workers)
        if firm is None and len(workers) != 1:
            raise ValueError("a firmless coalition must be a single worker")
        return super().__new__(cls, firm, workers)

    @property
    def is_singleton(self) -> bool:
        return self.firm is None or not self.workers

    def members(self) -> frozenset[str]:
        if self.firm is None:
            return self.workers
        return self.workers | {self.firm}

    def label(self) -> str:
        return "{" + ",".join(sorted(self.members())) + "}"


class _TuMatchingFields(NamedTuple):
    assignment: dict[str, str]
    prices: dict[str, Fraction]


class TuMatching(_TuMatchingFields):
    """Assignment of workers to firms plus a wage schedule.

    Only matched workers appear in ``assignment``; a missing price entry
    means a wage of 0.  Unmatched workers must not carry a nonzero price.
    Each matching holds its own ``prices`` dict.
    """

    __slots__ = ()

    def __new__(cls, assignment, prices=None):
        prices = {w: _fraction(p) for w, p in (prices or {}).items()}
        return super().__new__(cls, dict(assignment), prices)

    def firm_of(self, w: str) -> str | None:
        return self.assignment.get(w)

    def workers_of(self, f: str) -> WorkerSet:
        return frozenset(w for w, g in self.assignment.items() if g == f)

    def price(self, w: str) -> Fraction:
        return self.prices.get(w, Fraction(0))


class _DiscreteMatchingFields(NamedTuple):
    assignment: dict[str, str]


class DiscreteMatching(_DiscreteMatchingFields):
    """Assignment of workers to firms; missing workers are unmatched."""

    __slots__ = ()

    def __new__(cls, assignment):
        return super().__new__(cls, dict(assignment))

    def firm_of(self, w: str) -> str | None:
        return self.assignment.get(w)

    def workers_of(self, f: str) -> WorkerSet:
        return frozenset(w for w, g in self.assignment.items() if g == f)

    def key(self) -> tuple[tuple[str, str], ...]:
        """Canonical identity of the assignment map (for dedup/ordering)."""
        return tuple(sorted(self.assignment.items()))


def validate_assignment(m: Market, assignment) -> list[str]:
    """The unknown ids a matching's worker-to-firm map names."""
    problems = []
    for w, f in assignment.items():
        if w not in m.workers:
            problems.append(f"assignment for unknown worker {w!r}")
        if f not in m.firms:
            problems.append(f"worker {w!r} assigned to unknown firm {f!r}")
    return problems


def validate_tu_matching(m: TuMarket, mu: TuMatching) -> list[str]:
    """Type-validity of (mu, p) against the market: known ids and the
    unmatched-means-zero-price rule."""
    problems = validate_assignment(m, mu.assignment)
    for w, p in mu.prices.items():
        if w not in m.workers:
            problems.append(f"price for unknown worker {w!r}")
        elif w not in mu.assignment and p != 0:
            problems.append(f"unmatched worker {w!r} has nonzero price {p}")
    return problems


def tu_utilities(m: TuMarket, mu: TuMatching) -> dict[str, Fraction]:
    """Per-agent utilities under (mu, p): firms get v_f(set) minus wages,
    workers get v_w(firm) plus wage.  A ValueError names the first agent,
    firms then workers in id order, paired with an unacceptable partner
    (utility undefined).  It stays apart from the integer sums of
    ``tu_solver.check_stable_tu``: it is the Fraction reference that the
    test oracles and the benchmark gate hold that re-check against, and
    folding the two would check the code against itself."""
    problems = validate_tu_matching(m, mu)
    if problems:
        raise InvalidMarketError("; ".join(problems))
    out: dict[str, Fraction] = {}
    for f in sorted(m.firms):
        staff = mu.workers_of(f)
        if staff and staff not in m.firm_valuations.get(f, {}):
            raise ValueError(f"firm {f!r} matched to unacceptable set {set_key(staff)}")
        out[f] = m.firm_value(f, staff) - sum(
            (mu.price(w) for w in staff), Fraction(0)
        )
    for w in sorted(m.workers):
        f = mu.firm_of(w)
        if f is not None and f not in m.worker_valuations.get(w, {}):
            raise ValueError(f"worker {w!r} matched to unacceptable firm {f!r}")
        out[w] = m.worker_value(w, f) + mu.price(w)
    return out
