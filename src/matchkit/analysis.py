"""Cycle-condition checking, demand types, and total unimodularity.

A firm's demand type collects the difference vectors of chosen sets as the
available pool expands; entries live in {-1,0,1}.  They are read off pairs
of satisfactory sets (Ch(S) = S), with no enumeration of subsets.  Total
unimodularity of the union is tested with exact integer determinants of the
Eulerian square submatrices only (Camion 1965), under the work budget, and
a qualifying nontrivial odd cycle is converted into an explicit square
submatrix of demand vectors with |det| = 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import CertificateError, SizeGuardExceeded
from .hypergraph import (
    HyperCycle,
    IntMatrix,
    build_hypergraph,
    cycle_incidence_matrix,
    DEFAULT_BUDGET,
    is_cycle,
    is_nontrivial_odd,
    iter_cycles,
)
from .model import (
    DiscreteMarket,
    _Budget,
    check_guard,
    choice,
    satisfactory_sets,
)

MAX_TU_DIM = 24


class DemandType(NamedTuple):
    """Per-firm and pooled difference vectors, indexed by sorted workers."""

    workers: tuple[str, ...]
    per_firm: dict[str, frozenset[tuple[int, ...]]]
    union: frozenset[tuple[int, ...]]

    def matrix(self) -> IntMatrix:
        """Matrix with the pooled vectors as columns, in sorted order."""
        cols = sorted(self.union)
        return IntMatrix(
            rows=self.workers,
            cols=tuple(str(c) for c in cols),
            entries=tuple(
                tuple(col[i] for col in cols) for i in range(len(self.workers))
            ),
        )


class TuVerdict(NamedTuple):
    totally_unimodular: bool
    row_indices: tuple[int, ...] | None = None
    col_indices: tuple[int, ...] | None = None
    determinant: int | None = None


class Prop1Verdict(NamedTuple):
    """guaranteed: no nontrivial odd cycle passes the pairwise-choice
    condition, so a stable matching exists for any worker preferences."""

    guaranteed: bool
    witness: HyperCycle | None = None


class Prop2Report(NamedTuple):
    tu_verdict: TuVerdict
    prop1: Prop1Verdict
    consistent: bool


def demand_type(m: DiscreteMarket) -> DemandType:
    """All nonzero vectors chi_Ch(S) - chi_Ch(S') over pairs S' strictly
    inside S, per firm and pooled.

    The choices (A, B) = (Ch(S), Ch(S')) of such pairs are exactly the pairs
    A != B of satisfactory-or-empty sets with Ch(A u B) = A.  B = Ch(S')
    chooses itself, and A u B lies inside S and contains A, so Ch(A u B) =
    Ch(S) = A.  Conversely S' = B inside S = A u B realizes the pair, and
    the inclusion is strict since A != B.  A chooses itself as well, so both
    sets range over ``satisfactory_sets`` and the empty set: no subsets are
    enumerated.  The size guard is still checked, so oversized markets are
    refused as before."""
    check_guard(m)
    workers = tuple(sorted(m.workers))
    per_firm: dict[str, frozenset[tuple[int, ...]]] = {}
    for f in sorted(m.firms):
        sets = satisfactory_sets(m, f) + (frozenset(),)
        per_firm[f] = frozenset(
            tuple((w in a) - (w in b) for w in workers)
            for a in sets
            for b in sets
            if a != b and choice(m, f, a | b) == a
        )
    union = frozenset().union(*per_firm.values())
    return DemandType(workers=workers, per_firm=per_firm, union=union)


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_totally_unimodular(matrix: IntMatrix, budget: int = DEFAULT_BUDGET) -> TuVerdict:
    """Search the square submatrices in increasing order, then lexicographic
    row and column index order, stopping at the first determinant outside
    {-1, 0, 1}.

    Only Eulerian submatrices (an even number of nonzeros in every row and
    every column) get a determinant.  At the smallest order k that has a bad
    determinant, every proper submatrix of a bad k x k submatrix is totally
    unimodular, and such a minimally non-totally-unimodular matrix is
    Eulerian with |det| = 2 (Camion 1965; Schrijver, Theory of Linear and
    Integer Programming, Ch. 19).  So the skipped submatrices all have
    determinant in {-1, 0, 1} and the first bad submatrix is the one the
    search over all submatrices would find.  Each row subset and each column
    combination examined spends one budget step.
    """
    r, c = matrix.shape
    if r > MAX_TU_DIM or c > MAX_TU_DIM:
        raise SizeGuardExceeded(f"matrix {r}x{c} exceeds {MAX_TU_DIM}x{MAX_TU_DIM}")
    entries = matrix.entries
    for i in range(r):
        for j in range(c):
            if entries[i][j] not in (-1, 0, 1):
                return TuVerdict(
                    totally_unimodular=False,
                    row_indices=(i,),
                    col_indices=(j,),
                    determinant=entries[i][j],
                )
    spend = _Budget(budget, "unimodularity test").spend
    # Bit i of col_masks[j] is set when entry (i, j) is nonzero.
    col_masks = [sum(1 << i for i in range(r) if entries[i][j]) for j in range(c)]
    for k in range(2, min(r, c) + 1):
        for rows in combinations(range(r), k):
            spend()
            row_mask = sum(1 << i for i in rows)
            kept = []
            for j, mask in enumerate(col_masks):
                mask &= row_mask
                if mask and not mask.bit_count() & 1:
                    kept.append((j, mask))
            for combo in combinations(kept, k):
                spend()
                odd = cover = 0
                for _, mask in combo:
                    odd ^= mask
                    cover |= mask
                # An odd row is not Eulerian; an all-zero row gives det 0.
                if odd or cover != row_mask:
                    continue
                cols = tuple(j for j, _ in combo)
                det = bareiss_determinant([[entries[i][j] for j in cols] for i in rows])
                if det not in (-1, 0, 1):
                    return TuVerdict(
                        totally_unimodular=False,
                        row_indices=rows,
                        col_indices=cols,
                        determinant=det,
                    )
    return TuVerdict(totally_unimodular=True)


def _cycle_qualifies(m: DiscreteMarket, h, c: HyperCycle) -> bool:
    """The pairwise-choice condition: for every firm with two edge sets S,
    S' on the cycle, the choice from S u S' must be S or S'."""
    by_firm: dict[str, list[frozenset]] = {}
    for i in c.edges:
        f, s = h.edges[i]
        by_firm.setdefault(f, []).append(s)
    for f, sets in by_firm.items():
        for s1, s2 in combinations(sets, 2):
            picked = choice(m, f, s1 | s2)
            if picked != s1 and picked != s2:
                return False
    return True


def prop1_check(m: DiscreteMarket, budget: int = DEFAULT_BUDGET) -> Prop1Verdict:
    """Guaranteed iff no nontrivial odd cycle of the satisfactory-set
    hypergraph satisfies the pairwise-choice condition; the condition is
    evaluated lazily, cycle by cycle."""
    check_guard(m)
    h = build_hypergraph(m)
    for c in iter_cycles(h, odd_only=True, nontrivial_only=True, budget=budget):
        if _cycle_qualifies(m, h, c):
            return Prop1Verdict(guaranteed=False, witness=c)
    return Prop1Verdict(guaranteed=True)


def tu_cycle_certificate(m: DiscreteMarket, c: HyperCycle) -> IntMatrix:
    """Turn a qualifying nontrivial odd cycle into a square matrix of
    demand vectors with |det| = 2, witnessing non-total-unimodularity.

    Start from the cycle's incidence matrix; within each firm's column
    block (ordered so later sets are chosen over earlier ones) subtract the
    first column from the rest; then drop each cycle-vertex firm's row
    together with its first column.
    """
    h = build_hypergraph(m)
    if not is_cycle(h, c):
        raise ValueError("not a cycle of the market's hypergraph")
    if not is_nontrivial_odd(h, c):
        raise ValueError("cycle is not a nontrivial odd-length cycle")
    if not _cycle_qualifies(m, h, c):
        raise ValueError("cycle fails the pairwise-choice condition")

    base = cycle_incidence_matrix(h, c)
    on_cycle = set(c.vertices)
    col_of = {e: j for j, e in enumerate(c.edges)}

    by_firm: dict[str, list[int]] = {}
    for e in c.edges:
        f, _ = h.edges[e]
        by_firm.setdefault(f, []).append(e)

    worker_rows = [i for i, v in enumerate(base.rows) if v not in m.firms]
    out_cols: list[tuple[str, list[int]]] = []
    for f in sorted(by_firm):
        # Ascending preference: the first column is the least preferred set,
        # so subtracting it realizes chosen-minus-foregone demand vectors.
        edges = sorted(by_firm[f], key=lambda e: -m.set_rank(f, h.edges[e][1]))
        first = base.column(col_of[edges[0]])
        if f not in on_cycle:
            out_cols.append(
                (base.cols[col_of[edges[0]]], [first[i] for i in worker_rows])
            )
        for e in edges[1:]:
            col = base.column(col_of[e])
            label = f"{base.cols[col_of[e]]}-{base.cols[col_of[edges[0]]]}"
            out_cols.append((label, [col[i] - first[i] for i in worker_rows]))

    rows = tuple(base.rows[i] for i in worker_rows)
    result = IntMatrix(
        rows=rows,
        cols=tuple(label for label, _ in out_cols),
        entries=tuple(
            tuple(col[i] for _, col in out_cols) for i in range(len(rows))
        ),
    )
    n_rows, n_cols = result.shape
    if n_rows != n_cols:
        raise CertificateError(f"certificate matrix {n_rows}x{n_cols} is not square")
    det = bareiss_determinant([list(row) for row in result.entries])
    if abs(det) != 2:
        raise CertificateError(f"certificate determinant {det}, expected |det| = 2")
    return result


def prop2_relation(m: DiscreteMarket, budget: int = DEFAULT_BUDGET) -> Prop2Report:
    """Evaluate total unimodularity of the pooled demand type alongside the
    cycle condition; a totally unimodular demand type with a qualifying
    cycle would falsify the implication and is flagged."""
    dt = demand_type(m)
    tu = is_totally_unimodular(dt.matrix(), budget)
    p1 = prop1_check(m, budget)
    consistent = not (tu.totally_unimodular and not p1.guaranteed)
    return Prop2Report(tu_verdict=tu, prop1=p1, consistent=consistent)
