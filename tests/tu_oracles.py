"""The unimodularity search as it was before it kept its columns from row
bitsets: ``is_totally_unimodular`` scanning every column for each row
subset.  Kept verbatim as the oracle for the differential test in
``test_analysis.py``, which compares verdicts, witnesses and budget steps."""

from __future__ import annotations

from itertools import combinations

from matchkit.analysis import MAX_TU_DIM, TuVerdict, bareiss_determinant
from matchkit.errors import SizeGuardExceeded
from matchkit.hypergraph import IntMatrix
from matchkit.model import DEFAULT_BUDGET, _Budget


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

