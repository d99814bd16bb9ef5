import time
from itertools import combinations
from pathlib import Path

import pytest

from matchkit import (
    DiscreteMarket,
    IntMatrix,
    build_hypergraph,
    check_balanced,
    demand_type,
    is_totally_unimodular,
    prop1_check,
    tu_cycle_certificate,
)
from matchkit.analysis import DemandType, TuVerdict, _cycle_qualifies, bareiss_determinant
from matchkit import analysis
from matchkit.errors import CertificateError, SizeGuardExceeded, WorkBudgetExceeded
from matchkit.generator import GenParams, SplitMix64, gen_discrete_market
from matchkit.hypergraph import iter_cycles
from matchkit.io import load_market
from matchkit.model import DEFAULT_BUDGET, satisfactory_sets

import tu_oracles
from cycle_oracles import cycle_incidence_matrix
from golden import SUITE_PARAMS

fs = frozenset

FIXTURES = Path(__file__).parent / "fixtures"
DISCRETE_FIXTURES = (
    "appendixC_discrete.json",
    "example2_discrete.json",
    "example3_discrete.json",
    "intro_discrete.json",
    "marriage.json",
    "profile13.json",
)


def incidence_certificate(m, c, h):
    """The certificate as it was cut from the cycle's incidence matrix:
    within each firm's column block, ordered by ascending preference,
    subtract the first column from the rest, then drop the firm rows and
    the first column of each firm that is a cycle vertex."""
    base = cycle_incidence_matrix(h, c)
    col_of = {e: j for j, e in enumerate(c.edges)}
    by_firm = {}
    for e in c.edges:
        by_firm.setdefault(h.edges[e][0], []).append(e)
    worker_rows = [i for i, v in enumerate(base.rows) if v not in m.firms]
    out_cols = []
    for f in sorted(by_firm):
        edges = sorted(by_firm[f], key=lambda e: -m.set_rank(f, h.edges[e][1]))
        first = base.column(col_of[edges[0]])
        if f not in c.vertices:
            out_cols.append((base.cols[col_of[edges[0]]], [first[i] for i in worker_rows]))
        for e in edges[1:]:
            col = base.column(col_of[e])
            label = f"{base.cols[col_of[e]]}-{base.cols[col_of[edges[0]]]}"
            out_cols.append((label, [col[i] - first[i] for i in worker_rows]))
    rows = tuple(base.rows[i] for i in worker_rows)
    return IntMatrix(
        rows=rows,
        cols=tuple(label for label, _ in out_cols),
        entries=tuple(tuple(col[i] for _, col in out_cols) for i in range(len(rows))),
    )


def prop2_sides(m, budget=DEFAULT_BUDGET):
    """Proposition 2's hypothesis and conclusion: the unimodularity verdict
    of the pooled demand type, and the cycle condition.  A totally
    unimodular demand type with a qualifying cycle would falsify it."""
    return is_totally_unimodular(demand_type(m).matrix(), budget), prop1_check(m, budget)


def cofactor_determinant(rows):
    """Independent oracle: textbook Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def tu_oracle(m: IntMatrix):
    """Exhaustive TU check powered entirely by the cofactor oracle."""
    r, c = m.shape
    for k in range(1, min(r, c) + 1):
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                sub = [[m.entries[i][j] for j in cols] for i in rows]
                if cofactor_determinant(sub) not in (-1, 0, 1):
                    return False
    return True


def exhaustive_tu_oracle(matrix: IntMatrix) -> TuVerdict:
    """Reference for is_totally_unimodular: the Bareiss determinant of every
    square submatrix, in increasing order and lexicographic index order."""
    r, c = matrix.shape
    for i in range(r):
        for j in range(c):
            if matrix.entries[i][j] not in (-1, 0, 1):
                return TuVerdict(False, (i,), (j,), matrix.entries[i][j])
    for k in range(2, min(r, c) + 1):
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                det = bareiss_determinant(
                    [[matrix.entries[i][j] for j in cols] for i in rows]
                )
                if det not in (-1, 0, 1):
                    return TuVerdict(False, rows, cols, det)
    return TuVerdict(True)


def banded(r: int, c: int, width: int, signed: bool = False) -> IntMatrix:
    """Interval matrix: column j has `width` consecutive nonzero rows, the
    band sliding down as j grows.  Unsigned, it is totally unimodular, so
    the search cannot stop early."""
    entries = []
    for i in range(r):
        row = []
        for j in range(c):
            start = j * (r - width) // max(c - 1, 1)
            sign = -1 if signed and (i + j) % 3 == 0 else 1
            row.append(sign if start <= i < start + width else 0)
        entries.append(tuple(row))
    return IntMatrix(
        rows=tuple(f"r{i}" for i in range(r)),
        cols=tuple(f"c{j}" for j in range(c)),
        entries=tuple(entries),
    )


BANDED_SHAPES = [(4, 6), (6, 8), (8, 10), (9, 12)]


def banded_matrices(shape):
    for width in (2, 3) if shape != (9, 12) else (3,):
        for signed in (False, True):
            yield banded(*shape, width, signed)


def random_matrix(r: int, c: int, draw) -> IntMatrix:
    """An r x c matrix of ``draw()`` values, drawn row by row."""
    return IntMatrix(
        rows=tuple(f"r{i}" for i in range(r)),
        cols=tuple(f"c{j}" for j in range(c)),
        entries=tuple(tuple(draw() for _ in range(c)) for _ in range(r)),
    )


def random_sign_matrices():
    """2,000 random sign matrices of up to 6 x 9, at four densities."""
    rng = SplitMix64(2024)
    for n in range(2000):
        r, c = rng.randint(1, 6), rng.randint(1, 9)
        density = (3, 5, 7, 10)[n % 4]
        yield random_matrix(
            r, c, lambda: (2 * rng.randint(0, 1) - 1) if rng.randint(0, 9) < density else 0
        )


def wide_entry_matrices():
    """200 random matrices of up to 5 x 6, one entry in 20 drawn from
    [-2, 2] and the rest from {-1, 0, 1}: 38 of them stop at the order-one
    entry check, at a bad entry in various positions."""
    rng = SplitMix64(31)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        yield random_matrix(
            r, c, lambda: rng.randint(-2, 2) if rng.randint(0, 19) == 0 else rng.randint(-1, 1)
        )


def demand_matrices():
    """The pooled demand-type matrices of suite seeds 0-299, with their seeds."""
    for seed in range(300):
        m = gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS))
        yield seed, demand_type(m).matrix()


def matrix_of(columns):
    n = len(columns[0]) if columns else 0
    return IntMatrix(
        rows=tuple(f"r{i}" for i in range(n)),
        cols=tuple(str(c) for c in columns),
        entries=tuple(tuple(col[i] for col in columns) for i in range(n)),
    )


def bitmask_demand_type_oracle(m: DiscreteMarket) -> DemandType:
    """Reference for demand_type: tabulate Ch(S) for every subset S of the
    workers as a bitmask, then take chi_Ch(S) - chi_Ch(S') over every pair
    S' strictly inside S by walking the submasks of each mask."""
    workers = tuple(sorted(m.workers))
    windex = {w: i for i, w in enumerate(workers)}
    n = len(workers)
    full = 1 << n

    per_firm = {}
    pooled = set()
    for f in sorted(m.firms):
        pref_masks = []
        for s in m.firm_prefs.get(f, ()):
            mask = 0
            for w in s:
                mask |= 1 << windex[w]
            pref_masks.append(mask)
        ch = [0] * full
        for mask in range(full):
            for pm in pref_masks:
                if pm & mask == pm:
                    ch[mask] = pm
                    break
        diffs = set()
        for mask in range(full):
            sub = (mask - 1) & mask
            while True:
                a, b = ch[mask], ch[sub]
                if a != b:
                    diffs.add((a & ~b, b & ~a))
                if sub == 0:
                    break
                sub = (sub - 1) & mask
        vectors = set()
        for pos, negm in diffs:
            vec = tuple(
                1 if pos >> i & 1 else (-1 if negm >> i & 1 else 0) for i in range(n)
            )
            if any(vec):
                vectors.add(vec)
        per_firm[f] = frozenset(vectors)
        pooled |= vectors
    return DemandType(workers=workers, per_firm=per_firm, union=frozenset(pooled))


class TestDemandType:
    def test_market1(self, market1):
        dt = demand_type(market1)
        assert dt.workers == ("w1", "w2")
        assert dt.union == fs({(1, 1), (1, 0), (0, 1), (1, -1)})

    def test_example3(self, example3_discrete):
        dt = demand_type(example3_discrete)
        assert dt.union == fs({(1, 1), (1, 0), (0, 1)})
        assert dt.per_firm["f1"] == fs({(1, 1)})

    def test_firm_without_acceptable_sets(self):
        m = DiscreteMarket(
            firms={"f"}, workers={"w"}, firm_prefs={"f": ()}, worker_prefs={}
        )
        assert demand_type(m).per_firm["f"] == fs()

    def test_entries_bounded_and_positive_component_present(self):
        # Every nonzero difference vector should carry at least one +1:
        # the chosen set from the bigger pool cannot sit inside the smaller
        # pool (else both choices coincide).
        for seed in range(60):
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=4,
                                              max_acceptable_sets_per_firm=4,
                                              max_set_size=3))
            dt = demand_type(m)
            for vec in dt.union:
                assert all(x in (-1, 0, 1) for x in vec)
                assert any(x == 1 for x in vec), f"seed {seed}: {vec}"


class TestDemandTypeAgainstBitmaskOracle:
    @pytest.mark.parametrize("name", DISCRETE_FIXTURES)
    def test_fixtures(self, name):
        m = load_market(FIXTURES / name)
        assert demand_type(m) == bitmask_demand_type_oracle(m)

    def test_suite_seeds(self):
        for seed in range(500):
            m = gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS))
            assert demand_type(m) == bitmask_demand_type_oracle(m), seed

    def test_markets_with_unsatisfactory_listed_sets(self):
        # A listed set S with a better listed set inside it has Ch(S) != S:
        # it never appears in a pair, though the subset walk still meets it.
        unsatisfactory = 0
        for seed in range(500):
            m = gen_discrete_market(GenParams(
                seed=seed, firm_count=3, worker_count=5,
                max_acceptable_sets_per_firm=6, max_set_size=4,
            ))
            unsatisfactory += sum(
                len(m.firm_prefs.get(f, ())) - len(satisfactory_sets(m, f))
                for f in m.firms
            )
            assert demand_type(m) == bitmask_demand_type_oracle(m), seed
        assert unsatisfactory > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_guard_limit_markets(self, seed):
        m = gen_discrete_market(GenParams(
            seed=seed, firm_count=8, worker_count=12,
            max_acceptable_sets_per_firm=8, max_set_size=4,
        ))
        assert demand_type(m) == bitmask_demand_type_oracle(m)


class TestTotallyUnimodular:
    def test_unimodular_triple(self):
        verdict = is_totally_unimodular(matrix_of([(1, 1), (1, 0), (0, 1)]))
        assert verdict.totally_unimodular

    def test_violation_pair_with_det_two(self):
        verdict = is_totally_unimodular(matrix_of([(0, 1), (1, -1), (1, 0), (1, 1)]))
        assert not verdict.totally_unimodular
        assert abs(verdict.determinant) == 2
        picked = [verdict.col_indices and matrix_of([(0, 1), (1, -1), (1, 0), (1, 1)]).column(j) for j in verdict.col_indices]
        assert set(picked) == {(1, -1), (1, 1)}

    def test_identity_matrices(self):
        for n in (1, 3, 5):
            eye = matrix_of([tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])
            assert is_totally_unimodular(eye).totally_unimodular

    def test_entry_out_of_range_is_order_one_violation(self):
        verdict = is_totally_unimodular(matrix_of([(2, 0)]))
        assert not verdict.totally_unimodular
        assert verdict.row_indices == (0,) and verdict.col_indices == (0,)
        assert verdict.determinant == 2

    def test_size_guard(self):
        big = matrix_of([tuple(0 for _ in range(30))])
        with pytest.raises(SizeGuardExceeded):
            is_totally_unimodular(big)

    def test_agrees_with_cofactor_oracle(self):
        # 200 random small sign matrices, both checks fully exhaustive.
        rng = SplitMix64(99)
        disagreements = 0
        for _ in range(200):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            cols = [
                tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(c)
            ]
            m = matrix_of(cols)
            if is_totally_unimodular(m).totally_unimodular != tu_oracle(m):
                disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize("transpose", [False, True])
    def test_eulerian_submatrix_with_four_nonzeros_in_a_line(self, transpose):
        # Minimally non-totally-unimodular: every proper submatrix is fine,
        # and the last column (row, transposed) has four nonzeros.
        rows = [(-1, 0, 0, -1), (1, 1, -1, 1), (0, 0, -1, 1), (0, 1, 0, 1)]
        if transpose:
            rows = list(zip(*rows))
        m = matrix_of(list(zip(*rows)))
        verdict = is_totally_unimodular(m)
        assert verdict == exhaustive_tu_oracle(m)
        assert verdict.row_indices == verdict.col_indices == (0, 1, 2, 3)
        assert abs(verdict.determinant) == 2

    def test_agrees_with_exhaustive_search_on_random_sign_matrices(self):
        non_tu = 0
        for m in random_sign_matrices():
            verdict = is_totally_unimodular(m)
            assert verdict == exhaustive_tu_oracle(m), m.entries
            non_tu += not verdict.totally_unimodular
        assert 400 <= non_tu <= 1600

    def test_agrees_with_exhaustive_search_on_demand_matrices(self):
        non_tu = 0
        for seed, matrix in demand_matrices():
            verdict = is_totally_unimodular(matrix)
            assert verdict == exhaustive_tu_oracle(matrix), seed
            non_tu += not verdict.totally_unimodular
        assert 50 <= non_tu <= 250

    @pytest.mark.parametrize("shape", BANDED_SHAPES, ids=lambda s: "%dx%d" % s)
    def test_agrees_with_exhaustive_search_on_banded_matrices(self, shape):
        for m in banded_matrices(shape):
            assert is_totally_unimodular(m) == exhaustive_tu_oracle(m)
        assert is_totally_unimodular(banded(*shape, 3)).totally_unimodular

    def test_determinants_only_of_eulerian_submatrices(self, monkeypatch):
        seen = []

        def record(rows):
            seen.append(rows)
            return bareiss_determinant(rows)

        monkeypatch.setattr(analysis, "bareiss_determinant", record)
        assert is_totally_unimodular(banded(8, 10, 3)).totally_unimodular
        assert seen
        for sub in seen:
            for line in sub + [list(col) for col in zip(*sub)]:
                count = sum(1 for x in line if x)
                assert count and count % 2 == 0, sub

    def test_budget_bounds_the_search(self):
        started = time.perf_counter()
        with pytest.raises(WorkBudgetExceeded, match="unimodularity test"):
            is_totally_unimodular(banded(12, 24, 3), budget=10**5)
        assert time.perf_counter() - started < 2.0

    def test_row_subsets_spend_budget(self):
        # No column has an even number of nonzeros in any row subset, so no
        # column combination is ever examined; the row subsets alone must
        # still exhaust the budget.
        eye = matrix_of([tuple(int(i == j) for i in range(24)) for j in range(24)])
        with pytest.raises(WorkBudgetExceeded):
            is_totally_unimodular(eye, budget=1000)

    def test_prop2_passes_its_budget(self, market1):
        with pytest.raises(WorkBudgetExceeded, match="unimodularity test"):
            prop2_sides(market1, budget=1)

    def test_bareiss_matches_cofactor(self):
        rng = SplitMix64(7)
        for _ in range(150):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == cofactor_determinant(rows)


def _tu_outcome(search, matrix, budget):
    """A search's verdict, or its budget error if it stops on one."""
    try:
        return search(matrix, budget)
    except WorkBudgetExceeded as e:
        return str(e)


class TestAgainstTheColumnScan:
    """``is_totally_unimodular`` is the column scan of ``tu_oracles`` with
    its kept columns read off row bitsets: the same verdicts, witnesses and
    budget steps on the random-sign, wide-entry, demand-matrix and banded
    corpora, and the same verdict or budget error under a small budget."""

    MATRICES = [
        *random_sign_matrices(),
        *wide_entry_matrices(),
        *(m for _, m in demand_matrices()),
        *(m for shape in BANDED_SHAPES for m in banded_matrices(shape)),
    ]

    def test_same_verdicts_and_steps(self, monkeypatch):
        spent = []

        class Recorded(analysis._Budget):
            __slots__ = ()

            def __init__(self, steps, search):
                super().__init__(steps, search)
                spent.append(self)

        monkeypatch.setattr(analysis, "_Budget", Recorded)
        monkeypatch.setattr(tu_oracles, "_Budget", Recorded)
        non_tu = 0
        for m in self.MATRICES:
            spent.clear()
            got = is_totally_unimodular(m)
            assert got == tu_oracles.is_totally_unimodular(m), m.entries
            assert [b.left for b in spent[:1]] == [b.left for b in spent[1:]], m.entries
            non_tu += not got.totally_unimodular
        assert 0 < non_tu < len(self.MATRICES)

    @pytest.mark.parametrize("budget", [0, 1, 5, 50])
    def test_same_outcome_under_a_small_budget(self, budget):
        exits = 0
        for m in self.MATRICES:
            got = _tu_outcome(is_totally_unimodular, m, budget)
            assert got == _tu_outcome(tu_oracles.is_totally_unimodular, m, budget), m.entries
            exits += isinstance(got, str)
        assert 0 < exits < len(self.MATRICES)


class TestProp1:
    def test_example3_guaranteed(self, example3_discrete):
        verdict = prop1_check(example3_discrete)
        assert verdict.guaranteed
        assert verdict.witness is None

    def test_market1_not_guaranteed(self, market1):
        verdict = prop1_check(market1)
        assert not verdict.guaranteed
        assert len(verdict.witness) == 3

    def test_balanced_market_vacuously_guaranteed(self, example2_discrete):
        assert check_balanced(build_hypergraph(example2_discrete)).balanced
        assert prop1_check(example2_discrete).guaranteed


class TestCertificate:
    def test_market1_reproduces_published_matrix(self, market1):
        witness = prop1_check(market1).witness
        cert = tu_cycle_certificate(market1, witness)
        assert cert.rows == ("w1", "w2")
        # Same matrix as the worked example, up to column order/sign.
        cols = {cert.column(j) for j in range(2)}
        assert cols == {(1, 1), (1, -1)}
        assert abs(bareiss_determinant([list(r) for r in cert.entries])) == 2

    def test_columns_come_from_demand_type(self, market1):
        witness = prop1_check(market1).witness
        cert = tu_cycle_certificate(market1, witness)
        union = demand_type(market1).union
        for j in range(len(cert.cols)):
            assert cert.column(j) in union

    @staticmethod
    def assert_submatrix_of_demand_type(m, cert):
        # Each certificate column must be the restriction of some pooled
        # demand vector to the certificate's rows, making the whole matrix
        # a square submatrix of the demand-type matrix.
        dt = demand_type(m)
        row_idx = [dt.workers.index(w) for w in cert.rows]
        for j in range(len(cert.cols)):
            col = cert.column(j)
            assert any(
                tuple(d[i] for i in row_idx) == col for d in dt.union
            ), f"column {col} is not a restricted demand vector"

    def test_non_qualifying_cycle_rejected(self, example3_discrete):
        h = build_hypergraph(example3_discrete)
        witness = check_balanced(h).witness
        assert witness is not None
        with pytest.raises(ValueError):
            tu_cycle_certificate(example3_discrete, witness)

    def test_wrong_determinant_raises_certificate_error(self, market1, monkeypatch):
        witness = prop1_check(market1).witness
        monkeypatch.setattr(analysis, "bareiss_determinant", lambda rows: 1)
        with pytest.raises(CertificateError, match="determinant 1"):
            tu_cycle_certificate(market1, witness)

    def test_agrees_with_incidence_matrix_on_suite_cycles(self):
        # Every qualifying nontrivial odd cycle of the 500-seed corpus; the
        # first one of each market is its prop1 witness.
        witnesses = cycles = 0
        for seed in range(500):
            m = gen_discrete_market(GenParams(seed=seed, **SUITE_PARAMS))
            h = build_hypergraph(m)
            qualifying = [
                c for c in iter_cycles(h)
                if _cycle_qualifies(m, h, c)
            ]
            verdict = prop1_check(m)
            assert verdict.witness == (qualifying[0] if qualifying else None)
            witnesses += not verdict.guaranteed
            for c in qualifying:
                cycles += 1
                cert = tu_cycle_certificate(m, c, h)
                assert cert == incidence_certificate(m, c, h)
                assert all(type(x) is int for row in cert.entries for x in row)
        assert (witnesses, cycles) == (277, 1779)

    def test_determinant_two_on_random_qualifying_cycles(self):
        seen = 0
        for seed in range(400):
            if seen >= 25:
                break
            m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=5,
                                              max_acceptable_sets_per_firm=3,
                                              max_set_size=3))
            verdict = prop1_check(m)
            if verdict.guaranteed:
                continue
            seen += 1
            cert = tu_cycle_certificate(m, verdict.witness)
            det = bareiss_determinant([list(r) for r in cert.entries])
            assert abs(det) == 2
            self.assert_submatrix_of_demand_type(m, cert)
        assert seen >= 25


def test_guaranteed_markets_have_stable_matchings():
    # Joint property: when no nontrivial odd cycle passes the pairwise
    # choice condition, exhaustive enumeration must find a stable matching,
    # including on unbalanced hypergraphs.
    from matchkit import enumerate_stable_matchings

    guaranteed = with_cycles = 0
    for seed in range(300):
        m = gen_discrete_market(GenParams(seed=seed, firm_count=3, worker_count=5,
                                          max_acceptable_sets_per_firm=3,
                                          max_set_size=3))
        if not prop1_check(m).guaranteed:
            continue
        guaranteed += 1
        if not check_balanced(build_hypergraph(m)).balanced:
            with_cycles += 1
        assert enumerate_stable_matchings(m, limit=1), f"seed {seed}"
    assert guaranteed >= 100
    assert with_cycles >= 1  # the condition must bite beyond balancedness


class TestProp2:
    def test_example3_pair(self, example3_discrete):
        tu, p1 = prop2_sides(example3_discrete)
        assert tu.totally_unimodular
        assert p1.guaranteed

    def test_market1_pair(self, market1):
        tu, p1 = prop2_sides(market1)
        assert not tu.totally_unimodular
        assert not p1.guaranteed

    def test_empty_market_vacuous(self):
        m = DiscreteMarket(firms=set(), workers=set(), firm_prefs={}, worker_prefs={})
        tu, p1 = prop2_sides(m)
        assert tu.totally_unimodular
        assert p1.guaranteed
