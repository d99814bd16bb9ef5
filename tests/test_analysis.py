from itertools import combinations

import pytest

from matchkit import (
    DiscreteMarket,
    IntMatrix,
    build_hypergraph,
    check_balanced,
    demand_type,
    is_totally_unimodular,
    prop1_check,
    prop2_relation,
    tu_cycle_certificate,
)
from matchkit.analysis import bareiss_determinant
from matchkit import analysis
from matchkit.errors import CertificateError, SizeGuardExceeded
from matchkit.generator import GenParams, SplitMix64, gen_discrete_market

fs = frozenset


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


def matrix_of(columns):
    n = len(columns[0]) if columns else 0
    return IntMatrix(
        rows=tuple(f"r{i}" for i in range(n)),
        cols=tuple(str(c) for c in columns),
        entries=tuple(tuple(col[i] for col in columns) for i in range(n)),
    )


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

    def test_bareiss_matches_cofactor(self):
        rng = SplitMix64(7)
        for _ in range(150):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == cofactor_determinant(rows)


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
        rep = prop2_relation(example3_discrete)
        assert rep.tu_verdict.totally_unimodular
        assert rep.prop1.guaranteed
        assert rep.consistent

    def test_market1_pair(self, market1):
        rep = prop2_relation(market1)
        assert not rep.tu_verdict.totally_unimodular
        assert not rep.prop1.guaranteed
        assert rep.consistent

    def test_empty_market_vacuous(self):
        m = DiscreteMarket(firms=set(), workers=set(), firm_prefs={}, worker_prefs={})
        rep = prop2_relation(m)
        assert rep.tu_verdict.totally_unimodular
        assert rep.prop1.guaranteed
        assert rep.consistent
