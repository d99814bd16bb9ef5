import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import matchkit
from matchkit import (
    Coalition,
    TuMarket,
    TuMatching,
    build_lp_problem,
    check_stable_tu,
    find_stable_matching_tu,
    max_partition_value,
    potential_coalitions,
    solve_lp,
)
from matchkit import tu_solver
from matchkit.errors import CertificateError, SizeGuardExceeded, WorkBudgetExceeded
from matchkit.generator import GenParams, SplitMix64, gen_tu_market
from matchkit.io import load_market
from matchkit.simplex import simplex_max

F = Fraction
fs = frozenset

SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(F(0), F(10)),
    acceptability_density=0.85,
)


def partition_oracle(m: TuMarket):
    """Best partition by brute force: itertools.product over each firm's
    options (unmatched, then its acceptable sets whose workers all accept it,
    in sorted-member order), keeping disjoint combinations in product order
    and the first one of greatest total."""
    firms = sorted(m.firms)
    options = []
    for f in firms:
        opts = [(fs(), F(0))]
        for s in sorted(m.firm_valuations.get(f, {}), key=sorted):
            if all(f in m.worker_valuations.get(w, {}) for w in s):
                value = m.firm_valuations[f][s]
                value += sum(m.worker_valuations[w][f] for w in s)
                opts.append((s, value))
        options.append(opts)
    best = None
    for combo in product(*options):
        sets = [s for s, _ in combo]
        if sum(map(len, sets)) != len(fs().union(*sets)):
            continue
        total = sum(v for _, v in combo)
        if best is None or total > best[0]:
            best = (total, dict(zip(firms, sets)))
    return best


FIXTURES = Path(__file__).parent / "fixtures"


def lex_min_oracle(problem):
    """Reference lexicographically least optimal primal point, by the
    per-coordinate method: solve the coverage program, then for each agent
    in order minimize its coordinate over the optimal points with the
    earlier coordinates held at their minima, one rebuilt program per agent
    (a coordinate already at zero needs no solve: zero is its floor)."""
    n = len(problem.agents)
    idx = {a: i for i, a in enumerate(problem.agents)}
    firm_cols = problem.firm_coalitions()
    cover = [[F(int(a in c.members())) for c, _ in firm_cols] for a in problem.agents]
    lp = simplex_max([v for _, v in firm_cols], cover, [F(1)] * n)
    base_rows, base_rhs = [], []
    for c, v in firm_cols:
        row = [F(0)] * n
        for a in c.members():
            row[idx[a]] = F(-1)
        base_rows.append(row)
        base_rhs.append(-v)
    base_rows.append([F(1)] * n)
    base_rhs.append(lp.value)

    current = list(lp.duals)
    fixed = [None] * n
    for i in range(n):
        if current[i] == 0:
            fixed[i] = F(0)
            continue
        rows, rhs = [list(r) for r in base_rows], list(base_rhs)
        for j in range(i):
            unit = [F(int(k == j)) for k in range(n)]
            rows += [unit, [-v for v in unit]]
            rhs += [fixed[j], -fixed[j]]
        objective = [F(-int(k == i)) for k in range(n)]
        current = simplex_max(objective, rows, rhs).x
        fixed[i] = current[i]
    return {a: current[i] for a, i in idx.items()}


def assignment_game(n_firms, n_workers, seed):
    """Complete assignment game: every firm values every single worker."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    return TuMarket(
        firms=set(firms),
        workers=set(workers),
        firm_valuations={f: {fs({w}): F(rng.randint(0, 10)) for w in workers} for f in firms},
        worker_valuations={w: {f: F(rng.randint(0, 3)) for f in firms} for w in workers},
    )


class TestPotentialCoalitions:
    def test_intro_family(self, intro_tu):
        family = potential_coalitions(intro_tu)
        singletons = [c for c in family if c.is_singleton]
        firm_cs = [c for c in family if not c.is_singleton]
        assert len(singletons) == 4
        assert {c.label() for c in firm_cs} == {
            "{f1,w1,w2}",
            "{f2,w1}",
            "{f2,w2}",
        }

    def test_worker_acceptability_filters(self, intro_tu):
        # w2 no longer accepts f1: the pair coalition drops out.
        m = TuMarket(
            firms=intro_tu.firms,
            workers=intro_tu.workers,
            firm_valuations=intro_tu.firm_valuations,
            worker_valuations={"w1": {"f1": 0, "f2": 0}, "w2": {"f2": 0}},
        )
        labels = {c.label() for c in potential_coalitions(m) if not c.is_singleton}
        assert labels == {"{f2,w1}", "{f2,w2}"}

    def test_example1_counts(self, example1_tu):
        family = potential_coalitions(example1_tu)
        assert sum(c.is_singleton for c in family) == 6
        assert sum(not c.is_singleton for c in family) == 5


class TestMaxPartitionValue:
    def test_intro(self, intro_tu):
        value, mu = max_partition_value(intro_tu)
        assert value == 6
        assert mu == {"f1": fs({"w1", "w2"}), "f2": fs()}

    def test_example1_lex_first_maximizer(self, example1_tu):
        value, mu = max_partition_value(example1_tu)
        assert value == 4
        assert mu == {"f1": fs(), "f2": fs({"w1"}), "f3": fs({"w2", "w3"})}

    def test_no_positive_coalition(self):
        m = TuMarket(
            firms={"f"},
            workers={"w"},
            firm_valuations={"f": {fs({"w"}): -1}},
            worker_valuations={"w": {"f": 0}},
        )
        value, mu = max_partition_value(m)
        assert value == 0
        assert mu == {"f": fs()}

    def test_guard(self):
        firms = {f"f{i}" for i in range(9)}
        m = TuMarket(firms=firms, workers=set(), firm_valuations={}, worker_valuations={})
        with pytest.raises(SizeGuardExceeded, match="9 firms > guard 8"):
            max_partition_value(m)

    def test_budget(self, example1_tu):
        with pytest.raises(WorkBudgetExceeded, match="partition search"):
            max_partition_value(example1_tu, budget=2)
        with pytest.raises(WorkBudgetExceeded):
            find_stable_matching_tu(example1_tu, budget=2)

    def test_agrees_with_product_oracle(self):
        for seed in range(250):
            m = gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS))
            assert max_partition_value(m) == partition_oracle(m), f"seed {seed}"


class TestSolveLp:
    def test_intro_fractional_cover(self, intro_tu):
        x, dual = solve_lp(build_lp_problem(intro_tu))
        assert dual.value == 7
        assert sum(x.values()) == 7
        firm_weights = {
            c.label(): w for c, w in dual.weights.items() if not c.is_singleton
        }
        assert firm_weights == {
            "{f1,w1,w2}": F(1, 2),
            "{f2,w1}": F(1, 2),
            "{f2,w2}": F(1, 2),
        }
        assert dual.weights[Coalition.singleton("f1", is_firm=True)] == F(1, 2)

    def test_example1_primal_point(self, example1_tu):
        x, dual = solve_lp(build_lp_problem(example1_tu))
        assert dual.value == 4
        assert x == {"f1": 0, "f2": 0, "f3": 0, "w1": 2, "w2": 1, "w3": 1}

    def test_singletons_only(self):
        m = TuMarket(
            firms={"f"}, workers={"w"}, firm_valuations={"f": {}},
            worker_valuations={"w": {"f": 0}},
        )
        x, dual = solve_lp(build_lp_problem(m))
        assert dual.value == 0
        assert all(v == 0 for v in x.values())

    def test_coverage_is_exactly_one(self, example1_tu):
        _, dual = solve_lp(build_lp_problem(example1_tu))
        coverage = {}
        for c, w in dual.weights.items():
            assert w >= 0
            for a in c.members():
                coverage[a] = coverage.get(a, F(0)) + w
        assert all(v == 1 for v in coverage.values())

    def test_coverage_weights_come_from_their_own_solve(self):
        # The coverage optimum of this market is not unique.  The Bland solve
        # from the all-singletons basis picks {f3,w3,w6}; the stage-1 duals of
        # the lexicographic price tableau pick {f4,w3,w4}.  The reported
        # weights are output bytes, so the second solve stays.
        m = gen_tu_market(GenParams(seed=71, **SUITE_PARAMS))
        _, dual = solve_lp(build_lp_problem(m))
        assert dual.value == F(85, 6)
        assert {c.label(): w for c, w in dual.weights.items()} == {
            "{f1}": 1, "{f2}": 1, "{f3,w3,w6}": 1, "{f4}": 1,
            "{w1}": 1, "{w2}": 1, "{w4}": 1, "{w5}": 1,
        }


class TestFindStable:
    def test_intro_unstable(self, intro_tu):
        rep = find_stable_matching_tu(intro_tu)
        assert not rep.stable
        assert rep.lp_value == 7
        assert rep.partition_value == 6
        assert rep.certificate.value == 7

    def test_example1_stable_with_expected_prices(self, example1_tu):
        rep = find_stable_matching_tu(example1_tu)
        assert rep.stable
        assert rep.matching.assignment == {"w1": "f2", "w2": "f3", "w3": "f3"}
        assert rep.matching.prices == {"w1": 2, "w2": 1, "w3": 1}
        assert check_stable_tu(example1_tu, rep.matching).stable

    def test_appendix_c_recipe(self, appendix_c_tu):
        rep = find_stable_matching_tu(appendix_c_tu)
        assert rep.stable
        assert rep.lp_value == 5 and rep.partition_value == 5
        assert rep.matching.assignment == {"w1": "f1", "w2": "f1", "w4": "f1"}
        assert rep.matching.prices == {"w1": 0, "w2": 0, "w4": 5}


class TestCheckStable:
    def test_example1_matching_stable(self, example1_tu):
        mu = TuMatching(
            assignment={"w1": "f2", "w2": "f3", "w3": "f3"},
            prices={"w1": 2, "w2": 1, "w3": 1},
        )
        assert check_stable_tu(example1_tu, mu).stable

    def test_intro_even_split_blocked(self, intro_tu):
        mu = TuMatching(
            assignment={"w1": "f1", "w2": "f1"}, prices={"w1": 3, "w2": 3}
        )
        verdict = check_stable_tu(intro_tu, mu)
        assert not verdict.stable
        blocks = [v for v in verdict.violations if v.kind == "block"]
        assert blocks[0].coalition.label() == "{f2,w1}"
        assert blocks[0].deficit == 1

    def test_empty_matching_stable_when_values_nonpositive(self):
        m = TuMarket(
            firms={"f"},
            workers={"w"},
            firm_valuations={"f": {fs({"w"}): -2}},
            worker_valuations={"w": {"f": 0}},
        )
        assert check_stable_tu(m, TuMatching(assignment={})).stable

    def test_negative_wage_breaks_worker_rationality(self, example1_tu):
        mu = TuMatching(
            assignment={"w1": "f2"}, prices={"w1": -1}
        )
        verdict = check_stable_tu(example1_tu, mu)
        assert any(v.kind == "ir" and v.agent == "w1" for v in verdict.violations)


class TestSolverProperties:
    def test_lp_value_dominates_partition_value(self):
        for seed in range(60):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            rep = find_stable_matching_tu(m)
            assert rep.lp_value >= rep.partition_value

    def test_soundness_both_ways(self):
        stable_seen = unstable_seen = 0
        for seed in range(80):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4,
                                        max_acceptable_sets_per_firm=3,
                                        max_set_size=3))
            rep = find_stable_matching_tu(m)
            if rep.stable:
                stable_seen += 1
                assert check_stable_tu(m, rep.matching).stable
            else:
                unstable_seen += 1
                assert rep.certificate.value > rep.partition_value
                coverage = {}
                for c, w in rep.certificate.weights.items():
                    assert w >= 0
                    for a in c.members():
                        coverage[a] = coverage.get(a, F(0)) + w
                assert all(v == 1 for v in coverage.values())
        assert stable_seen and unstable_seen

    def test_scaling_equivariance(self, example1_tu, intro_tu):
        c = F(3, 2)
        for market in (example1_tu, intro_tu):
            scaled = TuMarket(
                firms=market.firms,
                workers=market.workers,
                firm_valuations={
                    f: {s: c * v for s, v in vals.items()}
                    for f, vals in market.firm_valuations.items()
                },
                worker_valuations={
                    w: {f: c * v for f, v in vals.items()}
                    for w, vals in market.worker_valuations.items()
                },
            )
            base = find_stable_matching_tu(market)
            big = find_stable_matching_tu(scaled)
            assert big.lp_value == c * base.lp_value
            assert big.partition_value == c * base.partition_value
            assert big.stable == base.stable
            assert {a: c * v for a, v in base.lp_primal.items()} == big.lp_primal
            if base.stable:
                assert big.matching.assignment == base.matching.assignment
                assert big.matching.prices == {
                    w: c * p for w, p in base.matching.prices.items()
                }

    def test_unmatched_workers_have_zero_lp_value(self):
        for seed in range(40):
            m = gen_tu_market(GenParams(seed=seed, firm_count=3, worker_count=4))
            rep = find_stable_matching_tu(m)
            if rep.stable:
                matched = set(rep.matching.assignment)
                for w in m.workers - matched:
                    assert rep.lp_primal[w] == 0


class TestLexMinAgainstOracle:
    """The one-tableau lexicographic minimum equals the per-coordinate
    reference point, so prices are unchanged."""

    @staticmethod
    def check(m):
        rep = find_stable_matching_tu(m)
        ref = lex_min_oracle(build_lp_problem(m))
        assert rep.lp_primal == ref
        if rep.stable:
            assert rep.matching.prices == {
                w: ref[w] - m.worker_value(w, f)
                for w, f in rep.matching.assignment.items()
            }
        return rep.stable

    def test_suite_markets(self):
        verdicts = {self.check(gen_tu_market(GenParams(seed=seed, **SUITE_PARAMS)))
                    for seed in range(250)}
        assert verdicts == {True, False}

    def test_complete_assignment_games(self):
        for shape in ((3, 5), (4, 4)):
            for seed in range(8):
                self.check(assignment_game(*shape, seed))

    def test_fixtures(self):
        paths = sorted(FIXTURES.glob("*_tu.json"))
        assert len(paths) == 3
        for path in paths:
            self.check(load_market(str(path)))


class TestCertificateErrors:
    def test_partition_above_lp_value(self, intro_tu, monkeypatch):
        monkeypatch.setattr(
            tu_solver, "max_partition_value", lambda *args: (F(8), {"f1": fs(), "f2": fs()})
        )
        with pytest.raises(CertificateError, match="exceeded the LP value"):
            find_stable_matching_tu(intro_tu)

    # Runs under ``python -O``, which strips ``assert``: a wrong price vector
    # must still be caught, and the CLI must report it as exit 4.
    FAULTY_PRICES = """
import sys
from matchkit import cli, tu_solver
from matchkit.errors import CertificateError
from matchkit.io import load_market

if __debug__:
    sys.exit("expected python -O")
honest = tu_solver._lex_min_primal
tu_solver._lex_min_primal = lambda *args: [FAULT for v in honest(*args)]
try:
    tu_solver.find_stable_matching_tu(load_market(sys.argv[1]))
    print("no error")
except CertificateError as e:
    print("CertificateError:", e)
print("exit", cli.main(["solve-tu", sys.argv[1]]))
"""

    @pytest.mark.parametrize("fault", ["v + 1", "0 * v"])
    @pytest.mark.parametrize("name", ["example1_tu.json", "intro_tu.json"])
    def test_wrong_prices_raise_under_optimize(self, fault, name):
        src = str(Path(matchkit.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.FAULTY_PRICES.replace("FAULT", fault),
             str(FIXTURES / name)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("CertificateError:"), proc.stdout
        assert lines[-1] == "exit 4"
        assert "error:" in proc.stderr
