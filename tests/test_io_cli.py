import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from matchkit import DiscreteMatching, TuMarket, TuMatching
from matchkit import cli
from matchkit.cli import build_parser, main
from matchkit.errors import MarketFormatError
from matchkit.generator import (
    GenParams,
    SplitMix64,
    gen_discrete_market,
    gen_roadmap_instance,
    gen_tu_market,
)
from matchkit.io import (
    parse_market,
    parse_matching,
    parse_roadmap,
    serialize_market,
    serialize_matching,
    serialize_roadmap,
)

FIXTURES = Path(__file__).parent / "fixtures"
WORKED_EXAMPLES = Path(__file__).parent.parent / "scripts" / "worked_examples.py"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestRoundTrips:
    def test_markets(self):
        for seed in range(40):
            for m in (
                gen_tu_market(GenParams(seed=seed)),
                gen_discrete_market(GenParams(seed=seed)),
            ):
                assert parse_market(serialize_market(m)) == m

    def test_roadmaps(self):
        for seed in range(20):
            try:
                rm, _ = gen_roadmap_instance(GenParams(seed=seed, firm_count=2,
                                                       worker_count=5))
            except ValueError:
                continue
            back = parse_roadmap(serialize_roadmap(rm))
            assert back.technologies == rm.technologies
            assert back.demanded == rm.demanded
            assert sorted(back.edges) == sorted(rm.edges)

    def test_matchings(self):
        tu = TuMatching(assignment={"w1": "f1"}, prices={"w1": Fraction(5, 2)})
        assert parse_matching(serialize_matching(tu), "tu") == tu
        d = DiscreteMatching(assignment={"w1": "f1", "w2": "f2"})
        assert parse_matching(serialize_matching(d), "discrete") == d

    def test_rational_strings(self):
        m = parse_market(
            {
                "kind": "tu",
                "firms": {"f": [{"set": ["w"], "value": "-3/2"}]},
                "workers": {"w": {"f": 2}},
            }
        )
        assert m.firm_valuations["f"][frozenset({"w"})] == Fraction(-3, 2)

    def test_duplicate_members_in_set_collapse(self):
        m = parse_market(
            {
                "kind": "discrete",
                "firms": {"f": [["w", "w"]]},
                "workers": {"w": ["f"]},
            }
        )
        assert m.firm_prefs["f"] == (frozenset({"w"}),)


class TestFormatErrors:
    @pytest.mark.parametrize(
        "data",
        [
            42,
            {"kind": "weird", "firms": {}, "workers": {}},
            {"kind": "tu", "firms": [], "workers": {}},
            {"kind": "tu", "firms": {"f": [{"set": ["w"]}]}, "workers": {}},
            {"kind": "tu", "firms": {"f": [{"set": ["w"], "value": 1.5}]}, "workers": {}},
            {"kind": "discrete", "firms": {"f": [["w"], "w"]}, "workers": {}},
        ],
    )
    def test_rejected(self, data):
        with pytest.raises(MarketFormatError):
            parse_market(data)

    def test_tu_set_valued_twice(self):
        data = {
            "kind": "tu",
            "firms": {"f": [{"set": ["w"], "value": "1"}, {"set": ["w"], "value": "9"}]},
            "workers": {"w": {"f": "0"}},
        }
        with pytest.raises(MarketFormatError, match=r"firm f: set \['w'\] valued twice"):
            parse_market(data)

    @pytest.mark.parametrize("edges", [5, None, "v1"])
    def test_roadmap_edges_not_an_array(self, edges):
        with pytest.raises(MarketFormatError, match='"edges" must be an array'):
            parse_roadmap({"technologies": {"v1": ["w1"]}, "edges": edges})

    @pytest.mark.parametrize(
        "parse,data,message,argv",
        [
            (
                parse_market,
                {"kind": "tu", "firms": {"f": {}}, "workers": {}},
                "firm f: expected an array of valuations",
                ["balance", "FILE"],
            ),
            (
                parse_market,
                {"kind": "discrete", "firms": {"f": "w"}, "workers": {}},
                "firm f: expected an array of worker sets",
                ["balance", "FILE"],
            ),
            (
                parse_market,
                {"kind": "tu", "firms": {}, "workers": {"w": ["f"]}},
                "worker w: expected an object firm->value",
                ["solve-tu", "FILE"],
            ),
            (
                lambda data: parse_matching(data, "discrete"),
                {"assignment": ["w1", "f1"]},
                'matching file needs an "assignment" object',
                ["solve-discrete", fixture("intro_discrete.json"), "--dynamics", "--start", "FILE"],
            ),
            (
                lambda data: parse_matching(data, "discrete"),
                {"assignment": {"w1": 1}},
                "assignment for w1 must name a firm",
                ["solve-discrete", fixture("intro_discrete.json"), "--dynamics", "--start", "FILE"],
            ),
            (
                parse_roadmap,
                {"edges": []},
                'roadmap file needs a "technologies" object',
                ["roadmap", "FILE", fixture("profile13.json")],
            ),
            (
                parse_roadmap,
                {"technologies": {"v1": ["w1"], "v2": ["w1"]}, "edges": [["v1", "v2", "v1"]]},
                "edge ['v1', 'v2', 'v1'] must have exactly two endpoints",
                ["roadmap", "FILE", fixture("profile13.json")],
            ),
        ],
    )
    def test_messages_and_exit_2(self, parse, data, message, argv, tmp_path, capsys):
        with pytest.raises(MarketFormatError) as e:
            parse(data)
        assert str(e.value) == message
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCmdBalance:
    def test_intro_discrete_unbalanced(self, capsys):
        code = main(["balance", fixture("intro_discrete.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        witness = report["facts"]["witness"]
        assert witness["length"] == 3
        assert len(witness["edge_members"]) == 3

    def test_example1_balanced(self, capsys):
        code = main(["balance", fixture("example1_tu.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["balanced"] is True

    def test_truncated_file(self):
        assert main(["balance", fixture("truncated.json")]) == 2

    def test_kind_mismatch(self):
        assert main(["balance", fixture("intro_tu.json"), "--kind", "discrete"]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_budget_exhaustion_exit_code(self):
        code = main(["balance", fixture("example1_tu.json"), "--budget", "2"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-tu", fixture("example1_tu.json")],
            ["solve-discrete", fixture("marriage.json")],
            ["solve-discrete", fixture("marriage.json"), "--first"],
            ["roadmap", fixture("example4_roadmap.json"), fixture("profile13.json")],
        ],
    )
    def test_every_search_honours_the_budget(self, argv, capsys):
        assert main([*argv, "--budget", "2"]) == 3
        assert "budget exhausted" in capsys.readouterr().err
        assert main(argv) in (0, 1)


class TestCmdSolveTu:
    def test_complete_game_at_the_guard(self, tmp_path, capsys):
        # 8 firms by 12 workers, every firm valuing every single worker: the
        # largest complete assignment game inside the size guard.
        rng = SplitMix64(0)
        firms = [f"f{i}" for i in range(8)]
        workers = [f"w{j}" for j in range(12)]
        market = TuMarket(
            firms=set(firms),
            workers=set(workers),
            firm_valuations={f: {frozenset({w}): rng.randint(0, 10) for w in workers} for f in firms},
            worker_valuations={w: {f: rng.randint(0, 3) for f in firms} for w in workers},
        )
        path = tmp_path / "complete_8x12.json"
        path.write_text(json.dumps(serialize_market(market)), encoding="utf-8")
        start = time.perf_counter()
        assert main(["solve-tu", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert main(["solve-tu", str(path), "--budget", "2"]) == 3
        assert "partition search budget exhausted" in capsys.readouterr().err

    def test_intro_unstable_with_certificate(self, capsys):
        code = main(["solve-tu", fixture("intro_tu.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["facts"]["lp_value"] == "7"
        assert report["facts"]["partition_value"] == "6"
        weights = {
            tuple(w["coalition"]): w["weight"]
            for w in report["facts"]["certificate"]["weights"]
        }
        assert weights[("f1", "w1", "w2")] == "1/2"

    def test_example1_stable_prices(self, capsys):
        code = main(["solve-tu", fixture("example1_tu.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["matching"]["prices"] == {
            "w1": "2",
            "w2": "1",
            "w3": "1",
        }

    def test_appendix_c_stable(self, capsys):
        code = main(["solve-tu", fixture("appendixC_tu.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["lp_value"] == "5"

    def test_emit_lp_includes_primal(self, capsys):
        main(["solve-tu", fixture("example1_tu.json"), "--emit", "lp", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["facts"]["lp_primal"] == {
            "f1": "0", "f2": "0", "f3": "0", "w1": "2", "w2": "1", "w3": "1"
        }

    def test_discrete_file_rejected(self):
        assert main(["solve-tu", fixture("intro_discrete.json")]) == 2

    def test_coalition_guard(self, tmp_path, capsys):
        # One firm accepting every nonempty set of 12 workers: 4,095 firm
        # coalitions and 13 singletons, past the guard of 4,096.
        workers = [f"w{j}" for j in range(12)]
        market = TuMarket(
            firms={"f"},
            workers=set(workers),
            firm_valuations={
                "f": {frozenset(s): 1 for k in range(1, 13) for s in combinations(workers, k)}
            },
            worker_valuations={w: {"f": 0} for w in workers},
        )
        path = tmp_path / "all_subsets.json"
        path.write_text(json.dumps(serialize_market(market)), encoding="utf-8")
        assert main(["solve-tu", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: 4108 coalitions > guard 4096\n")


class TestCmdSolveDiscrete:
    def test_intro_no_stable_matching(self, capsys):
        code = main(["solve-discrete", fixture("intro_discrete.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["facts"]["stable_count"] == 0

    def test_example2_contains_expected_matching(self, capsys):
        code = main(["solve-discrete", fixture("example2_discrete.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {"w1": "f1", "w2": "f1", "w3": "f2"} in report["facts"]["stable_matchings"]

    def test_marriage_exactly_two(self, capsys):
        code = main(["solve-discrete", fixture("marriage.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["stable_count"] == 2

    def test_dynamics_trace(self, capsys, tmp_path):
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"assignment": {"w1": "f1", "w2": "f1"}}))
        code = main([
            "solve-discrete", fixture("intro_discrete.json"),
            "--dynamics", "--start", str(start), "--max-steps", "20",
            "--format", "json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["facts"]["outcome"] == "cycle"
        assert report["facts"]["revisit"] == [0, 4]

    def test_dynamics_start_with_unknown_agents(self, capsys, tmp_path):
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"assignment": {"w1": "f1", "w9": "f1", "w2": "f9"}}))
        code = main([
            "solve-discrete", fixture("intro_discrete.json"), "--dynamics", "--start", str(start),
        ])
        assert code == 2
        assert capsys.readouterr() == (
            "",
            "error: start matching names unknown agents: [('w9', 'f1'), ('w2', 'f9')]\n",
        )

    @pytest.mark.parametrize("start", [["--start", "START"], ["--start=START"], ["--first", "--start", "START"]])
    def test_start_without_dynamics_reads_no_file(self, capsys, tmp_path, start):
        # Neither file exists: the option error comes before any read.
        missing = str(tmp_path / "missing.json")
        argv = ["solve-discrete", missing] + [w.replace("START", missing) for w in start]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --start needs --dynamics\n")

    @pytest.mark.parametrize("start", [["--start", ""], ["--start="]])
    def test_dynamics_reads_an_empty_start_path(self, capsys, start):
        argv = ["solve-discrete", fixture("intro_discrete.json"), "--dynamics"] + start
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read : ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("max_steps", ["0", "1"])
    def test_dynamics_stable_start_with_few_steps(self, capsys, tmp_path, max_steps):
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"assignment": {"m1": "x1", "m2": "x2"}}))
        code = main([
            "solve-discrete", fixture("marriage.json"),
            "--dynamics", "--start", str(start), "--max-steps", max_steps,
            "--format", "json",
        ])
        facts = json.loads(capsys.readouterr().out)["facts"]
        assert code == 0
        assert (facts["outcome"], facts["stable_at"], facts["moves"]) == ("stable", 0, [])

    def test_first_flag(self, capsys):
        code = main(["solve-discrete", fixture("marriage.json"), "--first", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["stable_count"] == 1
        assert report["facts"]["complete"] is False


class TestCmdAnalyze:
    def test_example3_prop1(self, capsys):
        code = main(["analyze", fixture("example3_discrete.json"), "--prop1", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["prop1"]["guaranteed"] is True

    def test_intro_demand_type_and_tu(self, capsys):
        code = main([
            "analyze", fixture("intro_discrete.json"),
            "--demand-type", "--tu-check", "--format", "json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [1, -1] in report["facts"]["demand_type"]["vectors"]
        assert report["facts"]["tu_check"]["totally_unimodular"] is False
        assert abs(report["facts"]["tu_check"]["determinant"]) == 2

    def test_intro_certificate(self, capsys):
        code = main(["analyze", fixture("intro_discrete.json"), "--certificate", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        cert = report["facts"]["certificate"]
        assert cert["rows"] == ["w1", "w2"]
        cols = {tuple(row[j] for row in cert["entries"]) for j in range(2)}
        assert cols == {(1, 1), (1, -1)}

    def test_tu_check_honours_the_budget(self, capsys):
        # The demand type of this market takes two steps: one row subset and
        # one column pair.
        argv = ["analyze", fixture("intro_discrete.json"), "--tu-check"]
        assert main([*argv, "--budget", "1"]) == 3
        assert "unimodularity test budget exhausted" in capsys.readouterr().err
        assert main([*argv, "--budget", "2"]) == 0

    def test_all_analyses_by_default(self, capsys):
        main(["analyze", fixture("example3_discrete.json"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert {"prop1", "demand_type", "tu_check", "certificate"} <= set(
            report["facts"]
        )
        assert report["facts"]["certificate"] is None  # no qualifying cycle


class TestCmdRoadmap:
    def test_profile13_all_hold(self, capsys):
        code = main([
            "roadmap", fixture("example4_roadmap.json"), fixture("profile13.json"),
            "--format", "json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["facts"]["firm_paths"] == {
            "f1": ["v1", "v3", "v4"],
            "f2": ["v2"],
            "f3": ["v6", "v5"],
        }

    def test_counter_roadmap_fails_specialists(self, capsys):
        code = main([
            "roadmap", fixture("counter1_roadmap.json"), fixture("intro_discrete.json"),
            "--format", "json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["facts"]["non_specialists"] == ["w1"]
        assert report["facts"]["balanced"] is False

    def test_cyclic_roadmap_rejected(self):
        code = main([
            "roadmap", fixture("cyclic_roadmap.json"), fixture("intro_discrete.json"),
        ])
        assert code == 2


@pytest.mark.parametrize(
    "argv, witness",
    [
        (["analyze", fixture("intro_discrete.json")], ("prop1", "witness")),
        (["roadmap", fixture("counter1_roadmap.json"), fixture("intro_discrete.json")],
         ("witness",)),
    ],
    ids=["analyze", "roadmap"],
)
def test_one_hypergraph_per_command(monkeypatch, capsys, argv, witness):
    # The verdicts carry the hypergraph their witness indexes into, so the
    # report and the certificate do not build it again.
    from matchkit import analysis, hypergraph, roadmap

    built = []
    build = hypergraph.build_hypergraph

    def counted(m):
        built.append(m)
        return build(m)

    for module in (hypergraph, analysis, roadmap):
        monkeypatch.setattr(module, "build_hypergraph", counted)
    main([*argv, "--format", "json"])
    facts = json.loads(capsys.readouterr().out)["facts"]
    for key in witness:
        facts = facts[key]
    assert facts["edge_members"]
    assert len(built) == 1


class TestCmdGen:
    def test_identical_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "discrete", "--seed", "7", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roadmap_instance_passes_roadmap_command(self, tmp_path, capsys):
        market = tmp_path / "market.json"
        rmfile = tmp_path / "roadmap.json"
        code = main([
            "gen", "roadmap", "--seed", "3", "--firms", "2", "--workers", "5",
            "--out", str(market), "--roadmap-out", str(rmfile),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["roadmap", str(rmfile), str(market)]) == 0

    def test_guard_violation_is_input_error(self, tmp_path):
        code = main([
            "gen", "tu", "--seed", "1", "--workers", "50",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--value-min", "--value-max"])
    @pytest.mark.parametrize("bound", ["1/0", "abc"])
    def test_value_bound_not_rational_is_input_error(self, tmp_path, capsys, flag, bound):
        out = tmp_path / "x.json"
        code = main(["gen", "tu", "--seed", "0", flag, bound, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: bad rational {bound!r}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--roadmap-out"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "missing" / "x.json"
        paths = {"--out": tmp_path / "m.json", "--roadmap-out": tmp_path / "r.json"}
        paths[flag] = bad
        code = main([
            "gen", "roadmap", "--seed", "3", "--firms", "2", "--workers", "5",
            "--out", str(paths["--out"]), "--roadmap-out", str(paths["--roadmap-out"]),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")

    @pytest.mark.parametrize("kind", ["tu", "discrete"])
    @pytest.mark.parametrize("joined", [False, True])
    def test_roadmap_out_needs_gen_roadmap(self, tmp_path, capsys, kind, joined):
        # The joined form goes through argparse; neither file is written.
        out, rm = tmp_path / "a.json", tmp_path / "b.json"
        flag = [f"--roadmap-out={rm}"] if joined else ["--roadmap-out", str(rm)]
        assert main(["gen", kind, "--seed", "0", "--out", str(out)] + flag) == 2
        assert capsys.readouterr() == ("", "error: --roadmap-out needs gen roadmap\n")
        assert not out.exists() and not rm.exists()

    @pytest.mark.parametrize("bound", ["1e30", "1e5000"])
    def test_wide_value_range_reaches_its_upper_half(self, tmp_path, digit_limit, bound):
        # A range of more than 2^64 values takes ceil(bits/64) words per draw;
        # one word would keep every value below 2^64 / d.
        digit_limit(0)
        out = tmp_path / "x.json"
        assert main(["gen", "tu", "--seed", "0", "--value-max", bound, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        values = [Fraction(e["value"]) for sets in data["firms"].values() for e in sets]
        values += [Fraction(v) for vals in data["workers"].values() for v in vals.values()]
        top = Fraction(bound)
        assert all(0 <= v <= top for v in values)
        assert max(values) > top / 2

    def test_values_past_the_digit_limit_are_input_errors(self, tmp_path, capsys, digit_limit):
        # At CPython's default limit a value near 10^5000 can be neither
        # written nor read back as a decimal string.  The message names the
        # environment variable that lifts the limit, not the Python call.
        digit_limit(4300)
        out = tmp_path / "x.json"
        argv = ["gen", "tu", "--seed", "0", "--value-max", "1e5000", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --value-max: bad rational '1e5000' (Exceeds the limit (4300 digits) "
            "for integer string conversion: exponent is 5000; "
            "set PYTHONINTMAXSTRDIGITS to raise it (0 lifts it))\n"
        )
        assert not out.exists()
        argv[5] = "1" + "0" * 5000
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --value-max: bad rational '1000")
        assert err.endswith(
            "(Exceeds the limit (4300 digits) for integer string conversion: value has "
            "5001 digits; set PYTHONINTMAXSTRDIGITS to raise it (0 lifts it))\n"
        )
        assert "sys.set_int_max_str_digits" not in err


INVALID_TU = {
    "kind": "tu",
    "firms": {"f": [{"set": ["w", "ghost"], "value": "1"}]},
    "workers": {"w": {"f": "0", "g": "1"}},
}
INVALID_TU_ERR = (
    "error: firm 'f' set ('ghost', 'w') references unknown workers ['ghost']; "
    "worker 'w' values unknown firm 'g'\n"
)
INVALID_DISCRETE = {
    "kind": "discrete",
    "firms": {"f": [["w"], ["w"]], "a": []},
    "workers": {"w": ["f", "f"], "a": []},
}
INVALID_DISCRETE_ERR = (
    "error: ids used as both firm and worker: ['a']; firm 'f' ranks ('w',) twice; "
    "worker 'w' lists a firm twice\n"
)


class TestInvalidMarketContract:
    """A well-formed file holding an invalid market exits 2 with every
    violation on stderr, whatever the command and before any kind check."""

    @pytest.mark.parametrize(
        "argv,market,err",
        [
            (["balance"], INVALID_TU, INVALID_TU_ERR),
            (["balance"], INVALID_DISCRETE, INVALID_DISCRETE_ERR),
            (["solve-tu"], INVALID_TU, INVALID_TU_ERR),
            (["solve-tu"], INVALID_DISCRETE, INVALID_DISCRETE_ERR),
            (["solve-discrete"], INVALID_DISCRETE, INVALID_DISCRETE_ERR),
            (["solve-discrete"], INVALID_TU, INVALID_TU_ERR),
            (["analyze"], INVALID_DISCRETE, INVALID_DISCRETE_ERR),
            (["roadmap", fixture("example4_roadmap.json")], INVALID_DISCRETE,
             INVALID_DISCRETE_ERR),
            (["roadmap", fixture("example4_roadmap.json")], INVALID_TU, INVALID_TU_ERR),
        ],
    )
    def test_exit_2_with_the_violations(self, argv, market, err, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market), encoding="utf-8")
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr() == ("", err)

    def test_invalid_roadmap(self, capsys):
        code = main([
            "roadmap", fixture("cyclic_roadmap.json"), fixture("intro_discrete.json"),
        ])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: 3 edges for 3 vertices (a tree needs exactly |V|-1)\n"
        )


class TestReportRendering:
    def test_human_and_json_carry_same_facts(self, capsys):
        main(["balance", fixture("intro_discrete.json"), "--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        main(["balance", fixture("intro_discrete.json")])
        human = capsys.readouterr().out
        assert "balanced: no" in human
        for v in as_json["facts"]["witness"]["vertices"]:
            assert v in human

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MATCHKIT_BUDGET", "2")
        code = main(["balance", fixture("example1_tu.json")])
        assert code == 3
        monkeypatch.setenv("MATCHKIT_BUDGET", "100000")
        assert main(["balance", fixture("example1_tu.json")]) == 0
        capsys.readouterr()

    def test_malformed_budget_env_is_input_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("MATCHKIT_BUDGET", "abc")
        assert main(["balance", fixture("example1_tu.json")]) == 2
        assert capsys.readouterr().err == (
            "error: MATCHKIT_BUDGET must be an integer, got 'abc'\n"
        )
        # gen searches nothing, so it does not read the variable.
        assert main(["gen", "tu", "--seed", "1", "--out", str(tmp_path / "x.json")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,env,message",
        [
            (["solve-tu", "example1_tu.json", "--budget", "-3"], None,
             "error: --budget must be nonnegative, got -3\n"),
            (["balance", "example1_tu.json"], "-1",
             "error: MATCHKIT_BUDGET must be nonnegative, got -1\n"),
            (["solve-discrete", "marriage.json", "--dynamics", "--max-steps", "-1"], None,
             "error: --max-steps must be nonnegative, got -1\n"),
        ],
    )
    def test_negative_limits_are_input_errors(self, capsys, monkeypatch, argv, env, message):
        if env is not None:
            monkeypatch.setenv("MATCHKIT_BUDGET", env)
        assert main([argv[0], fixture(argv[1]), *argv[2:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_zero_limits_are_valid(self, capsys, monkeypatch):
        assert main(["solve-tu", fixture("example1_tu.json"), "--budget", "0"]) == 3
        monkeypatch.setenv("MATCHKIT_BUDGET", "0")
        assert main(["balance", fixture("example1_tu.json")]) == 3
        assert main(["solve-discrete", fixture("marriage.json"), "--dynamics",
                     "--max-steps", "0"]) == 1
        capsys.readouterr()

    def test_parser_built_once_env_read_per_call(self, capsys, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            path = fixture("example1_tu.json")
            monkeypatch.setenv("MATCHKIT_BUDGET", "2")
            assert main(["balance", path]) == 3
            assert main(["balance", path, "--budget", "100000"]) == 0
            monkeypatch.setenv("MATCHKIT_BUDGET", "100000")
            assert main(["balance", path]) == 0
            assert main(["balance", path, "--budget", "2"]) == 3
            assert built == [1]
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()

    def test_handler_looked_up_at_call_time(self, capsys, monkeypatch):
        main(["balance", fixture("example1_tu.json")])
        calls = []
        original = cli.cmd_balance

        def wrapped(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(cli, "cmd_balance", wrapped)
        assert main(["balance", fixture("example1_tu.json")]) == 0
        assert len(calls) == 1
        capsys.readouterr()


def test_closed_stdout_exits_2_without_a_traceback():
    # The read end is closed before the command starts, so its write to
    # stdout fails whatever the timing; the verdict itself is balanced (0).
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", "from matchkit.cli import entry; entry()",
             "balance", fixture("marriage.json"), "--format", "json"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_worked_examples_script_runs():
    done = subprocess.run(
        [sys.executable, str(WORKED_EXAMPLES)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    analyze = done.stdout.split("$ matchkit analyze tests/fixtures/intro_discrete.json\n")[1]
    report = analyze.split("\n$ ")[0].splitlines()
    assert report[0] == "command: analyze"
    assert "    totally_unimodular: no" in report
    # The two-firm market with no stable matching: the dynamics cycle.
    dynamics = done.stdout.split(
        "$ matchkit solve-discrete tests/fixtures/intro_discrete.json --dynamics\n"
    )[1]
    report = dynamics.split("\n$ ")[0].splitlines()
    assert report[0] == "command: solve-discrete"
    assert report[3:9] == [
        "facts:", "  outcome: cycle", "  stable_at: none", "  revisit:", "    - 1", "    - 5",
    ]
