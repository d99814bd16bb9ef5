"""Tests of the benchmark itself, on small corpora.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_COUNTS = (
    "model.choice.calls",
    "hypergraph.check_balanced.calls",
    "hypergraph.edges",
    "hypergraph.witnesses",
    "hypergraph.cycle_candidates",
    "simplex.solves",
    "simplex.cells",
    "tu_solver.coalitions",
    "tu_solver.lexmin.solves",
    "discrete_solver.enumerate.leaves",
    "discrete_solver.dynamics.steps",
    "analysis.demand_vectors",
    "analysis.determinants",
    "roadmap.paths",
)
SMALL = {"tu-sweep": 12, "discrete-sweep": 20, "unit-demand": 1}
SEED = 7  # not the default seed


def traced_pass(workload, workdir):
    mk = run.import_matchkit()
    corpus = workloads.build(mk, workload, SEED, workdir, size=SMALL[workload])
    p = run.Pass(mk, corpus.ops, tracing.Tracer(mk), keep_facts=True)
    return mk, corpus, p


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counts_repeat_and_outputs_pass_the_gate(workload, tmp_path):
    counts = []
    for attempt in range(2):
        mk, corpus, p = traced_pass(workload, tmp_path / str(attempt))
        failures, problems, _ = run.judge(mk, corpus.ops, [p])
        assert failures == [] and problems == {}
        metrics = tracing.layer_metrics(p.spans, p.counts)
        counts.append({k: metrics[k] for k in WORK_COUNTS})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_no_simplex_on_discrete_sweep(tmp_path):
    _, _, p = traced_pass("discrete-sweep", tmp_path)
    metrics = tracing.layer_metrics(p.spans, p.counts)
    assert metrics["simplex.solves"] == 0
    assert metrics["analysis.determinants"] > 0


def _tamper_and_judge(workload, check, edit, tmp_path):
    mk = run.import_matchkit()
    corpus = workloads.build(mk, workload, SEED, tmp_path, size=SMALL[workload])
    p = run.Pass(mk, corpus.ops, keep_facts=True)
    facts = [json.loads(t) for t in p.facts]
    i = next(
        i for i, (op, f) in enumerate(zip(corpus.ops, facts)) if op.check == check and edit(f)
    )
    p.facts[i] = gate.canonical(facts[i])
    p.keys[i] = gate.facts_key(p.facts[i])
    failures, problems, _ = run.judge(mk, corpus.ops, [p])
    return i, failures, problems


def test_gate_rejects_a_changed_price(tmp_path):
    def raise_price(facts):
        prices = (facts.get("matching") or {}).get("prices")
        if not prices:
            return False
        w = sorted(prices)[0]
        prices[w] = str(Fraction(prices[w]) + 1)
        return True

    i, failures, problems = _tamper_and_judge("tu-sweep", "solve-tu", raise_price, tmp_path)
    assert list(problems) == [i]
    assert failures == [("solve-tu", "gate")]


def test_gate_rejects_an_unstable_enumerated_matching(tmp_path):
    def drop_worker(facts):
        for m in facts["stable_matchings"]:
            if m:
                del m[sorted(m)[0]]
                return True
        return False

    i, failures, problems = _tamper_and_judge("unit-demand", "enumerate", drop_worker, tmp_path)
    assert list(problems) == [i]


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "tu-sweep", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
