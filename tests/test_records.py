"""The record contract: every record type is an immutable named tuple whose
constructors normalize their fields, and importing the package generates no
dataclass code."""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import matchkit
from matchkit import (
    BalanceVerdict,
    BlockingCoalition,
    Coalition,
    DemandType,
    DiscreteMarket,
    DiscreteMatching,
    DiscreteStabilityVerdict,
    DualSolution,
    DynamicsTrace,
    FirmWorkerHypergraph,
    GenParams,
    HyperCycle,
    IntMatrix,
    Prop1Verdict,
    Roadmap,
    SpecializationResult,
    TechnologyPath,
    Theorem3Report,
    TuLpProblem,
    TuMarket,
    TuMatching,
    TuStabilityReport,
    TuVerdict,
)

fs = frozenset


def _cycle():
    return HyperCycle(vertices=("f1", "w1", "f2"), edges=(0, 2, 1))


def _specialization():
    path = TechnologyPath(vertices=("a", "b"), edges=(("a", "b"),))
    return SpecializationResult(specialized=True, firm_paths={"f1": path})


def _tu_verdict():
    return TuVerdict(
        totally_unimodular=False, row_indices=(0, 1), col_indices=(1, 2), determinant=2
    )


def _prop1():
    return Prop1Verdict(guaranteed=False, witness=_cycle())


# One sample of every record type the package exports, built by keyword.
SAMPLES = {
    BalanceVerdict: lambda: BalanceVerdict(balanced=False, witness=_cycle()),
    BlockingCoalition: lambda: BlockingCoalition(firm="f1", workers=fs({"w1"})),
    Coalition: lambda: Coalition(firm="f1", workers=["w1", "w2"]),
    DemandType: lambda: DemandType(
        workers=("w1", "w2"), per_firm={"f1": fs({(1, -1)})}, union=fs({(1, -1)})
    ),
    DiscreteMarket: lambda: DiscreteMarket(
        firms=["f1"],
        workers=["w1"],
        firm_prefs={"f1": [["w1"]]},
        worker_prefs={"w1": ["f1"]},
    ),
    DiscreteMatching: lambda: DiscreteMatching(assignment={"w1": "f1"}),
    DiscreteStabilityVerdict: lambda: DiscreteStabilityVerdict(
        stable=False, blocking=BlockingCoalition("f1", fs({"w1"}))
    ),
    DualSolution: lambda: DualSolution(weights={Coalition("f1", fs({"w1"})): F(1)}, value=F(3)),
    DynamicsTrace: lambda: DynamicsTrace(
        states=(DiscreteMatching({}),), moves=(), outcome="stable", stable_at=0
    ),
    FirmWorkerHypergraph: lambda: FirmWorkerHypergraph(
        vertices=fs({"f1", "w1"}), edges=(("f1", fs({"w1"})),)
    ),
    GenParams: lambda: GenParams(seed=7, firm_count=2, value_range=(1, "5/2")),
    HyperCycle: _cycle,
    IntMatrix: lambda: IntMatrix(rows=("w1",), cols=("(1,)",), entries=((1,),)),
    Prop1Verdict: _prop1,
    Roadmap: lambda: Roadmap(
        technologies=["a", "b"], edges=[["a", "b"]], demanded={"a": ["w1"], "b": ["w2"]}
    ),
    SpecializationResult: _specialization,
    TechnologyPath: lambda: TechnologyPath(vertices=("a",), edges=()),
    Theorem3Report: lambda: Theorem3Report(
        all_specialists=True,
        non_specialists=(),
        specialization=_specialization(),
        balance=BalanceVerdict(balanced=True),
        falsification=False,
    ),
    TuLpProblem: lambda: TuLpProblem(
        agents=("f1", "w1"),
        coalitions=(Coalition("f1", fs()), Coalition("f1", fs({"w1"}))),
        values=(0, 9),
        scale=2,
    ),
    TuMarket: lambda: TuMarket(
        firms=["f1"],
        workers=["w1"],
        firm_valuations={"f1": {("w1",): 4}},
        worker_valuations={"w1": {"f1": "1/2"}},
    ),
    TuMatching: lambda: TuMatching(assignment={"w1": "f1"}, prices={"w1": 2}),
    TuStabilityReport: lambda: TuStabilityReport(
        lp_value=F(4),
        partition_value=F(4),
        stable=True,
        matching=TuMatching({"w1": "f1"}),
        certificate=None,
        optimal_partition={"f1": fs({"w1"})},
        lp_primal={"f1": F(4), "w1": F(0)},
    ),
    TuVerdict: _tu_verdict,
}


def _exported_record_types():
    return {
        obj
        for obj in vars(matchkit).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }


def _hashable(rec) -> bool:
    try:
        hash(rec)
    except TypeError:
        return False
    return True


def test_every_exported_record_type_has_a_sample():
    assert _exported_record_types() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, cls):
        rec = SAMPLES[cls]()
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.not_a_field = None

    def test_equal_fields_mean_equal_records(self, cls):
        a, b = SAMPLES[cls](), SAMPLES[cls]()
        assert a is not b
        assert a == b and not a != b
        assert type(a)(*a) == a
        assert a == tuple(a)
        if _hashable(a):
            assert hash(a) == hash(b) == hash(tuple(a))

    def test_repr_names_the_type_and_fields(self, cls):
        text = repr(SAMPLES[cls]())
        assert text.startswith(cls.__name__ + "(")
        for name in cls._fields:
            assert f"{name}=" in text


def test_coalition_hashes_like_its_field_tuple():
    c = Coalition("f1", ["w2", "w1"])
    assert hash(c) == hash(("f1", fs({"w1", "w2"})))
    assert {c: 1}[Coalition("f1", fs({"w1", "w2"}))] == 1


def test_hypercycle_length_is_its_edge_count():
    assert len(_cycle()) == 3
    assert len(HyperCycle(vertices=("a", "b"), edges=(0, 1))) == 2
    assert len(HyperCycle._fields) == 2


def test_tu_matchings_never_share_a_prices_dict():
    a, b = TuMatching({}), TuMatching({})
    assert a.prices == {} and a.prices is not b.prices
    prices = {"w1": F(2)}
    c = TuMatching({"w1": "f1"}, prices)
    assert c.prices == prices and c.prices is not prices


def test_constructors_normalize_their_fields():
    tu = SAMPLES[TuMarket]()
    assert tu.firms == fs({"f1"}) and type(tu.firms) is frozenset
    assert tu.firm_valuations == {"f1": {fs({"w1"}): F(4)}}
    assert type(tu.firm_valuations["f1"][fs({"w1"})]) is F
    assert tu.worker_valuations["w1"]["f1"] == F(1, 2)

    d = SAMPLES[DiscreteMarket]()
    assert d.firm_prefs == {"f1": (fs({"w1"}),)}
    assert d.worker_prefs == {"w1": ("f1",)}

    assert Coalition("f1", ["w1"]).workers == fs({"w1"})
    mu = TuMatching({"w1": "f1"}, {"w1": "3/2"})
    assert mu.prices["w1"] == F(3, 2) and type(mu.prices["w1"]) is F

    r = SAMPLES[Roadmap]()
    assert r.technologies == fs({"a", "b"})
    assert r.edges == (("a", "b"),)
    assert r.demanded == {"a": fs({"w1"}), "b": fs({"w2"})}

    p = SAMPLES[GenParams]()
    assert p.value_range == (F(1), F(5, 2))
    assert all(type(v) is F for v in p.value_range)
    assert (p.worker_count, p.acceptability_density) == (4, 0.9)


def test_constructors_still_validate():
    with pytest.raises(matchkit.InvalidMarketError):
        TuMarket(firms=["x"], workers=["x"], firm_valuations={}, worker_valuations={})
    with pytest.raises(ValueError):
        Coalition(None, ["w1", "w2"])


def test_importing_the_package_loads_no_dataclasses():
    """Start-up builds no per-class code: ``dataclasses`` (and the
    ``inspect`` it pulls in) stays out of a cold import of the CLI."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import matchkit, matchkit.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(matchkit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "matchkit.cli" in added
    assert "dataclasses" not in added
