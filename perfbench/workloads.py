"""Benchmark workloads: seeded market files and the CLI operations run on them.

Each workload turns ``--seed`` into a corpus of market files and an ordered
list of operations, one ``matchkit`` CLI invocation each.  The program and
the correctness gate see only the written files.  Sizes are fixed so that a
30-second run on a 2-core machine holds three passes over a workload's
operation list, or seven on ``unit-demand``, whose passes are short.

Why each workload exists:

- ``tu-sweep``: random TU markets at the acceptance-suite parameters, with
  their Theorem-3 TU roadmap instances.  The lexicographic price LP
  dominates; cycle search and the partition oracle return early.
- ``discrete-sweep``: random discrete markets at the same parameters plus
  their Theorem-3 discrete roadmap instances.  No LP runs; the
  total-unimodularity test dominates, and many cheap operations make CLI, io
  and validation overhead visible in the per-operation latency.
- ``unit-demand``: complete assignment games and complete marriage markets,
  where the exhaustive searches (cycle search, partition oracle,
  stable-matching enumeration) do most of their work.  Its traced run adds a
  ``balance`` probe on a shape that exhausts the default work budget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(Fraction(0), Fraction(10)),
    acceptability_density=0.85,
)

TU_SEEDS = 120
# LP column count (1 standing for <= 1, 8 for >= 8) -> share of the markets
# of a run: the histogram of acceptance seeds 0..349.
TU_LP_MIX = {1: 20, 2: 56, 3: 61, 4: 65, 5: 49, 6: 46, 7: 32, 8: 21}
# Generator seeds available to one benchmark seed: seed * STREAM + j.
STREAM = 100_000
DISCRETE_SEEDS = 450
UNIT_VALUE_SEEDS = 2
# (command, firms, workers, extra value draws) on complete markets.  The
# extra 5x7 and 6x6 draws put the median and the 90th latency percentile
# inside those clusters, whose work does not depend on the drawn values,
# rather than on a gap between clusters.
UNIT_SHAPES = (
    ("balance", 5, 5, 0),
    ("balance", 5, 6, 0),
    ("solve-tu", 3, 5, 0),
    ("solve-tu", 4, 4, 0),
    ("enumerate", 5, 6, 0),
    ("enumerate", 5, 7, 1),
    ("enumerate", 6, 6, 1),
)
# balance on this complete assignment game exhausts the default budget.
BUDGET_PROBE = (6, 8)

WORKLOADS = ("tu-sweep", "discrete-sweep", "unit-demand")


@dataclass
class Op:
    """One CLI invocation.  ``check`` names the gate rule for its output;
    ``instance`` groups the operations run on one market, whose file is
    ``market_path``."""

    check: str
    argv: list[str]
    instance: str
    market_path: str

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Corpus:
    ops: list[Op]
    generator_s: float
    probe: Op | None = None
    files: int = 0
    # Time in the file system calls that write the files (serialization not
    # included).
    write_s: float = 0.0


class _Writer:
    def __init__(self, mk, workdir: Path):
        self.mk = mk
        self.workdir = workdir
        self.files = 0
        self.write_s = 0.0
        workdir.mkdir(parents=True, exist_ok=True)

    def market(self, name: str, market) -> str:
        return self._write(name, self.mk.io.serialize_market(market))

    def roadmap(self, name: str, roadmap) -> str:
        return self._write(name, self.mk.io.serialize_roadmap(roadmap))

    def _write(self, name: str, data) -> str:
        path = self.workdir / f"{name}.json"
        text = self.mk.io.to_canonical_json(data)
        t0 = time.perf_counter()
        path.write_text(text, encoding="utf-8")
        self.write_s += time.perf_counter() - t0
        self.files += 1
        return str(path)


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


def build(mk, workload: str, seed: int, workdir: Path, size: int | None = None) -> Corpus:
    """Generate the workload's files under ``workdir`` and its operation
    list.  ``size`` overrides the seed count (value-seed count for
    unit-demand); the benchmark's tests use it to build small corpora."""
    writer = _Writer(mk, workdir)
    if workload == "tu-sweep":
        corpus = _tu_sweep(mk, writer, seed, size or TU_SEEDS)
    elif workload == "discrete-sweep":
        corpus = _discrete_sweep(mk, writer, seed, size or DISCRETE_SEEDS)
    elif workload == "unit-demand":
        corpus = _unit_demand(mk, writer, seed, size or UNIT_VALUE_SEEDS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    corpus.files = writer.files
    corpus.write_s = writer.write_s
    return corpus


def _tu_sweep(mk, writer: _Writer, seed: int, count: int) -> Corpus:
    """Markets from the seed's own stream of generator seeds, kept until each
    LP size (column count) has its share of ``TU_LP_MIX``: the LP size
    explains most of a market's solve time, so fixing the mix keeps runs
    comparable while the seed picks the markets.  Balanced and unbalanced
    markets are kept alike.  Each kept seed's Theorem-3 TU roadmap instance,
    when the generator makes one, runs ``roadmap``."""
    gen = mk.generator
    total = sum(TU_LP_MIX.values())
    quota = {k: round(n * count / total) for k, n in TU_LP_MIX.items()}
    ops = []
    gen_s = 0.0
    for j in range(STREAM):
        if not any(quota.values()):
            break
        market_seed = seed * STREAM + j
        params = gen.GenParams(seed=market_seed, **SUITE_PARAMS)
        t0 = time.perf_counter()
        market = gen.gen_tu_market(params)
        gen_s += time.perf_counter() - t0
        # Firm coalitions: the columns of the market's stability LP.
        columns = sum(not c.is_singleton for c in mk.tu_solver.potential_coalitions(market))
        k = min(max(columns, 1), 8)
        if not quota.get(k):
            continue
        quota[k] -= 1
        t0 = time.perf_counter()
        try:
            roadmap, rm_market = gen.gen_roadmap_instance(params, kind="tu")
        except ValueError:  # no disjoint firm paths for this seed
            roadmap = None
        gen_s += time.perf_counter() - t0
        name = f"tu-{market_seed}"
        path = writer.market(name, market)
        ops.append(Op("balance", _json("balance", path), name, path))
        ops.append(Op("solve-tu", _json("solve-tu", path, "--emit", "lp"), name, path))
        if roadmap is not None:
            ops.append(_roadmap_op(writer, f"rm-{market_seed}", roadmap, rm_market))
    else:
        raise RuntimeError(f"seed {seed}: LP-size mix not filled from {STREAM} markets")
    return Corpus(ops=ops, generator_s=gen_s)


def _roadmap_op(writer: _Writer, name: str, roadmap, market) -> Op:
    rm_path = writer.roadmap(name, roadmap)
    market_path = writer.market(f"{name}-market", market)
    return Op("roadmap", _json("roadmap", rm_path, market_path), name, market_path)


def _discrete_sweep(mk, writer: _Writer, seed: int, count: int) -> Corpus:
    gen = mk.generator
    ops = []
    gen_s = 0.0
    for i in range(count):
        market_seed = seed * STREAM + i
        params = gen.GenParams(seed=market_seed, **SUITE_PARAMS)
        t0 = time.perf_counter()
        market = gen.gen_discrete_market(params)
        try:
            roadmap, rm_market = gen.gen_roadmap_instance(params, kind="discrete")
        except ValueError:  # no disjoint firm paths for this seed
            roadmap = None
        gen_s += time.perf_counter() - t0
        name = f"d-{market_seed}"
        path = writer.market(name, market)
        ops.append(Op("balance", _json("balance", path), name, path))
        ops.append(Op("enumerate", _json("solve-discrete", path, "--all"), name, path))
        ops.append(Op("dynamics", _json("solve-discrete", path, "--dynamics"), name, path))
        ops.append(Op("analyze", _json("analyze", path), name, path))
        if roadmap is not None:
            ops.append(_roadmap_op(writer, f"rm-{market_seed}", roadmap, rm_market))
    return Corpus(ops=ops, generator_s=gen_s)


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 80), 8)


def assignment_game(mk, rng: random.Random, n_firms: int, n_workers: int):
    """Complete assignment game: every firm values every single worker and
    every worker values every firm."""
    firms = _names("f", n_firms)
    workers = _names("w", n_workers)
    return mk.model.TuMarket(
        firms=frozenset(firms),
        workers=frozenset(workers),
        firm_valuations={f: {frozenset([w]): _value(rng) for w in workers} for f in firms},
        worker_valuations={w: {f: _value(rng) for f in firms} for w in workers},
    )


def marriage_market(mk, rng: random.Random, n_firms: int, n_workers: int):
    """Complete marriage market: strict random rankings over all single
    workers and all firms."""
    firms = _names("f", n_firms)
    workers = _names("w", n_workers)
    firm_prefs = {}
    for f in firms:
        sets = [frozenset([w]) for w in workers]
        rng.shuffle(sets)
        firm_prefs[f] = tuple(sets)
    worker_prefs = {}
    for w in workers:
        ranked = list(firms)
        rng.shuffle(ranked)
        worker_prefs[w] = tuple(ranked)
    return mk.model.DiscreteMarket(
        firms=frozenset(firms),
        workers=frozenset(workers),
        firm_prefs=firm_prefs,
        worker_prefs=worker_prefs,
    )


def _unit_demand(mk, writer: _Writer, seed: int, value_seeds: int) -> Corpus:
    ops = []
    for command, n_firms, n_workers, extra in UNIT_SHAPES:
        make = marriage_market if command == "enumerate" else assignment_game
        for r in range(value_seeds + extra):
            name = f"{command}-{n_firms}x{n_workers}-{r}"
            market = make(mk, random.Random(f"unit-demand:{seed}:{name}"), n_firms, n_workers)
            path = writer.market(name, market)
            argv = ["solve-discrete", path, "--all"] if command == "enumerate" else [command, path]
            ops.append(Op(command, _json(*argv), name, path))
    name = "probe-{}x{}".format(*BUDGET_PROBE)
    market = assignment_game(mk, random.Random(f"unit-demand:{seed}:{name}"), *BUDGET_PROBE)
    path = writer.market(name, market)
    probe = Op("balance", _json("balance", path), name, path)
    return Corpus(ops=ops, generator_s=0.0, probe=probe)
