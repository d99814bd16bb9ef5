#!/usr/bin/env python3
"""matchkit benchmark: end-to-end CLI timings and per-layer traces.

Usage, from the repository root:

    python3 perfbench/run.py --workload tu-sweep --seed 0 --seconds 30 --trace 0

One set-up imports matchkit, generates the workload's markets from
``--seed``, serializes them and writes them to files; the set-up time leaves
out the file system calls, whose speed is the host's, not matchkit's.  The run then makes passes over the
workload's whole operation list, one ``matchkit.cli.main(argv)`` call per
operation with stdout captured: at least three passes (and untraced, 100
operations), and more while another pass fits in ``--seconds``.  After each pass it sets
up again a few times, timed only, and reports the median set-up time.
Everything runs in this one process: no threads, no subprocesses.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of the traced
passes, plus the tracing overhead; on ``unit-demand`` it also runs the
budget probe once, traced.

Every output is checked by the correctness gate (gate.py); for the default
seed the digest of all reports' facts must also match the recorded one in
expected_digests.json.  The last stdout line is the result object; the line
before it records the run environment and the failure breakdown.  The exit
code is 1 when the gate finds a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "expected_digests.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_LATENCY_SAMPLES = 100
# Set-up rounds between two passes: at least two, at most eight, and no
# more once they have taken this long.
SETUP_GAP_S = 1.5
SETUP_MAX_PER_GAP = 8
MODULES = (
    "analysis",
    "cli",
    "discrete_solver",
    "generator",
    "hypergraph",
    "io",
    "model",
    "roadmap",
    "simplex",
    "tu_solver",
)


class Matchkit:
    """The package's modules, as imported by one set-up round."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"matchkit.{name}"))


def matchkit_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "matchkit" or n.startswith("matchkit.")}


def import_matchkit() -> Matchkit:
    """A fresh import of the package: set-up time includes import time."""
    for name in matchkit_modules():
        del sys.modules[name]
    return Matchkit()


class SetUp:
    """Timed set-up rounds.  The first builds the package and the corpus
    that the passes use.  ``again`` repeats the set-up in a spare directory,
    timed only, between passes: the median then samples the host's speed
    over the whole run rather than at its start.  A round's time leaves out
    the file writes, kept apart in ``write_s``: on a shared file system the
    writes of one ``discrete-sweep`` corpus took from 0.48 to 0.76 s from
    round to round."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.spare = workdir / "spare"
        self.seconds: list[float] = []
        self.generator_s: list[float] = []
        self.write_s: list[float] = []
        self.mk, self.corpus = self._round(workdir)

    def _round(self, workdir: Path):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        mk = import_matchkit()
        corpus = workloads.build(mk, self.workload, self.seed, workdir)
        self.seconds.append(perf_counter() - t0 - corpus.write_s)
        self.generator_s.append(corpus.generator_s)
        self.write_s.append(corpus.write_s)
        return mk, corpus

    def again(self) -> None:
        """More rounds, as many as ``SETUP_GAP_S`` and ``SETUP_MAX_PER_GAP``
        allow.  The first round's modules are put back in ``sys.modules``
        afterwards."""
        used = matchkit_modules()
        start = perf_counter()
        for k in range(SETUP_MAX_PER_GAP):
            self._round(self.spare)
            if k >= 1 and perf_counter() - start >= SETUP_GAP_S:
                break
        for name in matchkit_modules():
            del sys.modules[name]
        sys.modules.update(used)
        # The discarded packages are reference cycles: free them now, so
        # that the peak memory does not depend on when the collector runs.
        gc.collect()


class Pass:
    """Exit codes and latencies of one pass over a list of operations, and
    per operation the hash of its report's facts (None without a report).
    With ``keep_facts`` the pass also keeps each report's canonical facts
    text, for the gate; no pass keeps the raw output.  ``wall_s`` leaves out
    the time spent reducing outputs to facts."""

    def __init__(self, mk, ops, tracer: tracing.Tracer | None = None, keep_facts=False):
        self.rcs: list[int | None] = []
        self.latency_s: list[float] = []
        self.keys: list[str | None] = []
        self.facts: list[str | None] | None = [] if keep_facts else None
        self.crashes: dict[int, str] = {}
        if tracer is not None:
            tracer.reset()
            tracer.install()
        harness_s = 0.0
        start = perf_counter()
        try:
            for i, op in enumerate(ops):
                harness_s += self._run(mk, i, op, tracer)
        finally:
            self.wall_s = perf_counter() - start - harness_s
            if tracer is not None:
                tracer.uninstall()
                self.spans = tracer.spans
                self.counts = tracer.counts

    def _run(self, mk, i, op, tracer) -> float:
        """Run one operation; return the time spent after it on its output."""
        out, err = io.StringIO(), io.StringIO()
        sid = tracer.begin_op(i) if tracer is not None else None
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = mk.cli.main(op.argv)
            except (Exception, SystemExit):
                # An exception escaping the CLI (argparse exits too) is a
                # failed operation, not the end of the run.
                traceback.print_exc()
                rc = None
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(sid, t0, t1)
        self.rcs.append(rc)
        self.latency_s.append(t1 - t0)
        text = _facts_text(rc, out.getvalue())
        self.keys.append(gate.facts_key(text) if text is not None else None)
        if self.facts is not None:
            self.facts.append(text)
        if rc is None:
            self.crashes[i] = "".join(err.getvalue().strip().splitlines()[-1:])
        return perf_counter() - t1


def _facts_text(rc: int | None, stdout: str) -> str | None:
    """The canonical facts text of an operation that gave a verdict; None
    where there is none or its report does not parse."""
    if rc not in (0, 1):
        return None
    try:
        return gate.canonical(json.loads(stdout)["facts"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def run_passes(mk, ops, seconds: float, tracer: tracing.Tracer | None, setups: SetUp):
    """At least ``MIN_PASSES`` whole passes, more while the next round fits
    in ``seconds``; untraced, also at least ``MIN_LATENCY_SAMPLES``
    operations, for the latency percentiles.  A round is an untraced pass,
    with a tracer a traced one, then more set-ups.  The first pass keeps its
    facts for the gate."""
    min_passes = MIN_PASSES
    if tracer is None:
        min_passes = max(MIN_PASSES, math.ceil(MIN_LATENCY_SAMPLES / len(ops)))
    plain, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(Pass(mk, ops, keep_facts=not plain))
        if tracer is not None:
            traced.append(Pass(mk, ops, tracer))
        setups.again()
        round_s = perf_counter() - t0
        if len(plain) >= min_passes and perf_counter() - start + round_s > seconds:
            return plain, traced


def judge(mk, ops, passes: list[Pass]):
    """Gate the first pass fully; later passes must repeat its facts.

    Returns every failed occurrence as (command, reason), where the reason is
    ``exit 2``/``exit 3`` (refused), ``crash`` or ``gate`` (wrong output); the
    gate's findings per operation; and the first pass's facts keys.
    """
    first = passes[0]
    checker = gate.Gate(mk)
    first_found = [
        checker.check(op, rc, json.loads(text) if text is not None else None)
        for op, rc, text in zip(ops, first.rcs, first.facts)
    ]
    first_keys = first.keys
    failures: list[tuple[str, str]] = []
    problems: dict[int, list[str]] = {}
    for p in passes:
        for i, (op, rc, key) in enumerate(zip(ops, p.rcs, p.keys)):
            if key == first_keys[i]:
                found = first_found[i]
            else:
                found = [f"output differs from the first pass (exit {rc})"]
            if not found:
                continue
            reason = f"exit {rc}" if rc in (2, 3) else ("crash" if rc is None else "gate")
            failures.append((op.command, reason))
            if reason == "crash":
                found = found + [p.crashes[i]]
            if reason in ("crash", "gate"):
                problems.setdefault(i, found)
    return failures, problems, first_keys


def environment(mk, workload: str, seed: int, load_at_start) -> dict:
    guard = mk.model.DEFAULT_GUARD
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_average_at_start": load_at_start,
        "budget": int(os.environ.get("MATCHKIT_BUDGET", mk.hypergraph.DEFAULT_BUDGET)),
        "size_guard": {
            "max_firms": guard.max_firms,
            "max_workers": guard.max_workers,
            "max_coalitions": guard.max_coalitions,
            "max_tu_dim": mk.analysis.MAX_TU_DIM,
        },
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(plain: list[Pass], setup_s: list[float], peak_rss_mb: float) -> dict:
    """``wall_s`` is the mean pass time: the host switches between faster
    and slower spells lasting seconds, and the mean weighs them by time
    where a median would snap to one of them.  The latency percentiles pool
    every pass's samples."""
    latencies_ms = [t * 1000.0 for p in plain for t in p.latency_s]
    return {
        "wall_s": (statistics.fmean(p.wall_s for p in plain), "s"),
        "op_ms_p50": (statistics.median(latencies_ms), "ms"),
        "op_ms_p90": (percentile(latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(plain, traced, probe, setups: SetUp, failed_frac) -> dict:
    """Median over traced passes of each layer figure (work counts are
    identical across passes).  The budget probe adds only its refusals and
    its own latency, so the pass figures stay comparable across workloads."""
    per_pass = [tracing.layer_metrics(p.spans, p.counts) for p in traced]
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    exits = Counter(rc for p in traced for rc in p.rcs)
    layers["cli.exit2"] = exits[2] / len(traced)
    layers["cli.exit3"] = exits[3] / len(traced)
    layers["probe.balance.s"] = 0.0
    if probe is not None:
        extra = tracing.layer_metrics(probe.spans, probe.counts)
        for k in ("hypergraph.budget_exits", "analysis.guard_refusals"):
            layers[k] += extra[k]
        layers["cli.exit2"] += probe.rcs.count(2)
        layers["cli.exit3"] += probe.rcs.count(3)
        layers["probe.balance.s"] = probe.latency_s[0]
    layers["generator.s"] = statistics.median(setups.generator_s)
    layers["setup.write_s"] = statistics.median(setups.write_s)
    layers["trace.overhead_frac"] = (
        statistics.fmean(p.wall_s for p in traced) / statistics.fmean(p.wall_s for p in plain) - 1.0
    )
    layers["failed_frac"] = failed_frac
    units = {}
    for k in layers:
        if k.endswith(".s") or k.endswith("_s"):
            units[k] = "s"
        elif k.endswith("_frac") or k.endswith("_ratio"):
            units[k] = "fraction"
        else:
            units[k] = "count"
    return {k: (layers[k], units[k]) for k in layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchkit" / "cli.py").is_file():
        print(f"error: matchkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = list(os.getloadavg())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups = SetUp(args.workload, args.seed, workdir)
        mk, corpus = setups.mk, setups.corpus
        ops = corpus.ops
        tracer = tracing.Tracer(mk) if args.trace else None
        plain, traced = run_passes(mk, ops, args.seconds, tracer, setups)
        # The high-water mark before the gate holds the markets and reports.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = None
        if tracer is not None and corpus.probe is not None:
            probe = Pass(mk, [corpus.probe], tracer, keep_facts=True)

        passes = plain + traced
        failures, problems, first_keys = judge(mk, ops, passes)
        mismatches = [
            f"{ops[i].instance} {ops[i].command}: {'; '.join(found)}"
            for i, found in problems.items()
        ]
        if probe is not None:
            text = probe.facts[0]
            facts = json.loads(text) if text is not None else None
            found = gate.Gate(mk).check_probe(corpus.probe, probe.rcs[0], facts)
            mismatches += [f"budget probe: {p}" for p in found]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    failed_frac = len(failures) / attempted
    digest = gate.digest([key or "" for key in first_keys])
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
        if digest != expected:
            mismatches.append(f"facts digest {digest} differs from the recorded {expected}")

    if tracer is not None:
        tracing.write_spans(traced[-1].spans, WORK / f"{args.workload}.spans.jsonl")
        metrics = per_layer(plain, traced, probe, setups, failed_frac)
    else:
        metrics = end_to_end(plain, setups.seconds, peak_rss_mb)

    details = {
        "environment": environment(mk, args.workload, args.seed, load_at_start),
        "ops_per_pass": len(ops),
        "files": corpus.files,
        "pass_wall_s": {
            "untraced": [p.wall_s for p in plain],
            "traced": [p.wall_s for p in traced],
        },
        "latency_samples": sum(len(p.latency_s) for p in plain),
        "setup_s": setups.seconds,
        "setup_write_s": setups.write_s,
        "facts_digest": digest,
        "failed_frac": failed_frac,
        "failed_by_command": dict(Counter(c for c, _ in failures)),
        "failed_by_reason": dict(Counter(r for _, r in failures)),
        "mismatches": mismatches[:20],
    }
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
