"""Spans and work counts recorded around matchkit's layer boundaries.

Nothing in the package is edited: ``Tracer.install`` replaces the module
attributes that callers look up (``cli`` calls ``hypergraph.build_hypergraph``
through the module, ``analysis`` holds its own imported name, and so on)
with wrappers, and ``uninstall`` puts the originals back.  A span records
name, start, end, parent span and the operation it belongs to; spans stay in
memory until the run writes them out.  Hot, tiny functions (``choice``,
``bareiss_determinant``, ``is_nontrivial_odd``) get call counters instead of
spans to keep the tracing overhead down.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  The same function appears once per module
# that looks it up under its own name.
SPANS = (
    ("cli", "cmd_balance", "cli.balance"),
    ("cli", "cmd_solve_tu", "cli.solve-tu"),
    ("cli", "cmd_solve_discrete", "cli.solve-discrete"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_roadmap", "cli.roadmap"),
    ("io", "load_market", "io.load_market"),
    ("cli", "validate_market", "model.validate_market"),
    ("model", "validate_market", "model.validate_market"),
    ("hypergraph", "build_hypergraph", "hypergraph.build"),
    ("analysis", "build_hypergraph", "hypergraph.build"),
    ("roadmap", "build_hypergraph", "hypergraph.build"),
    ("hypergraph", "check_balanced", "hypergraph.check_balanced"),
    ("roadmap", "check_balanced", "hypergraph.check_balanced"),
    ("tu_solver", "simplex_max", "simplex"),
    ("tu_solver", "build_lp_problem", "tu_solver.build_lp"),
    ("tu_solver", "max_partition_value", "tu_solver.partition"),
    ("tu_solver", "solve_lp", "tu_solver.solve_lp"),
    ("tu_solver", "_lex_min_primal", "tu_solver.lexmin"),
    ("tu_solver", "check_stable_tu", "tu_solver.check_stable"),
    ("discrete_solver", "enumerate_stable_matchings", "discrete_solver.enumerate"),
    ("discrete_solver", "run_blocking_dynamics", "discrete_solver.dynamics"),
    ("analysis", "demand_type", "analysis.demand_type"),
    ("analysis", "is_totally_unimodular", "analysis.tu_test"),
    ("analysis", "prop1_check", "analysis.prop1"),
    ("analysis", "tu_cycle_certificate", "analysis.certificate"),
    ("roadmap", "theorem3_report", "roadmap.theorem3"),
    ("roadmap", "check_specialized", "roadmap.check_specialized"),
)

# (module, attribute, counter name, amount per call or None for 1): counted
# calls, no span.
COUNTERS = (
    ("model", "choice", "model.choice.calls", None),
    ("discrete_solver", "choice", "model.choice.calls", None),
    ("analysis", "choice", "model.choice.calls", None),
    ("hypergraph", "is_nontrivial_odd", "hypergraph.cycle_candidates", None),
    ("analysis", "bareiss_determinant", "analysis.determinants", None),
    ("roadmap", "technology_paths", "roadmap.paths", len),
)

# Work counts read off a wrapped call's arguments and result.
RESULT_COUNTS = {
    "hypergraph.build": lambda args, r: {"hypergraph.edges": len(r.edges)},
    "hypergraph.check_balanced": lambda args, r: {
        "hypergraph.check_balanced.calls": 1,
        "hypergraph.witnesses": int(r.witness is not None),
    },
    "simplex": lambda args, r: {"simplex.cells": len(args[0]) * len(args[1])},
    "tu_solver.build_lp": lambda args, r: {"tu_solver.coalitions": len(r.coalitions)},
    "discrete_solver.dynamics": lambda args, r: {"discrete_solver.dynamics.steps": len(r.moves)},
    "analysis.demand_type": lambda args, r: {"analysis.demand_vectors": len(r.union)},
}

BUDGET_SPANS = ("hypergraph.check_balanced", "analysis.prop1")
GUARD_SPANS = ("analysis.demand_type", "analysis.tu_test", "analysis.prop1")


@dataclass(frozen=True)
class Span:
    op: int
    parent: int  # index into the span list, -1 for an operation's root
    name: str
    start: float
    end: float
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one traced pass at a time."""

    def __init__(self, mk):
        self.mk = mk
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[int, str]] = [(-1, "")]
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(name, getattr(getattr(self.mk, module), attr)))
        for module, attr, name, amount in COUNTERS:
            fn = getattr(getattr(self.mk, module), attr)
            self._patch(module, attr, self._counter(name, fn, amount))
        self._patch(
            "discrete_solver",
            "check_stable_discrete",
            self._leaves(self.mk.discrete_solver.check_stable_discrete),
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = getattr(self.mk, module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def begin_op(self, op: int) -> int:
        """Open the root span of operation ``op``: the ``cli.main`` call."""
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append((sid, "op"))
        return sid

    def end_op(self, sid: int, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[sid] = Span(self.op, -1, "op", start, end)

    def _span(self, name: str, fn):
        tracer = self
        after = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = tracer.stack[-1][0]
            tracer.stack.append((sid, name))
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                error = type(e).__name__
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[sid] = Span(tracer.op, parent, name, start, end, error)
            if after is not None:
                tracer.counts.update(after(args, result))
            return result

        return wrapped

    def _counter(self, name: str, fn, amount):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapped

    def _leaves(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.stack[-1][1] == "discrete_solver.enumerate":
                self.counts["discrete_solver.enumerate.leaves"] += 1
                self.counts["discrete_solver.enumerate.hits"] += int(result.stable)
            return result

        return wrapped


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON line per span; ``id`` is the span's index, ``parent`` the
    index of its parent (-1 for an operation's root span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for sid, s in enumerate(spans):
            out.write(json.dumps({"id": sid, **s.__dict__}) + "\n")


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer busy time (s), self time where a layer wraps others, and
    work counts, summed over the given spans."""
    total: Counter = Counter()
    child_time: Counter = Counter()
    for s in spans:
        total[s.name] += s.seconds
        if s.parent >= 0:
            child_time[s.parent] += s.seconds
    self_time: Counter = Counter()
    lexmin_solves = 0
    budget_exits = 0
    guard_refusals = 0
    for sid, s in enumerate(spans):
        self_time[s.name] += s.seconds - child_time[sid]
        if s.name == "simplex" and s.parent >= 0 and spans[s.parent].name == "tu_solver.lexmin":
            lexmin_solves += 1
        if s.error == "WorkBudgetExceeded" and s.name in BUDGET_SPANS:
            budget_exits += 1
        if s.error == "SizeGuardExceeded" and s.name in GUARD_SPANS:
            guard_refusals += 1
    cli_spans = [name for _, _, name in SPANS[:5]]
    m = {f"{name}.s": total[name] for name in cli_spans}
    m["cli.self_s"] = sum(self_time[name] for name in cli_spans)
    # The operation's root span is the ``cli.main`` call: outside the
    # command it builds the parser and parses the arguments.
    m["cli.parse_s"] = self_time["op"]
    for name in (
        "io.load_market",
        "model.validate_market",
        "hypergraph.build",
        "hypergraph.check_balanced",
        "simplex",
        "tu_solver.build_lp",
        "tu_solver.partition",
        "tu_solver.lexmin",
        "tu_solver.check_stable",
        "discrete_solver.enumerate",
        "discrete_solver.dynamics",
        "analysis.demand_type",
        "analysis.tu_test",
        "analysis.prop1",
        "analysis.certificate",
        "roadmap.theorem3",
        "roadmap.check_specialized",
    ):
        m[f"{name}.s"] = total[name]
    m["tu_solver.solve_lp.self_s"] = self_time["tu_solver.solve_lp"]
    m["simplex.solves"] = sum(1 for s in spans if s.name == "simplex")
    m["tu_solver.lexmin.solves"] = lexmin_solves
    m["hypergraph.budget_exits"] = budget_exits
    m["analysis.guard_refusals"] = guard_refusals
    for key in (
        "model.choice.calls",
        "hypergraph.check_balanced.calls",
        "hypergraph.edges",
        "hypergraph.witnesses",
        "hypergraph.cycle_candidates",
        "simplex.cells",
        "tu_solver.coalitions",
        "discrete_solver.enumerate.leaves",
        "discrete_solver.dynamics.steps",
        "analysis.demand_vectors",
        "analysis.determinants",
        "roadmap.paths",
    ):
        m[key] = counts[key]
    leaves = counts["discrete_solver.enumerate.leaves"]
    m["discrete_solver.enumerate.hit_ratio"] = (
        counts["discrete_solver.enumerate.hits"] / leaves if leaves else 0.0
    )
    return m
