"""Command-line front end.

Subcommands: balance, solve-tu, solve-discrete, analyze, roadmap, gen.
Exit codes are the process-level contract: 0 = positive verdict, 1 =
negative verdict, 2 = input/guard error, 3 = work budget exhausted, 4 = a
result failed its own certificate (an internal fault).  Both
output renderings (human default, ``--format json``) are produced from one
fact dictionary, so they always carry identical content.  The environment
variable MATCHKIT_BUDGET overrides the default work budget of the exhaustive
searches when no ``--budget`` flag is given; it is read on every ``main``
call, while the argument parser is built once per process.  A budget that
is not an integer, and a negative budget or ``--max-steps``, exit 2.

Each input is checked once, where it enters: ``io.load_market`` builds the
market, and the market constructors reject an invalid one with every
violation in one ``InvalidMarketError`` (exit 2), before any kind check.
``roadmap.theorem3_report`` checks the roadmap against the market the same
way.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import analysis, discrete_solver, generator, hypergraph, io, roadmap, tu_solver
from .errors import (
    CertificateError,
    InvalidMarketError,
    MarketFormatError,
    MatchkitError,
    SizeGuardExceeded,
    WorkBudgetExceeded,
)
from .model import DiscreteMarket, DiscreteMatching, TuMarket, tu_utilities
# Not called here; kept as a module attribute that perfbench/tracing.py wraps.
from .model import validate_market  # noqa: F401

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _render_human(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_human(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


def emit_report(args, command: str, inputs: dict[str, str], facts: dict, t0: float):
    report = {
        "command": command,
        "inputs": inputs,
        "facts": facts,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_human(report)))


def _frac(v: Fraction) -> str:
    return str(v)


def _cycle_facts(h, c) -> dict:
    return {
        "length": len(c),
        "vertices": list(c.vertices),
        "edges": list(c.edges),
        "edge_members": [sorted(h.edge_members(i)) for i in c.edges],
    }


def _matrix_facts(m) -> dict:
    return {
        "rows": list(m.rows),
        "cols": list(m.cols),
        "entries": [list(r) for r in m.entries],
    }


def cmd_balance(args) -> int:
    t0 = time.perf_counter()
    market = io.load_market(args.market)
    if args.kind and market.kind != args.kind:
        raise MarketFormatError(
            f"file holds a {market.kind} market but --kind {args.kind} was given"
        )
    h = hypergraph.build_hypergraph(market)
    verdict = hypergraph.check_balanced(h, budget=args.budget)
    facts = {
        "kind": market.kind,
        "edge_count": len(h.edges),
        "balanced": verdict.balanced,
        "witness": _cycle_facts(h, verdict.witness) if verdict.witness else None,
    }
    emit_report(args, "balance", {args.market: _digest(args.market)}, facts, t0)
    return EXIT_OK if verdict.balanced else EXIT_NEGATIVE


def _dual_facts(dual) -> dict:
    return {
        "value": _frac(dual.value),
        "weights": [
            {"coalition": sorted(c.members()), "weight": _frac(w)}
            for c, w in sorted(
                dual.weights.items(), key=lambda kv: sorted(kv[0].members())
            )
        ],
    }


def cmd_solve_tu(args) -> int:
    t0 = time.perf_counter()
    market = io.load_market(args.market)
    if not isinstance(market, TuMarket):
        raise MarketFormatError("solve-tu needs a TU market file")
    report = tu_solver.find_stable_matching_tu(market, budget=args.budget)
    facts = {
        "stable": report.stable,
        "lp_value": _frac(report.lp_value),
        "partition_value": _frac(report.partition_value),
    }
    if report.stable and args.emit in ("matching", "lp"):
        facts["matching"] = io.serialize_matching(report.matching)
        facts["utilities"] = {
            a: _frac(v)
            for a, v in sorted(tu_utilities(market, report.matching).items())
        }
    if not report.stable or args.emit in ("certificate", "lp"):
        facts["certificate"] = _dual_facts(report.certificate)
    if args.emit == "lp":
        facts["lp_primal"] = {
            a: _frac(v) for a, v in sorted(report.lp_primal.items())
        }
    emit_report(args, "solve-tu", {args.market: _digest(args.market)}, facts, t0)
    return EXIT_OK if report.stable else EXIT_NEGATIVE


def cmd_solve_discrete(args) -> int:
    t0 = time.perf_counter()
    market = io.load_market(args.market)
    if not isinstance(market, DiscreteMarket):
        raise MarketFormatError("solve-discrete needs a discrete market file")
    inputs = {args.market: _digest(args.market)}
    if args.dynamics:
        if args.start:
            start = io.parse_matching(io.load_json(args.start), "discrete")
            inputs[args.start] = _digest(args.start)
            unknown = [
                (w, f)
                for w, f in start.assignment.items()
                if w not in market.workers or f not in market.firms
            ]
            if unknown:
                raise MarketFormatError(f"start matching names unknown agents: {unknown}")
        else:
            start = DiscreteMatching(assignment={})
        trace = discrete_solver.run_blocking_dynamics(
            market, start, max_steps=args.max_steps
        )
        facts = {
            "outcome": trace.outcome,
            "stable_at": trace.stable_at,
            "revisit": list(trace.revisit) if trace.revisit else None,
            "states": [dict(sorted(s.assignment.items())) for s in trace.states],
            "moves": [
                {
                    "kind": mv.kind,
                    "worker": mv.worker,
                    "firm": mv.firm,
                    "workers": sorted(mv.workers) if mv.workers is not None else None,
                }
                for mv in trace.moves
            ],
        }
        emit_report(args, "solve-discrete", inputs, facts, t0)
        return EXIT_OK if trace.outcome == "stable" else EXIT_NEGATIVE
    limit = 1 if args.first else None
    matchings = discrete_solver.enumerate_stable_matchings(
        market, limit=limit, budget=args.budget
    )
    facts = {
        "stable_count": len(matchings),
        "stable_matchings": [dict(sorted(mu.assignment.items())) for mu in matchings],
        "complete": limit is None,
    }
    emit_report(args, "solve-discrete", inputs, facts, t0)
    return EXIT_OK if matchings else EXIT_NEGATIVE


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    market = io.load_market(args.market)
    if not isinstance(market, DiscreteMarket):
        raise MarketFormatError("analyze needs a discrete market file")
    run_all = not (args.prop1 or args.demand_type or args.tu_check or args.certificate)
    facts: dict = {}
    h = hypergraph.build_hypergraph(market)
    prop1_verdict = None
    if run_all or args.prop1 or args.certificate:
        prop1_verdict = analysis.prop1_check(market, budget=args.budget)
    if run_all or args.prop1:
        facts["prop1"] = {
            "guaranteed": prop1_verdict.guaranteed,
            "witness": _cycle_facts(h, prop1_verdict.witness)
            if prop1_verdict.witness
            else None,
        }
    if run_all or args.demand_type or args.tu_check:
        dt = analysis.demand_type(market)
        if run_all or args.demand_type:
            facts["demand_type"] = {
                "workers": list(dt.workers),
                "vectors": [list(v) for v in sorted(dt.union)],
                "per_firm": {
                    f: [list(v) for v in sorted(vs)]
                    for f, vs in sorted(dt.per_firm.items())
                },
            }
        if run_all or args.tu_check:
            verdict = analysis.is_totally_unimodular(dt.matrix(), budget=args.budget)
            facts["tu_check"] = {
                "totally_unimodular": verdict.totally_unimodular,
                "rows": list(verdict.row_indices) if verdict.row_indices else None,
                "cols": list(verdict.col_indices) if verdict.col_indices else None,
                "determinant": verdict.determinant,
            }
    if run_all or args.certificate:
        if prop1_verdict.witness is not None:
            cert = analysis.tu_cycle_certificate(market, prop1_verdict.witness)
            facts["certificate"] = _matrix_facts(cert)
        else:
            facts["certificate"] = None
    emit_report(args, "analyze", {args.market: _digest(args.market)}, facts, t0)
    return EXIT_OK


def cmd_roadmap(args) -> int:
    t0 = time.perf_counter()
    market = io.load_market(args.market)
    rm = io.load_roadmap(args.roadmap)
    report = roadmap.theorem3_report(market, rm, budget=args.budget)
    h = hypergraph.build_hypergraph(market)
    facts = {
        "specialists": report.all_specialists,
        "non_specialists": list(report.non_specialists),
        "specialized": report.specialization.specialized,
        "firm_paths": {
            f: list(p.vertices)
            for f, p in sorted((report.specialization.firm_paths or {}).items())
        }
        if report.specialization.specialized
        else None,
        "reason": report.specialization.reason,
        "balanced": report.balance.balanced,
        "witness": _cycle_facts(h, report.balance.witness)
        if report.balance.witness
        else None,
        "falsification": report.falsification,
    }
    emit_report(
        args,
        "roadmap",
        {args.roadmap: _digest(args.roadmap), args.market: _digest(args.market)},
        facts,
        t0,
    )
    return EXIT_OK if report.all_hold else EXIT_NEGATIVE


def cmd_gen(args) -> int:
    try:
        params = generator.GenParams(
            seed=args.seed,
            firm_count=args.firms,
            worker_count=args.workers,
            max_acceptable_sets_per_firm=args.max_sets,
            max_set_size=args.max_set_size,
            value_range=(Fraction(args.value_min), Fraction(args.value_max)),
            acceptability_density=args.density,
        )
        if args.kind == "tu":
            market = generator.gen_tu_market(params)
        elif args.kind == "discrete":
            market = generator.gen_discrete_market(params)
        else:
            if not args.roadmap_out:
                raise ValueError("gen roadmap needs --roadmap-out")
            rm, market = generator.gen_roadmap_instance(params, kind=args.market_kind)
            io.write_json(args.roadmap_out, io.serialize_roadmap(rm))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    io.write_json(args.out, io.serialize_market(market))
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchkit",
        description="Stable matchings in many-to-one markets via hypergraph balancedness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        # None: main reads MATCHKIT_BUDGET on each call.
        p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("balance", help="decide hypergraph balancedness")
    p.add_argument("market")
    p.add_argument("--kind", choices=("tu", "discrete"))
    common(p)

    p = sub.add_parser("solve-tu", help="decide TU stability via LP duality")
    p.add_argument("market")
    p.add_argument("--emit", choices=("matching", "certificate", "lp"), default="matching")
    common(p)

    p = sub.add_parser("solve-discrete", help="enumerate stable matchings / run dynamics")
    p.add_argument("market")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", default=True)
    group.add_argument("--first", action="store_true")
    p.add_argument("--dynamics", action="store_true")
    p.add_argument("--start")
    p.add_argument("--max-steps", type=int, default=1000)
    common(p)

    p = sub.add_parser("analyze", help="cycle condition, demand types, unimodularity")
    p.add_argument("market")
    p.add_argument("--prop1", action="store_true")
    p.add_argument("--demand-type", dest="demand_type", action="store_true")
    p.add_argument("--tu-check", dest="tu_check", action="store_true")
    p.add_argument("--certificate", action="store_true")
    common(p)

    p = sub.add_parser("roadmap", help="specialists / specialized / balanced")
    p.add_argument("roadmap")
    p.add_argument("market")
    common(p)

    p = sub.add_parser("gen", help="generate seeded instances")
    p.add_argument("kind", choices=("tu", "discrete", "roadmap"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--firms", type=int, default=3)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--max-sets", type=int, default=3)
    p.add_argument("--max-set-size", type=int, default=2)
    p.add_argument("--value-min", default="0")
    p.add_argument("--value-max", default="10")
    p.add_argument("--density", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.add_argument("--roadmap-out")
    p.add_argument("--market-kind", choices=("tu", "discrete"), default="discrete")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    limits = {}
    if hasattr(args, "budget"):
        if args.budget is None:
            raw = os.environ.get("MATCHKIT_BUDGET", str(hypergraph.DEFAULT_BUDGET))
            try:
                args.budget = int(raw)
            except ValueError:
                print(f"error: MATCHKIT_BUDGET must be an integer, got {raw!r}", file=sys.stderr)
                return EXIT_INPUT
            limits["MATCHKIT_BUDGET"] = args.budget
        else:
            limits["--budget"] = args.budget
    if hasattr(args, "max_steps"):
        limits["--max-steps"] = args.max_steps
    for name, value in limits.items():
        if value < 0:
            print(f"error: {name} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_INPUT
    # The handler is looked up by name on each call, not bound in the cached
    # parser, so a wrapper later installed on a cmd_* attribute still runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except WorkBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (MarketFormatError, InvalidMarketError, SizeGuardExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except MatchkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
