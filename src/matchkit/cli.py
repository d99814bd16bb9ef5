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
is not an integer, a negative budget or ``--max-steps``, ``--start``
without ``--dynamics``, and ``--roadmap-out`` outside ``gen roadmap`` exit 2
before any file is read or written.  A closed stdout exits 2 as well.

Each input is checked once, where it enters: ``io.load_market`` builds the
market, and the market constructors reject an invalid one with every
violation in one ``InvalidMarketError`` (exit 2), before any kind check.
``roadmap.theorem3_report`` checks the roadmap against the market the same
way.

Each input file is read once, by ``io``, which records the SHA-256 of the
bytes parsed in the report's ``inputs``.  ``--format json`` is written by
``io.to_json``, byte for byte what ``json.dumps(report, indent=2)`` gives.

argparse is the one definition of the grammar.  ``build_parser`` also reads
each subcommand's table off argparse's own actions (``_table``).  A command
line whose every word is an exact option string, an option's value that does
not start with ``-``, or a positional is read straight off that table
(``_fast_args``), for the namespace ``parse_args`` would return.  Every other
command line goes to ``parse_args``: help, abbreviations, ``--opt=value``,
``--``, values that start with ``-``, and every error, so usage and error
text are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import analysis, discrete_solver, generator, hypergraph, io, roadmap, tu_solver
from .errors import CertificateError, MarketFormatError, MatchkitError, WorkBudgetExceeded
from .model import DiscreteMarket, DiscreteMatching, TuMarket
# Not called here; kept as a module attribute that perfbench/tracing.py wraps.
from .model import validate_market  # noqa: F401

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


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
    else:
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_human(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
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
        print(io.to_json(report))
    else:
        print("\n".join(_render_human(report)))


def _cycle_facts(h, c) -> dict | None:
    """A witness cycle's facts, read off the hypergraph it was found in."""
    if c is None:
        return None
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
    inputs: dict = {}
    market = io.load_market(args.market, inputs)
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
        "witness": _cycle_facts(h, verdict.witness),
    }
    emit_report(args, "balance", inputs, facts, t0)
    return EXIT_OK if verdict.balanced else EXIT_NEGATIVE


def _dual_facts(dual) -> dict:
    return {
        "value": str(dual.value),
        "weights": [
            {"coalition": sorted(c.members()), "weight": str(w)}
            for c, w in sorted(
                dual.weights.items(), key=lambda kv: sorted(kv[0].members())
            )
        ],
    }


def cmd_solve_tu(args) -> int:
    t0 = time.perf_counter()
    inputs: dict = {}
    market = io.load_market(args.market, inputs)
    if not isinstance(market, TuMarket):
        raise MarketFormatError("solve-tu needs a TU market file")
    report = tu_solver.find_stable_matching_tu(market, budget=args.budget)
    facts = {
        "stable": report.stable,
        "lp_value": str(report.lp_value),
        "partition_value": str(report.partition_value),
    }
    if report.stable and args.emit in ("matching", "lp"):
        facts["matching"] = io.serialize_matching(report.matching)
        facts["utilities"] = {a: str(v) for a, v in sorted(report.utilities.items())}
    if not report.stable or args.emit in ("certificate", "lp"):
        facts["certificate"] = _dual_facts(report.certificate)
    if args.emit == "lp":
        facts["lp_primal"] = {
            a: str(v) for a, v in sorted(report.lp_primal.items())
        }
    emit_report(args, "solve-tu", inputs, facts, t0)
    return EXIT_OK if report.stable else EXIT_NEGATIVE


def cmd_solve_discrete(args) -> int:
    t0 = time.perf_counter()
    inputs: dict = {}
    market = io.load_market(args.market, inputs)
    if not isinstance(market, DiscreteMarket):
        raise MarketFormatError("solve-discrete needs a discrete market file")
    if args.dynamics:
        if args.start is not None:
            # run_blocking_dynamics validates the start against the market.
            start = io.parse_matching(io.load_json(args.start, inputs), "discrete")
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
    inputs: dict = {}
    market = io.load_market(args.market, inputs)
    if not isinstance(market, DiscreteMarket):
        raise MarketFormatError("analyze needs a discrete market file")
    run_all = not (args.prop1 or args.demand_type or args.tu_check or args.certificate)
    facts: dict = {}
    p1 = None
    if run_all or args.prop1 or args.certificate:
        p1 = analysis.prop1_check(market, budget=args.budget)
    if run_all or args.prop1:
        facts["prop1"] = {
            "guaranteed": p1.guaranteed,
            "witness": _cycle_facts(p1.hypergraph, p1.witness),
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
        if p1.witness is not None:
            cert = analysis.tu_cycle_certificate(market, p1.witness, p1.hypergraph)
            facts["certificate"] = _matrix_facts(cert)
        else:
            facts["certificate"] = None
    emit_report(args, "analyze", inputs, facts, t0)
    return EXIT_OK


def cmd_roadmap(args) -> int:
    t0 = time.perf_counter()
    inputs = {args.roadmap: ""}  # the report lists the roadmap first
    market = io.load_market(args.market, inputs)
    rm = io.load_roadmap(args.roadmap, inputs)
    report = roadmap.theorem3_report(market, rm, budget=args.budget)
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
        "witness": _cycle_facts(report.hypergraph, report.balance.witness),
        "falsification": report.falsification,
    }
    emit_report(args, "roadmap", inputs, facts, t0)
    return EXIT_OK if report.all_hold else EXIT_NEGATIVE


def cmd_gen(args) -> int:
    try:
        params = generator.GenParams(
            seed=args.seed,
            firm_count=args.firms,
            worker_count=args.workers,
            max_acceptable_sets_per_firm=args.max_sets,
            max_set_size=args.max_set_size,
            value_range=(
                io._rational(args.value_min, "--value-min"),
                io._rational(args.value_max, "--value-max"),
            ),
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
        data = io.serialize_market(market)  # a value past str()'s digit limit raises
        if args.kind == "roadmap":
            io.write_json(args.roadmap_out, io.serialize_roadmap(rm))
    except ValueError as e:
        raise MarketFormatError(str(e)) from e
    io.write_json(args.out, data)
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
    parser.command_tables = {
        name: _table(choice, sub.dest, name) for name, choice in sub.choices.items()
    }
    return parser


def _table(p: argparse.ArgumentParser, dest: str, name: str):
    """Subcommand ``name``'s positionals, options by exact string, required
    options, exclusive groups and defaults, read off argparse's actions; None
    if it has an action or group ``_fast_args`` does not read."""
    if any(g.required for g in p._mutually_exclusive_groups):
        return None
    positionals, options, required, defaults = [], {}, set(), {dest: name}
    kinds = (argparse._StoreAction, argparse._StoreTrueAction)
    for a in p._actions:
        if type(a) is argparse._HelpAction:
            continue
        if type(a) not in kinds or a.nargs not in (None, 0):
            return None
        options.update(dict.fromkeys(a.option_strings, a))
        if not a.option_strings:
            positionals.append(a)
        elif a.required:
            required.add(a)
        # As in parse_args, a string default goes through ``type``.
        convert = isinstance(a.default, str) and a.type
        defaults[a.dest] = convert(a.default) if convert else a.default
    groups = [set(g._group_actions) for g in p._mutually_exclusive_groups]
    return positionals, options, required, groups, defaults


def _fast_args(tables: dict, argv) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, if every word is an exact
    option string, an option's value not starting with ``-``, or a
    positional, and argparse would accept the line; else None."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    positionals, options, required, groups, defaults = table
    pending, words = iter(positionals), iter(argv[1:])
    values, seen = dict(defaults), set()
    for word in words:
        action = options.get(word) if word[:1] == "-" else next(pending, None)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        if action.option_strings:
            word = next(words, "-")
            if word[:1] == "-":
                return None
        try:
            value = action.type(word) if action.type else word
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if next(pending, None) or not required <= seen or any(len(g & seen) > 1 for g in groups):
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(parser.command_tables, argv) or parser.parse_args(argv)
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
    if getattr(args, "start", None) is not None and not args.dynamics:
        print("error: --start needs --dynamics", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "roadmap_out", None) is not None and args.kind != "roadmap":
        print("error: --roadmap-out needs gen roadmap", file=sys.stderr)
        return EXIT_INPUT
    # The handler is looked up by name on each call, not bound in the cached
    # parser, so a wrapper later installed on a cmd_* attribute still runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except MatchkitError as e:
        # CPython's advice on its int-to-decimal digit limit names a call
        # that a command-line user cannot make.
        advice = "use sys.set_int_max_str_digits() to increase the limit"
        text = str(e).replace(advice, "set PYTHONINTMAXSTRDIGITS to raise it (0 lifts it)")
        print(f"error: {text}", file=sys.stderr)
        if isinstance(e, WorkBudgetExceeded):
            return EXIT_BUDGET
        return EXIT_INTERNAL if isinstance(e, CertificateError) else EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as e:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at exit stays quiet, and report it as an unwritable output.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
