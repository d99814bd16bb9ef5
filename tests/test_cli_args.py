"""The command-line fast path: ``cli._fast_args`` reads a plain command line
off the table ``build_parser`` takes from argparse's actions, and must give
the namespace ``parse_args`` gives, or decline.

The table relies on argparse's private attributes (``_actions``,
``_StoreAction``, ``_StoreTrueAction``, ``_HelpAction``,
``_mutually_exclusive_groups``, ``_group_actions``); these tests break if a
Python release changes them."""

import argparse
import io
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from matchkit import cli, generator, model, tu_solver
from matchkit import io as mk_io

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import workloads  # noqa: E402

PARSER = cli.build_parser()
TABLES = PARSER.command_tables
SUBPARSERS = {
    name: p
    for a in PARSER._actions
    if isinstance(a, argparse._SubParsersAction)
    for name, p in a.choices.items()
}
OPTIONS = sorted({s for p in SUBPARSERS.values() for a in p._actions for s in a.option_strings})
VALUES = [
    "json", "human", "tu", "discrete", "roadmap", "matching", "certificate", "lp",
    "weights", "0", "7", "1000", " 5", "-1", "-3/2", "many", "1.5", "nan", "m.json",
    "r.json", "", "-", "--", "-h", "--help", "-x y",
]


def parse(argv):
    """``parse_args(argv)``, or None where argparse exits (help or an error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def same(fast, argv) -> bool:
    """``fast`` holds what ``parse_args(argv)`` holds, compared by ``repr``:
    ``nan`` equals itself there, and ``1`` differs from ``True``."""
    parsed = parse(argv)
    return parsed is not None and (
        {k: repr(v) for k, v in vars(fast).items()} == {k: repr(v) for k, v in vars(parsed).items()}
    )


def value(action):
    typed = {int: ["0", "7", "1000"], float: ["0.5", "1"]}.get(action.type, ["m.json"])
    plain = st.sampled_from(sorted(action.choices or typed))
    return st.one_of(plain, plain, plain, st.sampled_from(VALUES))


def hostile(name: str):
    """A word that is not plainly an option, its value or a positional."""
    own = sorted({s for a in SUBPARSERS[name]._actions for s in a.option_strings})
    return st.one_of(
        st.sampled_from(sorted({s[:k] for s in own if s[:2] == "--" for k in range(3, len(s))})),
        st.builds("{}={}".format, st.sampled_from(own), st.sampled_from(VALUES)),
        st.sampled_from(OPTIONS + VALUES),
        st.text(max_size=3),
    )


# Strategies built once: building them inside each draw dominates the run.
VALUE = {a: value(a) for p in SUBPARSERS.values() for a in p._actions}
HOSTILE = {name: hostile(name) for name in SUBPARSERS}
OPTIONAL = {
    name: st.lists(
        st.sampled_from([a for a in p._actions if a.option_strings and a.dest != "help"]),
        max_size=5,
    )
    for name, p in SUBPARSERS.items()
}
EDIT = st.tuples(st.integers(0, 30), st.sampled_from(["insert", "delete", "replace"]))


@st.composite
def command_lines(draw):
    """A subcommand with its positionals, its required options and some
    other options, in any order; then, half the time, words inserted,
    deleted or replaced."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = SUBPARSERS[name]._actions
    chosen = [a for a in actions if a.required] + draw(OPTIONAL[name])
    pieces = [
        [draw(VALUE[a])] if not a.option_strings
        else [a.option_strings[0]] if a.nargs == 0
        else [a.option_strings[0], draw(VALUE[a])]
        for a in chosen
    ]
    draw(st.randoms()).shuffle(pieces)
    argv = [name, *(w for piece in pieces for w in piece)]
    while draw(st.booleans()):
        i, edit = draw(EDIT)
        i %= len(argv) + 1
        if edit == "delete":
            del argv[i:i + 1]
        else:
            argv[i:i + (edit == "replace")] = [draw(HOSTILE[name])]
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
@example(["solve-discrete", "m.json", "--all", "--first"])
@example(["solve-discrete", "m.json", "--first", "--first"])
@example(["gen", "tu", "--out", "m.json"])
@example(["gen", "tu", "--seed", "1", "--out", "m.json", "--density", "nan"])
@example(["roadmap", "r.json", "--format", "json", "m.json"])
@example(["balance", "m.json", "m.json"])
@example(["balance", "--", "m.json"])
@example(["balance", "m.json", "--budget", "-1"])
def test_fast_path_agrees_with_parse_args(argv):
    fast = cli._fast_args(TABLES, argv)
    if fast is not None:
        assert same(fast, argv)


@pytest.mark.parametrize("workload", ["tu-sweep", "discrete-sweep", "unit-demand"])
def test_fast_path_takes_every_benchmark_command_line(workload, tmp_path):
    mk = types.SimpleNamespace(io=mk_io, generator=generator, model=model, tu_solver=tu_solver)
    corpus = workloads.build(mk, workload, 7, tmp_path, size=8)
    argvs = [op.argv for op in corpus.ops] + ([corpus.probe.argv] if corpus.probe else [])
    for argv in argvs:
        fast = cli._fast_args(TABLES, argv)
        assert fast is not None and same(fast, argv), argv


def test_fast_path_takes_every_golden_json_family(tmp_path):
    shapes = set()
    for _, argvs in golden.cases(tmp_path):
        for argv in argvs:
            fast = cli._fast_args(TABLES, argv)
            if argv[-2:] == ["--format", "json"]:
                assert fast is not None, argv
                shapes.add(tuple(w for w in argv if not w.endswith(".json")))
            if fast is not None:
                assert same(fast, argv), argv
    assert len(shapes) == 16  # every family golden.py builds with _json


@pytest.mark.parametrize(
    "add",
    [
        lambda p: p.add_argument("--tag", action="append"),
        lambda p: p.add_argument("files", nargs="*"),
        lambda p: p.add_mutually_exclusive_group(required=True).add_argument("--a"),
    ],
)
def test_unread_grammar_goes_to_argparse(add):
    p = argparse.ArgumentParser()
    p.add_argument("market")
    add(p)
    assert cli._table(p, "command", "x") is None
    assert cli._fast_args({"x": None}, ["x", "m.json"]) is None
