"""The golden-output corpus: every matchkit CLI command and flag family run
on fixed inputs, each run reduced to a short digest of its exit code,
stdout and stderr.

Inputs are the fixtures, 500 ``SUITE_PARAMS`` seeds of TU, discrete and
roadmap instances, and complete assignment games and marriage markets up to
7x10.  Before hashing, the work directory in the output becomes ``<dir>``
and the ``timing_ms`` value becomes ``_``.  Run it with ``ENVIRONMENT``
set and ``MATCHKIT_BUDGET`` unset: argparse wraps its usage text to
``COLUMNS``, and the budget variable changes what the searches may spend.

``golden_digests.txt`` holds one line per input: its name, then one digest
per command in the order ``cases`` lists them.  ``test_golden.py`` checks a
fresh run against it, and ``scripts/update_golden_digests.py`` rewrites it
when an output changes on purpose.
"""

from __future__ import annotations

import hashlib
import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from matchkit import cli
from matchkit.generator import (
    GenParams,
    SplitMix64,
    gen_discrete_market,
    gen_roadmap_instance,
    gen_tu_market,
)
from matchkit.errors import MatchkitError
from matchkit.io import load_market, serialize_market, serialize_roadmap, write_json
from matchkit.model import DiscreteMarket, TuMarket

FIXTURES = Path(__file__).parent / "fixtures"
DIGEST_FILE = Path(__file__).with_name("golden_digests.txt")

SUITE_SEEDS = 500
SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(Fraction(0), Fraction(10)),
    acceptability_density=0.85,
)
GAME_SHAPES = ((3, 5), (4, 4), (4, 6), (5, 5), (5, 6), (6, 6), (6, 8), (7, 10))

ENVIRONMENT = {"COLUMNS": "80"}
_TIMING = re.compile(r'("?timing_ms"?: )\S+')


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


def tu_commands(path: str, every_flag: bool) -> list[list[str]]:
    cmds = [_json("balance", path), _json("solve-tu", path, "--emit", "lp"), ["solve-tu", path]]
    if every_flag:
        cmds += [
            ["balance", path],
            ["balance", path, "--kind", "tu"],
            ["balance", path, "--kind", "discrete"],
            ["balance", path, "--budget", "0"],
            _json("solve-tu", path),
            _json("solve-tu", path, "--emit", "certificate"),
            ["solve-tu", path, "--emit", "certificate"],
            ["solve-tu", path, "--emit", "lp"],
            ["solve-tu", path, "--budget", "0"],
            ["solve-tu", path, "--budget", "-1"],
            ["solve-discrete", path],
            ["analyze", path],
        ]
    return cmds


def discrete_commands(path: str, start: str, every_flag: bool) -> list[list[str]]:
    cmds = [
        _json("balance", path),
        _json("solve-discrete", path, "--all"),
        _json("solve-discrete", path, "--first"),
        _json("solve-discrete", path, "--dynamics"),
        _json("analyze", path),
    ]
    if every_flag:
        cmds += [
            ["balance", path],
            ["balance", path, "--kind", "discrete"],
            ["balance", path, "--budget", "0"],
            ["solve-discrete", path],
            ["solve-discrete", path, "--first"],
            ["solve-discrete", path, "--budget", "0"],
            ["solve-discrete", path, "--dynamics"],
            _json("solve-discrete", path, "--dynamics", "--max-steps", "1"),
            _json("solve-discrete", path, "--dynamics", "--start", start),
            ["solve-discrete", path, "--dynamics", "--max-steps", "-1"],
            ["analyze", path],
            _json("analyze", path, "--prop1"),
            _json("analyze", path, "--demand-type"),
            _json("analyze", path, "--tu-check"),
            _json("analyze", path, "--certificate"),
            _json("analyze", path, "--prop1", "--certificate"),
            ["analyze", path, "--budget", "0"],
            ["solve-tu", path],
        ]
    return cmds


def roadmap_commands(rm: str, path: str, every_flag: bool) -> list[list[str]]:
    cmds = [_json("roadmap", rm, path)]
    if every_flag:
        cmds += [["roadmap", rm, path], ["roadmap", rm, path, "--budget", "0"]]
    return cmds


def market_commands(market, path: str, workdir: Path, every_flag: bool) -> list[list[str]]:
    if isinstance(market, TuMarket):
        return tu_commands(path, every_flag)
    # A start matching for the dynamics: every worker at its first-ranked firm.
    start = str(workdir / (Path(path).stem + "-start.json"))
    assignment = {w: prefs[0] for w, prefs in sorted(market.worker_prefs.items()) if prefs}
    write_json(start, {"assignment": assignment})
    return discrete_commands(path, start, every_flag)


def assignment_game(n_firms, n_workers, seed, firm_max=10, worker_max=3):
    """Complete assignment game: every firm values every single worker at
    an integer up to ``firm_max``, and every worker every firm at one up to
    ``worker_max``.  Small maxima make tied and degenerate games."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    return TuMarket(
        firms=set(firms),
        workers=set(workers),
        firm_valuations={
            f: {frozenset({w}): Fraction(rng.randint(0, firm_max)) for w in workers}
            for f in firms
        },
        worker_valuations={
            w: {f: Fraction(rng.randint(0, worker_max)) for f in firms} for w in workers
        },
    )


def tied_game(n_firms, n_workers, seed):
    """A complete assignment game with every value in {0, 1, 2}."""
    return assignment_game(n_firms, n_workers, seed, firm_max=2, worker_max=2)


def complete_marriage_market(n_firms, n_workers, seed):
    """Every firm ranks every single worker and every worker every firm,
    in seeded random order."""
    rng = SplitMix64(seed)
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    firm_prefs = {}
    for f in firms:
        sets = [frozenset({w}) for w in workers]
        rng.shuffle(sets)
        firm_prefs[f] = tuple(sets)
    worker_prefs = {}
    for w in workers:
        ranked = list(firms)
        rng.shuffle(ranked)
        worker_prefs[w] = tuple(ranked)
    return DiscreteMarket(
        firms=set(firms), workers=set(workers), firm_prefs=firm_prefs, worker_prefs=worker_prefs
    )


def cases(workdir: Path):
    """Yield ``(input name, [argv, ...])`` for the whole corpus, writing
    each input's files under ``workdir`` first."""
    markets = {}
    for path in sorted(FIXTURES.glob("*.json")):
        copy = workdir / path.name
        shutil.copyfile(path, copy)
        data = path.read_text(encoding="utf-8")
        if '"technologies"' not in data:
            markets[path.name] = str(copy)
    for name, path in markets.items():
        try:
            market = load_market(path)
        except MatchkitError:  # an unreadable file: every command exits 2 on it
            yield f"fixture:{name}", tu_commands(path, True) + discrete_commands(path, path, True)
            continue
        yield f"fixture:{name}", market_commands(market, path, workdir, True)
    for rm in sorted(FIXTURES.glob("*_roadmap.json")):
        for name, path in markets.items():
            yield f"fixture:{rm.name}+{name}", roadmap_commands(str(workdir / rm.name), path, True)
    yield "cli-errors", [
        ["balance", str(workdir / "missing.json")],
        ["solve-tu", markets["intro_tu.json"], "--emit", "weights"],
        ["solve-tu", markets["intro_tu.json"], "--budget", "many"],
    ]
    yield "gen", _gen_commands(workdir)

    for seed in range(SUITE_SEEDS):
        params = GenParams(seed=seed, **SUITE_PARAMS)
        every_flag = seed < 20
        generated = (("tu", gen_tu_market(params)), ("discrete", gen_discrete_market(params)))
        for kind, market in generated:
            name = f"{kind}-seed-{seed}"
            path = _write_market(workdir, name, market)
            yield name, market_commands(market, path, workdir, every_flag)
            try:
                roadmap, rm_market = gen_roadmap_instance(params, kind=kind)
            except ValueError:  # no disjoint firm paths for this seed
                continue
            name = f"roadmap-{kind}-seed-{seed}"
            rm = str(workdir / f"{name}-roadmap.json")
            write_json(rm, serialize_roadmap(roadmap))
            yield name, roadmap_commands(rm, _write_market(workdir, name, rm_market), every_flag)

    for shape in GAME_SHAPES:
        label = "x".join(map(str, shape))
        for name, market in (
            (f"game-{label}", assignment_game(*shape, 0)),
            (f"tied-game-{label}", tied_game(*shape, 0)),
            (f"marriage-{label}", complete_marriage_market(*shape, 0)),
        ):
            path = _write_market(workdir, name, market)
            yield name, market_commands(market, path, workdir, shape == (4, 4))


def _write_market(workdir: Path, name: str, market) -> str:
    path = str(workdir / f"{name}.json")
    write_json(path, serialize_market(market))
    return path


def _gen_commands(workdir: Path) -> list[list[str]]:
    out = str(workdir / "gen-market.json")
    rm = str(workdir / "gen-roadmap.json")
    cmds = []
    for seed in ("0", "1", "2"):
        cmds += [
            ["gen", "tu", "--seed", seed, "--out", out],
            ["gen", "discrete", "--seed", seed, "--firms", "4", "--workers", "6",
             "--max-set-size", "3", "--value-min=-1/2", "--value-max", "7/3", "--out", out],
            ["gen", "roadmap", "--seed", seed, "--out", out, "--roadmap-out", rm],
            ["gen", "roadmap", "--seed", seed, "--market-kind", "tu", "--out", out,
             "--roadmap-out", rm],
        ]
    cmds += [
        ["gen", "roadmap", "--seed", "0", "--out", out],
        ["gen", "tu", "--seed", "0", "--firms", "9", "--out", out],
        ["gen", "tu", "--seed", "0", "--value-min", "5", "--value-max", "1", "--out", out],
        ["gen", "tu", "--out", out],
    ]
    return cmds


def run(argv: list[str], workdir: Path) -> str:
    """Exit code, stdout and stderr of ``matchkit argv`` in this process,
    plus the files a ``gen`` command wrote, normalized as the module
    docstring says."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejected the command line
            code = e.code
    text = f"exit {code}\n{out.getvalue()}--\n{err.getvalue()}"
    if argv[0] == "gen":
        for flag in ("--out", "--roadmap-out"):
            if flag in argv:
                written = Path(argv[argv.index(flag) + 1])
                if written.exists():
                    text += f"-- {flag}\n" + written.read_text(encoding="utf-8")
                    written.unlink()
    return _TIMING.sub(r"\1_", text.replace(str(workdir), "<dir>"))


def digest(argv: list[str], workdir: Path) -> str:
    return hashlib.sha256(run(argv, workdir).encode()).hexdigest()[:12]


def show(argv: list[str], workdir: Path) -> str:
    return "matchkit " + " ".join(argv).replace(str(workdir), "<dir>")


def read_digests() -> dict[str, list[str]]:
    out = {}
    for line in DIGEST_FILE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, *digests = line.split()
            out[name] = digests
    return out


def write_digests(workdir: Path) -> int:
    lines = [
        "# Golden output digests: input name, then one digest per command in the",
        "# order tests/golden.py lists them.  Rewrite with",
        "# scripts/update_golden_digests.py only when an output changes on purpose.",
    ]
    for name, argvs in cases(workdir):
        lines.append(" ".join([name, *(digest(argv, workdir) for argv in argvs)]))
    DIGEST_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 3
