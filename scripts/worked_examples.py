#!/usr/bin/env python3
"""Walk through the bundled worked examples end to end.

Runs the CLI over every fixture under tests/fixtures, printing each
``matchkit`` command and its human-readable report: balancedness, LP vs
partition values, stable matchings, the blocking dynamics from the empty
matching, demand types, and the roadmap report.
Exits 1 if any command fails with an error (exit code 2 or more).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from matchkit import cli  # noqa: E402

MARKETS = (
    "intro_tu.json",
    "intro_discrete.json",
    "example1_tu.json",
    "example2_discrete.json",
    "example3_discrete.json",
    "marriage.json",
    "appendixC_tu.json",
    "appendixC_discrete.json",
)


def main() -> int:
    os.chdir(ROOT)  # relative paths keep the reports' input names short
    runs = []
    for name in MARKETS:
        path = f"tests/fixtures/{name}"
        if "_tu" in name:
            runs += [["balance", path], ["solve-tu", path]]
        else:
            dynamics = ["solve-discrete", path, "--dynamics"]
            runs += [["balance", path], ["solve-discrete", path], dynamics, ["analyze", path]]
    runs.append(["roadmap", "tests/fixtures/example4_roadmap.json", "tests/fixtures/profile13.json"])
    worst = 0
    for argv in runs:
        print(f"\n$ matchkit {' '.join(argv)}", flush=True)
        worst = max(worst, cli.main(argv))
    return 1 if worst >= 2 else 0


if __name__ == "__main__":
    sys.exit(main())
