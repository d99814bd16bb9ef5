#!/usr/bin/env python3
"""Rewrite tests/golden_digests.txt from the outputs of the program as it is.

Run it only when an output changes on purpose, and list the changed inputs
and commands in CHANGES.md with the reason:

    python scripts/update_golden_digests.py
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402


def main() -> int:
    os.environ.update(golden.ENVIRONMENT)
    os.environ.pop("MATCHKIT_BUDGET", None)
    with tempfile.TemporaryDirectory() as tmp:
        count = golden.write_digests(Path(tmp))
    print(f"wrote digests for {count} inputs to {golden.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
