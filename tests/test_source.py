"""Checks on the package source itself."""

import ast
from pathlib import Path

import matchkit

SOURCES = sorted(Path(matchkit.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so every check of a result
    # raises a typed error instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
