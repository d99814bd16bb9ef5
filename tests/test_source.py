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


def test_public_names_that_no_module_refers_to_are_pinned():
    # A public top-level function or class that no package module names is
    # reached from outside the package only.  The cmd_* handlers are looked
    # up by name in ``cli.main``; the other two are library entry points.
    # Code that only tests call belongs with the tests, so a new name here
    # is a decision to keep it in the package.
    trees = [
        ast.parse(path.read_text(), str(path)) for path in SOURCES if path.name != "__init__.py"
    ]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referred = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.alias):
                referred.add(node.name)
    assert defined - referred == {
        "cmd_analyze",
        "cmd_balance",
        "cmd_gen",
        "cmd_roadmap",
        "cmd_solve_discrete",
        "cmd_solve_tu",
        "is_individually_rational",
        "tu_utilities",
    }
