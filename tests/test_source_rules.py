"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import watkins

SOURCES = sorted(Path(watkins.__file__).parent.glob("*.py"))


def _assertions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_assertions_in_the_package():
    # python -O strips assert statements; invariants raise InvariantViolation instead
    assert len(SOURCES) >= 7
    found = [f"{path.name}:{line}" for path in SOURCES for line in _assertions(ast.parse(path.read_text()))]
    assert found == []


def test_the_rule_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError\nraise AssertionError('no')\nraise ValueError('ok')\n")
    assert list(_assertions(tree)) == [1, 2, 3]


def _numpy_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            yield node.lineno


def test_no_numpy_in_the_package():
    # the runtime depends on requests only; the sieves are stdlib bytearrays
    found = [f"{path.name}:{line}" for path in SOURCES for line in _numpy_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_numpy_rule_sees_every_form():
    tree = ast.parse(
        "import numpy\nimport numpy as np\nfrom numpy import zeros\nimport numpy.linalg\n"
        "def f():\n    import os, numpy\nfrom .numpy import x\nimport numpyish\n"
    )
    assert list(_numpy_imports(tree)) == [1, 2, 3, 4, 6]
