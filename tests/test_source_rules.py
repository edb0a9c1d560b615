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


_COLD_IMPORTS = ("dataclasses", "fractions", "csv")


def _load_time_imports(node: ast.AST, banned=_COLD_IMPORTS):
    # every import outside a function body runs when the module loads
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module or ""]
        else:
            yield from _load_time_imports(child, banned)
            continue
        if any(name.split(".")[0] in banned for name in names):
            yield child.lineno


def test_no_load_time_import_of_what_verify_does_not_run():
    # a cold verify pays for every module imported at load time; these are off its path
    found = [f"{path.name}:{line}" for path in SOURCES for line in _load_time_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_cold_import_rule_skips_function_bodies_only():
    tree = ast.parse(
        "import dataclasses\nfrom fractions import Fraction\nimport os, csv\nimport csvkit\n"
        "def f():\n    import csv\nfrom .fractions import x\nimport json\n"
        "if True:\n    import csv\nclass C:\n    from dataclasses import field\n"
        "    def g(self):\n        import fractions\n"
    )
    assert list(_load_time_imports(tree)) == [1, 2, 3, 10, 12]
