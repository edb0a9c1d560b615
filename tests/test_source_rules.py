"""Rules the package source keeps, checked on its syntax tree."""

import ast
import sys
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


# the built-in SHA-256 module is _sha256 up to 3.11 and _sha2 from 3.12; each interpreter lists only its own
_SHA256_RENAME = {"_sha256", "_sha2"}


def _non_stdlib_imports(tree: ast.AST):
    # every absolute import, function bodies included; relative ones name the package itself
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] not in sys.stdlib_module_names | _SHA256_RENAME for name in names):
            yield node.lineno


def test_every_import_is_stdlib():
    # the runtime is the standard library alone: remote lookups go through urllib, the sieves are bytearrays
    found = [f"{path.name}:{line}" for path in SOURCES for line in _non_stdlib_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_stdlib_rule_sees_every_form():
    tree = ast.parse(
        "import numpy\nimport os, requests as r\nfrom numpy import zeros\nimport numpy.linalg\n"
        "def f():\n    import requests\nfrom . import data\nfrom .numpy import x\n"
        "from urllib.request import urlopen\nimport http.client\nfrom __future__ import annotations\n"
        "class C:\n    def g(self):\n        from watkins import arith\n"
        "from _sha2 import sha256\nfrom _sha256 import sha256\nimport _sha3000\n"
    )
    assert sorted(_non_stdlib_imports(tree)) == [1, 2, 3, 4, 6, 14, 17]


_COLD_IMPORTS = ("dataclasses", "fractions", "csv", "hashlib")


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


# the only private names a module may import from a sibling: (importer, sibling, name)
_SIBLING_PRIVATE_IMPORTS = {("ecq", "arith", "_is_prime"), ("cli", "certify", "_enc_fact")}


def _private_sibling_imports(module: str, tree: ast.AST):
    # from .sibling import _name, or from watkins.sibling import _name, anywhere in the module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1 or node.module.startswith("watkins."):
            sibling = node.module.removeprefix("watkins.")
            for alias in node.names:
                if alias.name.startswith("_") and (module, sibling, alias.name) not in _SIBLING_PRIVATE_IMPORTS:
                    yield f"{module}:{node.lineno} {sibling}.{alias.name}"


def test_private_names_cross_modules_only_where_listed():
    # a private helper another module leans on is an interface nobody named
    found = [hit for path in SOURCES for hit in _private_sibling_imports(path.stem, ast.parse(path.read_text()))]
    assert found == []


def test_the_private_import_rule_sees_every_form():
    tree = ast.parse(
        "from .arith import _is_prime, _trial_divide\nfrom .certify import _enc_fact\n"
        "from os import _exit\nfrom . import arith\nfrom __future__ import annotations\n"
        "def f():\n    from watkins.arith import _iroot, vp\n"
    )
    assert list(_private_sibling_imports("ecq", tree)) == [
        "ecq:1 arith._trial_divide", "ecq:2 certify._enc_fact", "ecq:7 arith._iroot"
    ]
    assert list(_private_sibling_imports("cli", ast.parse("from .certify import _enc_fact\n"))) == []


# the only functions that may factor, and what they factor; every other number is
# split by what is already known of it
_FACTORING_CALLERS = {
    "arith.is_fundamental_discriminant",  # d
    "arith.factor_fundamental",  # d
    "arith.prime_discriminant_parts",  # d
    "certify.verify_twist",  # d
    "ecq.minimal_model",  # gcd(c4, c6)
    "ecq._minimal_disc_conductor",  # the minimal discriminant
    "ecq._exact_order",  # a group order of at most 2p + 2
}


def _factoring_calls(module: str, tree: ast.AST):
    # calls of factorize or factor_fundamental, bare or as an attribute, named by the enclosing top-level function
    for top in tree.body:
        caller = f"{module}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else f"{module}.<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name in ("factorize", "factor_fundamental") and caller not in _FACTORING_CALLERS:
                    yield f"{caller}:{node.lineno}"


def test_factoring_happens_only_where_listed():
    # rho may take seconds on a number with two large primes, so each call site is a decision
    found = [hit for path in SOURCES for hit in _factoring_calls(path.stem, ast.parse(path.read_text()))]
    assert found == []


def test_the_factoring_rule_sees_bare_and_attribute_calls():
    tree = ast.parse(
        "def minimal_model(m):\n    return factorize(m)\n"
        "def two_torsion_rank(m):\n    return factorize(m.b6).primes()\n"
        "class C:\n    def f(self, n):\n        return arith.factor_fundamental(n)\n"
        "x = factorize(12)\nfactorize_later = 1\n"
    )
    assert list(_factoring_calls("ecq", tree)) == ["ecq.two_torsion_rank:4", "ecq.C:7", "ecq.<module>:8"]


# what verify_twist may not compute per twist: each depends on the curve alone, and CertifyContext
# reads it from certify._curve_facts once per record
_PER_CURVE = ("is_minimal_twist", "watkins_threshold", "local_v2_contribution", "curve_name", "_curve_facts")


def _per_curve_calls(tree: ast.AST, function: str = "verify_twist"):
    # calls of a per-curve function, bare or as an attribute, anywhere in the body of the named top-level function
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in _PER_CURVE:
                        yield f"{name}:{node.lineno}"


def test_verify_twist_does_only_per_twist_work():
    certify = next(path for path in SOURCES if path.stem == "certify")
    assert list(_per_curve_calls(ast.parse(certify.read_text()))) == []


def test_the_per_curve_rule_sees_every_call_in_verify_twist_only():
    tree = ast.parse(
        "def verify_twist(curve, d):\n    is_minimal_twist(curve)\n"
        "    if d:\n        return certify.watkins_threshold(curve)\n"
        "    f = lambda p, a: local_v2_contribution(p, a)\n    return _curve_facts(curve)[0]\n"
        "def other(curve):\n    return is_minimal_twist(curve)\n"
        "class C:\n    def verify_twist(self):\n        return curve_name(self)\n"
    )
    assert list(_per_curve_calls(tree)) == [
        "is_minimal_twist:2", "watkins_threshold:4", "local_v2_contribution:5", "_curve_facts:6"
    ]


# what builds the twist's local data inside certify, and the one routine that may call it
_TWIST_LOCAL = ("minimal_model", "quadratic_twist", "tate_local", "conductor_from_support")


def _twist_local_calls(tree: ast.AST):
    # calls of a twist-local builder, bare or as an attribute, in any top-level definition but _twist_local
    for top in tree.body:
        if getattr(top, "name", None) == "_twist_local":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _TWIST_LOCAL:
                    yield f"{getattr(top, 'name', '<module>')}:{name}:{node.lineno}"


def test_the_twist_local_data_has_one_path_in_certify():
    # the minimal model, reduction at 2 and conductor of a twist come from _twist_local alone,
    # so the table of 2-adic classes and, later, the local table have one place to land
    certify = next(path for path in SOURCES if path.stem == "certify")
    assert list(_twist_local_calls(ast.parse(certify.read_text()))) == []


def test_the_twist_local_rule_sees_every_caller_but_twist_local():
    tree = ast.parse(
        "def _twist_local(curve, d):\n    return minimal_model(quadratic_twist(curve, d))\n"
        "def is_minimal_twist(curve):\n    return ecq.tate_local(curve, 2)\n"
        "class C:\n    def f(self, m):\n        return conductor_from_support(m, (), proven=True)\n"
        "x = minimal_model(y)\nquadratic_twist_later = 1\n"
    )
    assert list(_twist_local_calls(tree)) == [
        "is_minimal_twist:tate_local:4", "C:conductor_from_support:7", "<module>:minimal_model:8"
    ]
