"""The benchmark's harness still finds every `watkins` name it wraps or calls.

`bench/` reaches into the package by name: `bench/spans.py` wraps the
functions in its LAYERS table for `--trace 1`, and `bench/run.py` and
`bench/setup_probe.py` call package functions directly.  Deleting or
renaming one of them breaks the benchmark only when it runs, so these
tests read those files' syntax trees and resolve each name.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(dotted: str):
    """The object a dotted name stands for: the longest module prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _dotted(node: ast.AST) -> str | None:
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(names)])
    return None


def _watkins_names(path: Path) -> set[str]:
    """Every watkins name path imports or reads, with `self.x = watkins...` aliases expanded."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = _dotted(node.targets[0]), _dotted(node.value)
            if target and value and value.split(".")[0] == "watkins":
                aliases[target] = value
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "watkins":
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):  # each prefix of a chain counts too
            name = _dotted(node)
            for alias, value in aliases.items():
                if name and name.startswith(alias + "."):
                    name = value + name[len(alias) :]
            if name and name.split(".")[0] == "watkins":
                found.add(name)
    return found


def _layers() -> dict:
    tree = ast.parse((BENCH / "spans.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign) and _dotted(n.targets[0]) == "LAYERS"]
    return ast.literal_eval(node.value)


def test_every_traced_layer_exists():
    layers = _layers()
    assert {"arith", "ecq", "certify", "data", "cli"} <= set(layers)
    for mod, fns in layers.items():
        for fn in fns:
            assert callable(_resolve(f"watkins.{mod}.{fn}")), f"{mod}.{fn}"
    # the tracer also counts a_p cache hits through this method
    assert callable(_resolve("watkins.certify.CertifyContext.ap"))


@pytest.mark.parametrize("script", ["run.py", "setup_probe.py"])
def test_every_package_name_the_harness_calls_exists(script):
    names = _watkins_names(BENCH / script)
    assert "watkins.data.load_fixtures" in names and "watkins.arith.small_primes" in names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_the_name_reader_sees_aliases_and_imports(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "from watkins.data import load_fixtures, no_such_loader\n"
        "import watkins.cli\n"
        "class W:\n"
        "    def setup(self):\n"
        "        import watkins\n"
        "        self.w = watkins\n"
        "        self.cli = watkins.cli\n"
        "        watkins.arith.small_primes()\n"
        "    def run(self):\n"
        "        self.w.verify_twist(1, 2)\n"
        "        self.cli.main([])\n"
        "        self.other.thing()\n"
    )
    names = _watkins_names(script)
    assert {
        "watkins.data.load_fixtures",
        "watkins.data.no_such_loader",
        "watkins.arith.small_primes",
        "watkins.verify_twist",
        "watkins.cli.main",
    } <= names
    assert not any(name.startswith("self.") for name in names)
