#!/usr/bin/env python3
"""Check the frozen certificate digests under every installed CPython >= 3.10.

    python3 scripts/golden_interpreters.py [PYTHON ...]

With no arguments it runs every interpreter found as
$PYENV_ROOT/versions/*/bin/python3 (PYENV_ROOT defaults to ~/.pyenv)
whose version is 3.10 or later.  Under each one it makes the golden
scans and the large-d verify digest of tests/test_golden.py, with
`watkins` imported from src/, and compares them with the digests that
file freezes.  The digests, the scan bound, the curves and the seeded
choice of discriminants are read out of tests/test_golden.py with `ast`,
so this script and the test cannot drift apart.  Standard library only;
pytest is not imported.  Exits 1 on any mismatch or failed interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "test_golden.py"
CONSTANTS = ("SCAN_BOUND", "SCANS", "VERIFY_CURVES", "VERIFY_PER_CURVE", "VERIFY_DIGEST")


def read_golden(path: Path = GOLDEN) -> tuple[dict, str]:
    """The frozen constants of the golden test, and the source of its golden_discriminants."""
    source = path.read_text()
    constants, chooser = {}, None
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in CONSTANTS:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
        elif isinstance(node, ast.FunctionDef) and node.name == "golden_discriminants":
            chooser = ast.get_source_segment(source, node)
    missing = [name for name in CONSTANTS if name not in constants] + ([] if chooser else ["golden_discriminants"])
    if missing:
        raise SystemExit(f"{path} no longer defines {', '.join(missing)}")
    return constants, chooser


def digests() -> dict:
    """Run in the interpreter under test: {"scans": {"label fmt": [sha, lines]}, "verify": [sha, lines]}."""
    import hashlib
    import random
    import tempfile

    from watkins.arith import is_fundamental_discriminant
    from watkins.certify import certificate_to_json, verify_twist
    from watkins.cli import main
    from watkins.data import load_fixtures, record_from_row

    constants, chooser = read_golden()
    namespace = {"random": random, "is_fundamental_discriminant": is_fundamental_discriminant, **constants}
    exec(chooser, namespace)

    def digest(data: bytes) -> list:
        return [hashlib.sha256(data).hexdigest(), data.count(b"\n")]

    out = {"scans": {}}
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["WATKINS_CACHE_DIR"] = str(Path(tmp) / "cache")
        for label, fmt in sorted(constants["SCANS"]):
            path = Path(tmp) / f"{label}.{fmt}"
            argv = ["scan", "--label", label, "--offline", "--d-bound", str(constants["SCAN_BOUND"]),
                    "--format", fmt, "--out", str(path)]
            code = main(argv)
            out["scans"][f"{label} {fmt}"] = digest(path.read_bytes()) if code == 0 else [f"exit {code}", 0]
    rows = load_fixtures()
    lines = [
        certificate_to_json(verify_twist(record_from_row(rows[label]), d))
        for label in constants["VERIFY_CURVES"]
        for d in namespace["golden_discriminants"](label)
    ]
    out["verify"] = digest("".join(line + "\n" for line in lines).encode())
    return out


def interpreters() -> list[str]:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for python in sorted(versions.glob("*/bin/python3")):
        parts = python.parent.parent.name.split(".")
        if len(parts) >= 2 and parts[0] == "3" and parts[1].isdigit() and int(parts[1]) >= 10:
            found.append(str(python))
    return found


def check(python: str, constants: dict) -> list[str]:
    """Mismatches under one interpreter, as lines of text; empty when every digest matches."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([python, __file__, "--worker"], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    got = json.loads(proc.stdout)
    bad = [
        f"scan {label} {fmt}: {got['scans'].get(f'{label} {fmt}')} != {list(want)}"
        for (label, fmt), want in sorted(constants["SCANS"].items())
        if got["scans"].get(f"{label} {fmt}") != list(want)
    ]
    if got["verify"] != list(constants["VERIFY_DIGEST"]):
        bad.append(f"verify: {got['verify']} != {list(constants['VERIFY_DIGEST'])}")
    return bad


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        print(json.dumps(digests()))
        return 0
    pythons = argv or interpreters()
    if not pythons:
        print("no CPython >= 3.10 found; name the interpreters to run", file=sys.stderr)
        return 1
    constants, _ = read_golden()
    failed = 0
    for python in pythons:
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 capture_output=True, text=True).stdout.strip()
        bad = check(python, constants)
        failed += bool(bad)
        print(f"{python} ({version or 'unknown version'}): " + ("ok" if not bad else "MISMATCH"))
        for line in bad:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
