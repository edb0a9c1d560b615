"""Frozen certificate bytes.

SHA-256 digests and line counts of `watkins scan --d-bound 1000` output
in JSON and CSV for six fixtures that between them reach every verdict:
17a1, 32a1 and 49a1 certify some twists, 14a1 is inconclusive
throughout, 11a1 has no rational 2-torsion and 15a8 lacks a modular
degree.  One more digest covers `verify_twist` certificates for a
seeded set of large fundamental discriminants per curve.  Any byte that
changes fails a test here; a change that means to alter certificates
says why and refreezes the digests.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import watkins
from watkins.arith import is_fundamental_discriminant
from watkins.certify import certificate_to_json, verify_twist
from watkins.cli import main

SCAN_BOUND = 1000

# (label, format) -> (sha256 of the --out file, number of lines)
SCANS = {
    ("17a1", "json"): ("1834513b2039bf30e098973578813c38a40dbf47c1c762e9e227973b324bae5f", 608),
    ("17a1", "csv"): ("8bdffbc5e6b40f09ee5c1f7fdee4e9ea7c3acd57273c0ee8fb860c879cd9892f", 608),
    ("32a1", "json"): ("0760c6751360260d86d73ffb182f43db649e7fd16105c7f90c3704bfa6ca1679", 608),
    ("32a1", "csv"): ("441e4feaa7c1fa22983404f2b66e3c71f8e3bf54d5d86ebc5a74d021aa16e8bc", 608),
    ("49a1", "json"): ("3604d1e452853b4f67eae3fe2ba85fa64dadf6037ddfe805585da61976053e2a", 608),
    ("49a1", "csv"): ("09acc22824155a95efd519da6f8a8c2ba9a57298fa6f19181b89784c9f64b307", 608),
    ("14a1", "json"): ("8c9e5eb4306de907ca382b02e99b6d926aef2d677240c3be82fa58dfa187a500", 608),
    ("14a1", "csv"): ("fb98b772ba0422ac74f7fa009c24de2996772fc3a26ec3fe184db60a163b1086", 608),
    ("11a1", "json"): ("a24f64e150cf3f617830e2ba7001652686fa7b4b10f5d0e748480fbf06a589ba", 608),
    ("11a1", "csv"): ("a4ca50f78b1972fb58f55c40aefebad7eb26269d89c1476bc39c77f7e29557b9", 608),
    ("15a8", "json"): ("a31d8acf0064039115a4fb7506eb3030551727b9fd4eba7637f01b5354dac1d7", 608),
    ("15a8", "csv"): ("7616645d44322079ec3bbf3e89e15f1468f6a982d5ddb000edf22f310b8a9798", 608),
}

VERIFY_CURVES = ("17a1", "32a1", "49a1", "14a1", "11a1", "15a8")
VERIFY_PER_CURVE = 100
VERIFY_DIGEST = ("6a3758d0503bb0b61174bf364067dcd70b6ea4ae45d31495d26ed9b859d506f0", 600)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WATKINS_CACHE_DIR", str(tmp_path / "cache"))


def digest(data: bytes) -> tuple[str, int]:
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def scan_bytes(label: str, fmt: str, out: Path) -> bytes:
    argv = ["scan", "--label", label, "--offline", "--d-bound", str(SCAN_BOUND), "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def golden_discriminants(label: str) -> list[int]:
    """VERIFY_PER_CURVE fundamental d with 10^6 < |d| <= 10^8, seeded by the label."""
    rng = random.Random(f"golden:{label}")
    out = []
    while len(out) < VERIFY_PER_CURVE:
        d = rng.randint(10**6 + 1, 10**8) * rng.choice((1, -1))
        if is_fundamental_discriminant(d):
            out.append(d)
    return out


@pytest.mark.parametrize("label, fmt", sorted(SCANS))
def test_scan_bytes_are_frozen(label, fmt, tmp_path):
    data = scan_bytes(label, fmt, tmp_path / f"{label}.{fmt}")
    assert digest(data) == SCANS[label, fmt]


def test_large_d_certificates_are_frozen(records):
    lines = [
        certificate_to_json(verify_twist(records[label], d))
        for label in VERIFY_CURVES
        for d in golden_discriminants(label)
    ]
    assert digest("".join(line + "\n" for line in lines).encode()) == VERIFY_DIGEST


def test_scan_bytes_survive_optimized_mode(tmp_path):
    # python -O strips asserts; every check a certificate rests on must still run
    out = tmp_path / "17a1.json"
    src = str(Path(watkins.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["scan", "--label", "17a1", "--offline", "--d-bound", str(SCAN_BOUND), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-O", "-m", "watkins.cli", *argv], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert digest(out.read_bytes()) == SCANS["17a1", "json"]
