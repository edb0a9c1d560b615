"""Shared fixtures: the packaged curve catalog and two independent a_p oracles."""

from __future__ import annotations

import hashlib
import json
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from watkins import data
from watkins.data import load_fixtures, record_from_row


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """No test reaches the remote table: urlopen fails unless a test installs its own."""

    def urlopen(request, timeout=None):
        raise OSError("the test suite does not touch the network")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)


@pytest.fixture(scope="session")
def fixture_rows():
    return load_fixtures()


@pytest.fixture(scope="session")
def records(fixture_rows):
    return {label: record_from_row(row) for label, row in fixture_rows.items()}


@pytest.fixture
def packaged_fixtures(tmp_path, monkeypatch):
    """The path load_fixtures reads for the length of one test, empty at the start."""
    monkeypatch.setattr(data, "resources", SimpleNamespace(files=lambda package: tmp_path))
    (tmp_path / "fixtures").mkdir()
    load_fixtures.cache_clear()
    yield tmp_path / "fixtures" / "curves.jsonl"
    load_fixtures.cache_clear()


def checksummed_line(row: dict) -> str:
    """A cache or fixture line holding row as it is, with a valid sha256."""
    canonical = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return json.dumps({"row": row, "sha256": hashlib.sha256(canonical.encode()).hexdigest()})


def brute_ap(model, p: int) -> int:
    """Trace of Frobenius by exhausting the full (x, y) grid mod p.

    Shares nothing with the library's counting code: no completed
    square, no group law, just the affine equation evaluated at every
    point.  Only meant for small p.
    """
    assert p <= 3000, "oracle is quadratic in p; keep it small"
    a1, a2, a3, a4, a6 = (a % p for a in model.ainvs())
    xs = np.arange(p, dtype=np.int64)
    ys = xs.reshape(-1, 1)
    lhs = (ys * ys + (a1 * xs % p) * ys + a3 * ys) % p
    rhs = (xs * xs % p * xs + a2 * xs % p * xs + a4 * xs + a6) % p
    affine = int(np.count_nonzero(lhs == rhs[None, :]))
    return p - affine  # p + 1 - (affine + 1)


def legendre_ap(model, p: int) -> int:
    """Trace of Frobenius as minus the sum of the Legendre symbols of 4x^3 + b2 x^2 + 2b4 x + b6 over x mod p.

    Vectorised: the symbol table comes from squaring every residue, so the
    count is linear in p, and every prime below 10^4 takes milliseconds.
    Checked against brute_ap for p <= 300.
    """
    assert 2 < p < 2**31, "products of residues must fit in int64"
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[xs * xs % p] = 1
    chi[0] = 0
    b2, bb4, b6 = model.b2 % p, 2 * model.b4 % p, model.b6 % p
    cubic = (((4 * xs + b2) % p * xs + bb4) % p * xs + b6) % p
    return -int(chi[cubic].sum())
