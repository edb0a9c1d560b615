"""Acceptance criteria for the certification pipeline.

Each test prints exactly one line:

    ACCEPTANCE NN PASS - <what was checked>

Run with `pytest tests/test_acceptance.py -v -s` to see them.  All
comparisons are exact integer equalities; the only loose bounds are
the wall-clock budgets stated inline.
"""

import csv
import functools
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from watkins.arith import (
    count_omega_at_most,
    enumerate_fundamental_discriminants,
    factorize,
    is_fundamental_discriminant,
    prime_discriminant_parts,
)
from watkins.certify import (
    CERT_FIELDS,
    CertifyContext,
    certificate_to_json,
    certificate_to_obj,
    local_v2_contribution,
    moddeg_v2_lower_exact,
    verify_twist,
    watkins_threshold,
)
from watkins import ecq
from watkins.cli import main
from watkins.ecq import WeierstrassModel, a_p, build_curve_record, minimal_model, tate_local, transform_model
from watkins.errors import HasseViolation, MissingInvariant

from conftest import brute_ap
from test_arith import _fundamental_ref
from test_ecq import KODAIRA

INT_RE = re.compile(r"^-?[0-9]+$")


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL - {desc}")
                raise
            print(f"\nACCEPTANCE {num:02d} PASS - {desc}")

        return run

    return wrap


@criterion(1, "a_p agrees with exhaustive point counts and with the large-prime route")
def test_point_counts(records, monkeypatch):
    checked = 0
    for rec in records.values():
        m = rec.minimal_model
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97, 101, 151, 211, 251):
            if m.disc % p == 0:
                continue
            assert a_p(m, p) == brute_ap(m, p), (rec.label, p)
            checked += 1
    assert checked > 400

    m17 = records["17a1"].minimal_model
    by_bsgs = a_p(m17, 10007), a_p(m17, 100003)
    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 10**6)
    assert (a_p(m17, 10007), a_p(m17, 100003)) == by_bsgs


@criterion(2, "conductors match the catalog on all 21 curves, with the expected reduction types")
def test_conductor_engine(records, fixture_rows):
    for label, rec in records.items():
        assert rec.conductor.value == fixture_rows[label].conductor, label
    for (label, p), (kod, f, kind) in KODAIRA.items():
        red = tate_local(records[label].minimal_model, p)
        assert (red.kodaira, red.f, red.kind) == (kod, f, kind), (label, p)


@criterion(3, "minimal models: scaling example, idempotence, random transforms undone")
def test_minimal_models(records):
    res = minimal_model(WeierstrassModel(0, 0, 0, -256, 0))
    assert res.model.ainvs() == (0, 0, 0, -1, 0) and res.u == 4

    for rec in records.values():
        again = minimal_model(rec.minimal_model)
        assert again.model == rec.minimal_model
        assert (again.u, again.r, again.s, again.t) == (1, 0, 0, 0)

    rng = random.Random(7)
    labels = ("11a1", "17a1", "24a1", "37a1", "49a1")
    for _ in range(40):
        m = records[rng.choice(labels)].minimal_model
        k = rng.randint(1, 3)
        blown = transform_model(
            m, Fraction(1, k), rng.randint(-8, 8), rng.randint(-4, 4), rng.randint(-8, 8)
        )
        res = minimal_model(blown)
        assert res.model == m and res.u == k


@criterion(4, "local 2-adic contributions hit their frozen values and respect the Hasse gate")
def test_local_contributions():
    assert local_v2_contribution(5, -2) == 7
    assert local_v2_contribution(3, 0) == 5
    assert local_v2_contribution(7, 1) == 1
    assert moddeg_v2_lower_exact(3, [(5, -2, local_v2_contribution(5, -2))]) == 6
    with pytest.raises(HasseViolation):
        local_v2_contribution(5, 5)


@criterion(5, "thresholds: 17a1 gives (t, kappa) = (11, 9); missing invariants refuse or get tagged")
def test_thresholds(records):
    rep = watkins_threshold(records["17a1"])
    assert (rep.threshold, rep.kappa, rep.omega_n, rep.v2_moddeg) == (11, 9, 1, 0)
    rep37 = watkins_threshold(records["37a1"])
    assert (rep37.threshold, rep37.kappa) == (10, 8)

    with pytest.raises(MissingInvariant):
        watkins_threshold(records["11a2"])
    bare = build_curve_record((1, -1, 1, -1, -14), moddeg=1)
    with pytest.raises(MissingInvariant):
        watkins_threshold(bare)
    assert watkins_threshold(bare, assume_manin=True).assumptions == ("manin_assumed_1",)


@criterion(6, "coarse upper meets torsion lower exactly when omega(D) reaches the threshold")
def test_bound_crossing_identity():
    for w in range(31):
        for n in range(7):
            for v in range(13):
                coarse = 2 * (w + n) - 1
                torsion = 3 * w + v - 7 - 3 * n
                assert (coarse <= torsion) == (w >= 6 + 5 * n - v), (w, n, v)


@criterion(7, "an eleven-prime twist of 17a1 certifies through both routes, with a clean certificate")
def test_certified_twist_end_to_end(records):
    D = 5 * 13 * 29 * 37 * 41 * 53 * 61 * 73 * 89 * 97 * 101
    cert = verify_twist(records["17a1"], D)
    assert cert.verdict == "CERTIFIED"
    assert cert.rank_upper_exact <= cert.lower_bound_exact  # exact route
    assert factorize(D).omega >= cert.threshold  # counting route
    assert cert.assumptions == ()

    obj = certificate_to_obj(cert)
    assert tuple(obj) == CERT_FIELDS
    assert json.loads(certificate_to_json(cert)) == obj

    def stringly(node):
        if node is None or isinstance(node, str):
            return True
        if isinstance(node, list):
            return all(stringly(x) for x in node)
        if isinstance(node, dict):
            return all(stringly(x) for x in node.values())
        return False

    assert stringly(obj)
    for key in ("d", "lower_bound_exact", "rank_upper_exact", "threshold"):
        assert INT_RE.match(obj[key]), key


@criterion(8, "exact bounds dominate counting bounds on every applicable twist up to |d| = 60")
def test_bound_dominance(records):
    sweeps = [
        records["17a1"],
        records["32a2"]._replace(moddeg=2, manin=1),
    ]
    for rec in sweeps:
        ctx = CertifyContext(rec)
        seen = 0
        for d in enumerate_fundamental_discriminants(60):
            cert = verify_twist(rec, d, context=ctx)
            assert cert.verdict in ("CERTIFIED", "INCONCLUSIVE"), cert.verdict_full
            assert cert.rank_upper_exact <= cert.rank_upper_coarse
            assert cert.lower_bound_exact >= cert.lower_bound_torsion
            expected = (
                cert.rank_upper_exact <= cert.lower_bound_exact
                or factorize(d).omega >= cert.threshold
            )
            assert (cert.verdict == "CERTIFIED") == expected
            seen += 1
        assert seen >= 30


@criterion(9, "fundamental discriminant machinery agrees with first-principles references")
def test_discriminant_machinery():
    for d in range(-500, 501):
        if d:
            assert is_fundamental_discriminant(d) == _fundamental_ref(d), d

    got = list(enumerate_fundamental_discriminants(300))
    want = []
    for a in range(2, 301):
        if _fundamental_ref(a):
            want.append(a)
        if _fundamental_ref(-a):
            want.append(-a)
    assert got == want

    for d in enumerate_fundamental_discriminants(300):
        prod = 1
        for q in prime_discriminant_parts(d):
            assert is_fundamental_discriminant(q)
            prod *= q
        assert prod == d

    assert count_omega_at_most(100, 1) == 36


@criterion(10, "scan is byte-deterministic across worker counts; formats agree; exit codes hold")
def test_scan_pipeline(records, tmp_path):
    start = time.monotonic()

    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        assert main(["scan", "--label", "17a1", "--offline", "--d-bound", "60",
                     "--jobs", "1", "--out", str(one)]) == 0
        assert main(["scan", "--label", "17a1", "--offline", "--d-bound", "60",
                     "--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()

    lines = one.read_text().strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    rows = [json.loads(line) for line in lines[:-1]]
    assert len(rows) == int(summary["total"]) > 0
    verdicts = [r["verdict"].split("(")[0] for r in rows]
    for key, name in (("certified", "CERTIFIED"), ("inconclusive", "INCONCLUSIVE"),
                      ("inapplicable", "INAPPLICABLE")):
        assert verdicts.count(name) == int(summary[key])

    csv_path = tmp_path / "scan.csv"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["scan", "--label", "17a1", "--offline", "--d-bound", "60",
                     "--format", "csv", "--out", str(csv_path)]) == 0
    csv_rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert csv_rows[0] == list(CERT_FIELDS)
    assert len(csv_rows) - 1 == len(rows)
    for obj, cells in zip(rows, csv_rows[1:]):
        rebuilt = {}
        for key, cell in zip(csv_rows[0], cells):
            if cell == "":
                rebuilt[key] = None
            elif cell and cell[0] in "[{":
                rebuilt[key] = json.loads(cell)
            else:
                rebuilt[key] = cell
        assert rebuilt == obj
    assert json.loads(err.getvalue())["summary"]["total"] == summary["total"]

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["verify", "--label", "17a1", "--offline", "--d", "5"]) == 0
        assert main(["verify", "--label", "17a1", "--offline", "--d", "-3"]) == 1
        assert main(["verify", "--label", "17a1", "--offline", "--d", "20"]) == 2
        assert main(["verify", "--label", "11a1", "--offline", "--d", "5"]) == 3

    assert time.monotonic() - start < 120
