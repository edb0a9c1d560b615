"""Bounds, thresholds, applicability gates, and certificates."""

import contextlib
import csv
import io
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import watkins.certify as certify
from watkins import arith, cli, ecq
from watkins.arith import TRIAL_LIMIT, enumerate_fundamental_discriminants, factorize, is_fundamental_discriminant
from watkins.certify import (
    CERT_FIELDS,
    CertifyContext,
    certificate_to_json,
    certificate_to_obj,
    faltings_delta_v2,
    is_minimal_twist,
    kappa,
    local_v2_contribution,
    moddeg_v2_lower_exact,
    moddeg_v2_lower_torsion,
    obj_to_flat,
    selmer_rank_upper,
    twist_prime_set,
    twist_rank_upper,
    verify_twist,
    watkins_threshold,
)
from watkins.ecq import build_curve_record, conductor, conductor_from_support, quadratic_twist
from watkins.errors import (
    HasseViolation,
    MissingInvariant,
    NotTwistPair,
    NoTwoTorsion,
)

INT_RE = re.compile(r"^-?[0-9]+$")


# --- local contributions and bounds ------------------------------------------


def test_local_contribution_frozen_values():
    assert local_v2_contribution(5, -2) == 7
    assert local_v2_contribution(3, 0) == 5
    assert local_v2_contribution(7, 1) == 1
    assert local_v2_contribution(13, 4) == 4


def test_local_contribution_hasse_guard():
    with pytest.raises(HasseViolation):
        local_v2_contribution(5, 5)


def test_local_contribution_at_least_three_for_even_trace():
    # odd p and even a_p make all three factors even
    for p in (3, 5, 7, 11, 13):
        for ap in range(-6, 7, 2):
            if ap * ap <= 4 * p:
                assert local_v2_contribution(p, ap) >= 3


def test_petersson_lower_frozen():
    # the sum of the local contributions minus one is the exact lower bound at v2(m/c^2) = 3
    assert moddeg_v2_lower_exact(3, [(5, -2, 7)]) == 6
    assert moddeg_v2_lower_exact(3, [(5, -2, 7), (3, 0, 5)]) == 11
    assert moddeg_v2_lower_exact(3, []) == -1


def test_moddeg_lower_bounds():
    assert moddeg_v2_lower_exact(0, [(5, -2, 7)]) == 3
    assert moddeg_v2_lower_exact(1, []) == -3
    assert moddeg_v2_lower_torsion(4, 0, 1, 1) == 4 * 3 + 0 - 7 - 3
    with pytest.raises(NoTwoTorsion):
        moddeg_v2_lower_torsion(4, 0, 1, 0)


def test_rank_upper_bounds():
    assert selmer_rank_upper(factorize(17)) == 1
    assert selmer_rank_upper(factorize(5**2 * 17)) == 3
    exact, coarse = twist_rank_upper(factorize(5**2 * 17), factorize(5), factorize(17))
    assert (exact, coarse) == (3, 3)


def test_twist_prime_set():
    assert twist_prime_set(factorize(-420), {2, 7}) == (3, 5)
    assert twist_prime_set(factorize(-4), {17}) == ()
    assert twist_prime_set(factorize(85), {17}) == (5,)


def test_bound_routes_cross_exactly_at_threshold():
    # coarse-upper <= torsion-lower is equivalent to omega(D) >= t
    for w in range(31):
        for n in range(7):
            for v in range(13):
                t = 6 + 5 * n - v
                coarse = 2 * (w + n) - 1
                torsion = 3 * w + v - 7 - 3 * n
                assert (coarse <= torsion) == (w >= t), (w, n, v)


# --- height comparison ---------------------------------------------------------


def test_faltings_delta(records):
    m17 = records["17a1"].minimal_model
    from watkins.ecq import minimal_model

    tw = minimal_model(quadratic_twist(m17, 5)).model
    assert faltings_delta_v2(m17, tw) and abs(v2_diff(m17, tw)) <= 18
    with pytest.raises(NotTwistPair):
        faltings_delta_v2(m17, records["11a1"].minimal_model)


def v2_diff(e1, e2):
    from watkins.arith import v2

    return v2(e1.disc) - v2(e2.disc)


def _delta_by_fractions(e1, e2):
    # the height check as it stood with j-invariants and the bound as Fractions
    if Fraction(e1.c4**3, e1.disc) != Fraction(e2.c4**3, e2.disc):
        raise NotTwistPair("curves have different j-invariants")
    return abs(Fraction(v2_diff(e1, e2), 6)) <= 3


def _delta_or_error(fn, e1, e2):
    try:
        return fn(e1, e2)
    except NotTwistPair:
        return "not_twist_pair"


@given(
    st.sampled_from(["11a1", "14a1", "17a1", "24a1", "27a1", "32a2", "37a1", "49a1", "256a1"]),
    st.sampled_from(["11a1", "11a3", "15a8", "17a1", "20a1", "36a1", "49a1"]),
    st.integers(min_value=-(10**7), max_value=10**7).filter(bool),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_integer_height_check_matches_fractions(records, label, other, d, minimal):
    from watkins.ecq import minimal_model

    m = records[label].minimal_model
    tw = quadratic_twist(m, d)  # non-minimal twists also cross the |.| <= 3 bound
    if minimal:
        tw = minimal_model(tw).model
    for e1, e2 in ((m, tw), (tw, m), (m, records[other].minimal_model), (tw, records[other].minimal_model)):
        assert _delta_or_error(faltings_delta_v2, e1, e2) == _delta_or_error(_delta_by_fractions, e1, e2)


# --- thresholds ------------------------------------------------------------------


def test_threshold_17a1(records):
    rep = watkins_threshold(records["17a1"])
    assert (rep.threshold, rep.kappa) == (11, 9)
    assert (rep.omega_n, rep.v2_moddeg) == (1, 0)
    assert rep.assumptions == ()


def test_threshold_37a1(records):
    rep = watkins_threshold(records["37a1"])  # moddeg 2, manin 1
    assert (rep.threshold, rep.kappa, rep.v2_moddeg) == (10, 8, 1)


def test_threshold_needs_invariants(records):
    with pytest.raises(MissingInvariant):
        watkins_threshold(records["11a2"])  # no modular degree in the catalog
    rec = build_curve_record((1, -1, 1, -1, -14), moddeg=1, manin=None)
    with pytest.raises(MissingInvariant):
        watkins_threshold(rec)
    rep = watkins_threshold(rec, assume_manin=True)
    assert rep.assumptions == ("manin_assumed_1",)
    assert rep.threshold == 11


def test_kappa_floor():
    assert kappa(11) == 9
    assert kappa(2) == 0
    assert kappa(-3) == 0


# --- minimal twist detection ------------------------------------------------------


def minimal_twist_candidates(n_fact):
    """Non-trivial fundamental discriminants supported on 2N's primes.

    Products of odd prime discriminants p* for p | N times a 2-part
    from {1, -4, 8, -8}; conductor-reducing twists live here.
    """
    odd = [p for p in n_fact.primes() if p != 2]
    parts = [p if p % 4 == 1 else -p for p in odd]
    out = []
    for mask in range(1 << len(parts)):
        base = 1
        for i, q in enumerate(parts):
            if mask >> i & 1:
                base *= q
        for two in (1, -4, 8, -8):
            d = base * two
            if d != 1:
                out.append(d)
    return tuple(sorted(out, key=lambda d: (abs(d), d < 0)))


def _minimal_twist_reference(curve):
    """is_minimal_twist by enumeration: all 4 * 2^k - 1 twists supported on 2N, k = omega_odd(N).

    The smallest (N_D, |d|, d < 0) among the twists with N_D < N is the witness.
    """
    n = curve.conductor.value
    best = None
    witness = None
    for d in minimal_twist_candidates(curve.conductor):
        support, twist_min = certify._twist_minimal_model(curve, d)
        cond = conductor_from_support(twist_min, support, proven=True).value
        key = (cond, abs(d), 0 if d > 0 else 1)
        if cond < n and (best is None or key < best):
            best = key
            witness = d
    return witness is None, witness


def test_minimal_twist_candidates_for_17():
    assert minimal_twist_candidates(factorize(17)) == (-4, 8, -8, 17, -68, 136, -136)


def test_minimal_twist_candidates_signs():
    # 11 = 3 mod 4 contributes -11
    cands = minimal_twist_candidates(factorize(11))
    assert -11 in cands and 11 not in cands


def test_is_minimal_twist(records):
    assert is_minimal_twist(records["17a1"]) == (True, None)
    assert is_minimal_twist(records["32a2"]) == (True, None)
    tw = quadratic_twist(records["17a1"].minimal_model, 5)
    rec = build_curve_record(tw.ainvs())
    assert rec.conductor.value == 5**2 * 17
    assert is_minimal_twist(rec) == (False, 5)


@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=-3000, max_value=3000),
    st.sampled_from((0, 1)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_is_minimal_twist_matches_the_enumeration(a, b, a1, data):
    # y^2 + a1*xy = x(x - A)(x + B) has the 2-torsion point (0, 0); its discriminant is
    # (AB)^2 * (b2^2 + 64AB), b2 = a1 + 4(B - A).  Its twist by a d supported on 2N brings in
    # non-minimal curves, whose witnesses meet the |t| and sign tie-breaks at 2.
    b2 = a1 + 4 * (b - a)
    assume(a * b != 0 and b2 * b2 != -64 * a * b)
    rec = build_curve_record((a1, b - a, 0, -a * b, 0))
    d = data.draw(st.sampled_from(minimal_twist_candidates(rec.conductor)), label="d")
    twisted = build_curve_record(quadratic_twist(rec.minimal_model, d).ainvs())
    assert twisted.two_torsion_rank == rec.two_torsion_rank  # a twist keeps E[2]
    for curve in (rec, twisted):
        assert is_minimal_twist(curve) == _minimal_twist_reference(curve)


def _square_class(d: int, p: int) -> tuple[int, int]:
    # the class of a fundamental d in Q_p*/Q_p*^2: its prime discriminant at p (or 1), and the
    # rest, a p-adic unit, by its Legendre symbol at odd p and its residue mod 8 at 2
    parts = arith.prime_discriminant_parts(d)
    at_p = next((q for q in parts if q % p == 0), 1)
    rest = d // at_p
    return at_p, rest % 8 if p == 2 else pow(rest, (p - 1) // 2, p)


_SMALL_FUNDAMENTAL = list(enumerate_fundamental_discriminants(400))


def test_square_classes_are_eight_at_two_and_four_at_odd_primes():
    assert len({_square_class(d, 2) for d in _SMALL_FUNDAMENTAL}) == 8
    for p in (3, 5, 7, 17):
        assert len({_square_class(d, p) for d in _SMALL_FUNDAMENTAL}) == 4, p


@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=-3000, max_value=3000),
    st.sampled_from((0, 1)),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_twists_in_one_square_class_at_p_agree_at_p(a, b, a1, data):
    # E^d over Q_p depends only on the class of d in Q_p*/Q_p*^2, so the conductor exponent
    # and v_p of the minimal discriminant at p do too: the rule a per-(p, class) table rests on
    b2 = a1 + 4 * (b - a)
    assume(a * b != 0 and b2 * b2 != -64 * a * b)
    rec = build_curve_record((a1, b - a, 0, -a * b, 0))
    p = data.draw(st.sampled_from(sorted({2, *rec.conductor.primes()})), label="p")
    d = data.draw(st.sampled_from(_SMALL_FUNDAMENTAL), label="d")
    same = [e for e in _SMALL_FUNDAMENTAL if _square_class(e, p) == _square_class(d, p)]
    d2 = data.draw(st.sampled_from(same), label="d2")

    def local(d):
        support, twist_min = certify._twist_minimal_model(rec, d, factorize(d).primes())
        return conductor_from_support(twist_min, support, proven=True).v(p), arith.vp(twist_min.disc, p)

    assert local(d) == local(d2)


def test_minimality_check_is_local_on_fourteen_primes():
    # y^2 = x(x - 15015)(x + 247095812): omega(N) = 14, so 4 * 2^13 - 1 twists by enumeration
    rec = build_curve_record((0, 247080797, 0, -3710143617180, 0))
    assert rec.conductor.omega == 14
    start = time.perf_counter()
    assert is_minimal_twist(rec) == (True, None)
    assert time.perf_counter() - start < 0.5  # milliseconds for omega(N) + 3 twists
    twisted = build_curve_record(quadratic_twist(rec.minimal_model, -120).ainvs())
    assert is_minimal_twist(twisted) == (False, -120)


def test_minimality_check_factors_nothing_and_matches_full_conductors(records, monkeypatch):
    # the reference: each candidate twist's conductor from scratch, smallest (N_D, |d|, sign) wins
    curves = dict(records)
    for d in (5, -4, 8):
        curves[f"17a1^{d}"] = build_curve_record(quadratic_twist(records["17a1"].minimal_model, d).ainvs())
    want = {}
    for label, rec in curves.items():
        keyed = [((conductor(quadratic_twist(rec.minimal_model, d)).value, abs(d), d < 0), d)
                 for d in minimal_twist_candidates(rec.conductor)]
        (cond, _, _), d = min(keyed)
        want[label] = (True, None) if cond >= rec.conductor.value else (False, d)

    def refuse(n):
        raise AssertionError(f"factorize({n}) in the minimality check")

    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(ecq, "factorize", refuse)
    assert {label: is_minimal_twist(rec) for label, rec in curves.items()} == want
    assert [want[f"17a1^{d}"] for d in (5, -4, 8)] == [(False, 5), (False, -4), (False, 8)]


def _counted_traces(monkeypatch) -> list[int]:
    """The primes certify.a_p is called at from now on; every per-record store starts empty."""
    calls = []
    real = certify.a_p

    def counting(m, p, **kw):
        calls.append(p)
        return real(m, p, **kw)

    monkeypatch.setattr(certify, "a_p", counting)
    certify._curve_facts.cache_clear()
    return calls


def test_context_caches_traces(records, monkeypatch):
    calls = _counted_traces(monkeypatch)
    ctx = CertifyContext(records["17a1"])
    assert ctx.ap(5) == ctx.ap(5) == (-2, 7)  # (a_p, c_p)
    assert calls == [5]


def test_contexts_of_one_curve_share_traces_below_the_limit(records, monkeypatch):
    rec = records["17a1"]
    small = [p for p in arith.small_primes()[1:] if p < certify.AP_SHARED_LIMIT and rec.conductor.value % p]
    assert len(small) == 1229 - 2  # every prime below 10^4 but 2 and 17
    calls = _counted_traces(monkeypatch)
    first, second = CertifyContext(rec), CertifyContext(rec)
    assert [first.ap(p) for p in small] == [second.ap(p) for p in small]
    assert calls == small
    # a prime at or above the limit is kept by its context alone
    del calls[:]
    assert first.ap(10007) == first.ap(10007) == second.ap(10007)
    assert calls == [10007, 10007]


def test_single_twist_calls_share_traces_below_the_limit(records, monkeypatch):
    rec = records["17a1"]
    calls = _counted_traces(monkeypatch)
    assert verify_twist(rec, 65) == verify_twist(rec, 65)  # 5 * 13
    assert verify_twist(rec, -50035) == verify_twist(rec, -50035)  # -5 * 10007
    assert calls == [5, 13, 10007, 10007]
    # the store is keyed on the record, so a record differing in any field has its own
    other = rec._replace(moddeg=2)
    assert verify_twist(other, 65).lower_bound_exact == verify_twist(rec, 65).lower_bound_exact + 1
    assert calls == [5, 13, 10007, 10007, 5, 13]
    assert CertifyContext(other)._shared is not CertifyContext(rec)._shared
    assert CertifyContext(rec._replace())._shared is CertifyContext(rec)._shared


def test_single_twist_store_stays_below_the_limit(records):
    # 20,000 twists with |d| up to 10^7 leave at most the 1,229 primes below 10^4 per record
    rng = random.Random(20)
    curves = [records[label] for label in ("17a1", "32a1", "49a1")]
    certify._curve_facts.cache_clear()
    for i in range(20000):
        d = 0
        while not is_fundamental_discriminant(d):
            d = rng.choice((-1, 1)) * rng.randint(10**6 + 1, 10**7)
        verify_twist(curves[i % 3], d)
    for rec in curves:
        store = CertifyContext(rec)._shared
        assert 0 < len(store) <= 1229
        assert all(p < certify.AP_SHARED_LIMIT for p in store)
    assert certify._curve_facts.cache_info().currsize == 3


# --- verify_twist -------------------------------------------------------------------


def test_verify_rejects_bad_discriminants(records):
    for d in (1, 20, -5, 45, 0):
        with pytest.raises(ValueError):
            verify_twist(records["17a1"], d)


def test_verify_certified(records):
    cert = verify_twist(records["17a1"], 5)
    assert cert.verdict == "CERTIFIED" and cert.verdict_full == "CERTIFIED"
    assert cert.curve == "17a1" and cert.d == 5
    assert cert.twist_conductor.value == 425
    assert cert.prime_set == ((5, -2, 7),)
    assert cert.lower_bound_exact == 3
    assert cert.rank_upper_exact == 3
    assert cert.rank_upper_coarse == 3
    assert cert.threshold == 11
    assert cert.assumptions == ()


def test_verify_inconclusive(records):
    cert = verify_twist(records["17a1"], -3)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.rank_upper_exact > cert.lower_bound_exact

    empty = verify_twist(records["17a1"], -4)  # no odd primes in d
    assert empty.verdict == "INCONCLUSIVE"
    assert empty.prime_set == ()
    assert empty.lower_bound_exact == -4


def test_verify_gate_order_and_reasons(records):
    assert verify_twist(records["11a1"], 5).verdict_full == "INAPPLICABLE(no_two_torsion)"

    tw = quadratic_twist(records["17a1"].minimal_model, 5)
    shifted = build_curve_record(tw.ainvs(), moddeg=1, manin=1)
    assert verify_twist(shifted, -3).verdict_full == "INAPPLICABLE(not_minimal_twist)"

    lied = records["17a1"]._replace(conductor=factorize(11))
    assert verify_twist(lied, 5).verdict_full == "INAPPLICABLE(conductor_divisibility)"

    assert verify_twist(records["15a8"], 5).verdict_full == "INAPPLICABLE(missing_invariant)"


def test_broken_invariant_is_inapplicable_not_a_traceback(records, monkeypatch):
    # a Tate table that claims f = 3 at p >= 5 breaks the conductor-exponent cap
    monkeypatch.setattr(ecq, "_tate_table", lambda m, p, n: ecq.LocalReduction(p, "I0*", 3, "additive"))
    cert = verify_twist(records["17a1"], 5)
    assert cert.verdict_full == "INAPPLICABLE(invariant_violation)"


def test_verify_budget_downgrade(records):
    # -100000007 is fundamental; its prime is past the counting budget
    cert = verify_twist(records["17a1"], -100000007)
    assert cert.verdict_full == "INAPPLICABLE(budget_exceeded)"
    assert cert.twist_conductor is None


def test_verify_flags_unproven_primality(records):
    base = records["17a1"]
    rec = base._replace(min_disc=base.min_disc._replace(proven=False))
    cert = verify_twist(rec, 5)
    assert cert.verdict == "CERTIFIED"
    assert "probabilistic_prime" in cert.assumptions


def test_verify_big_omega_route(records):
    primes = [5, 13, 29, 37, 41, 53, 61, 73, 89, 97, 101]
    D = 1
    for p in primes:
        D *= p
    cert = verify_twist(records["17a1"], D)
    assert cert.verdict == "CERTIFIED"
    # both routes fire: exact comparison and the counting threshold
    assert cert.rank_upper_exact <= cert.lower_bound_exact
    assert len(primes) >= cert.threshold


def test_verify_assume_manin_flows_through(records):
    rec = build_curve_record((1, -1, 1, -1, -14), moddeg=1, manin=None)
    cert = verify_twist(rec, 5, assume_manin=True)
    assert cert.verdict == "CERTIFIED"
    assert cert.assumptions == ("manin_assumed_1",)


def test_verify_assume_manin_holds_with_a_shared_context(records):
    rec = records["17a1"]._replace(manin=None)
    ctx = CertifyContext(rec)
    for _ in range(2):  # either flag, in either order, on one context
        cert = verify_twist(rec, 5, assume_manin=True, context=ctx)
        assert cert == verify_twist(rec, 5, assume_manin=True)
        assert cert.verdict == "CERTIFIED" and cert.assumptions == ("manin_assumed_1",)
        assert verify_twist(rec, 5, context=ctx).verdict_full == "INAPPLICABLE(missing_invariant)"


def test_context_free_verify_checks_minimality_once_per_curve(records, monkeypatch):
    calls = []  # every twist the minimality check reads: verify_twist itself passes d's primes
    real = certify._twist_minimal_model

    def counting(curve, d, *d_primes):
        if not d_primes:
            calls.append(d)
        return real(curve, d, *d_primes)

    monkeypatch.setattr(certify, "_twist_minimal_model", counting)
    rec = records["17a1"]._replace(label="17a1-counted")
    certify._curve_facts.cache_clear()
    for d in (5, -3, 13, -4, 1000033):
        verify_twist(rec, d)
    assert sorted(calls) == [-8, -4, 8, 17]  # p* for each odd p | N, then the 2-parts
    # a record that differs in any field gets its own check
    verify_twist(rec._replace(label="17a1-relabelled"), 5)
    assert len(calls) == 8
    verify_twist(rec._replace(), 5)
    assert len(calls) == 8


def _gate_records(records) -> dict:
    """Every fixture, and records that fail a later gate or lack the Manin constant."""
    base = records["17a1"]
    return {
        **records,  # 11a1 has no 2-torsion, 15a8 no modular degree
        "17a1^5": build_curve_record(quadratic_twist(base.minimal_model, 5).ainvs(), moddeg=1, manin=1),
        "17a1-lied": base._replace(conductor=factorize(11)),
        "17a1-manin-unknown": base._replace(manin=None),
    }


def _seeded_discriminants(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice((-1, 1)) * rng.randint(2, rng.choice((500, 10**5, 10**7)))
        if is_fundamental_discriminant(d):
            out.append(d)
    return out


def test_certificates_agree_with_no_context_a_fresh_one_and_a_shared_one(records):
    ds = _seeded_discriminants(22, 12)
    assert any(p >= certify.AP_SHARED_LIMIT for d in ds for p in factorize(d).primes())
    seen = set()
    for label, rec in _gate_records(records).items():
        for assume_manin in (False, True):
            shared = CertifyContext(rec)
            for d in ds:
                certify._curve_facts.cache_clear()  # the single-twist call starts from nothing
                cold = verify_twist(rec, d, assume_manin=assume_manin)
                fresh = verify_twist(rec, d, assume_manin=assume_manin, context=CertifyContext(rec))
                assert verify_twist(rec, d, assume_manin=assume_manin, context=shared) == fresh == cold, (label, d)
                seen.add((cold.verdict_full, cold.assumptions))
    verdicts = {verdict for verdict, _ in seen}
    assert {"CERTIFIED", "INCONCLUSIVE"} < verdicts
    for reason in ("no_two_torsion", "not_minimal_twist", "conductor_divisibility", "missing_invariant"):
        assert f"INAPPLICABLE({reason})" in verdicts
    assert any("manin_assumed_1" in assumptions for _, assumptions in seen)


def test_curve_facts_are_computed_once_per_record_across_a_scan_and_single_twists(records, monkeypatch):
    calls = {"is_minimal_twist": [], "a_p": [], "local_v2_contribution": []}
    for name, log in calls.items():
        real = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda *args, _real=real, _log=log: _log.append(args) or _real(*args))
    certify._curve_facts.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scan", "--label", "17a1", "--offline", "--d-bound", "300"]) == 0
    scanned = len(calls["a_p"])
    for d in (65, -39, 221, -50035, -50035):  # primes the scan met, and 10007 twice
        verify_twist(records["17a1"], d)
        verify_twist(records["32a1"], d)
    assert scanned and len(calls["is_minimal_twist"]) == 2  # 17a1 (the scan's record is equal), 32a1
    small = [(m, p) for m, p in calls["a_p"] if p < certify.AP_SHARED_LIMIT]
    assert len(small) == len(set(small)) == scanned + 4  # and 32a1 at 3, 5, 13, 17
    assert [p for _, p in calls["a_p"] if p >= certify.AP_SHARED_LIMIT] == [10007] * 4  # kept per context
    assert len(calls["local_v2_contribution"]) == len(calls["a_p"])


def test_height_check_failure_is_inapplicable(records, monkeypatch):
    monkeypatch.setattr(certify, "faltings_delta_v2", lambda e1, e2: False)
    cert = verify_twist(records["17a1"], 5)
    assert cert.verdict_full == "INAPPLICABLE(invariant_violation)"


TWO_TORSION = ("14a1", "15a1", "15a8", "17a1", "20a1", "24a1", "32a1", "32a2", "36a1", "49a1", "256a1")
PAST_TRIAL_WALL = (1000003, 1000033, 2000003, 9999991)  # primes above TRIAL_LIMIT


@st.composite
def fundamental_discriminants(draw):
    # a squarefree core, half the time times a prime past the trial-division wall
    d = draw(st.integers(min_value=2, max_value=10**5)) * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        d *= draw(st.sampled_from(PAST_TRIAL_WALL))
    if d % 4 != 1:
        d *= 4
    assume(is_fundamental_discriminant(d))
    return d


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TWO_TORSION), fundamental_discriminants())
def test_twist_conductor_from_support_matches_full_conductor(records, label, d):
    assert min(PAST_TRIAL_WALL) > TRIAL_LIMIT
    rec = records[label]
    assert rec.two_torsion_rank >= 1
    # a stand-in modular degree so every 2-torsion fixture reaches the conductor
    rec = rec._replace(moddeg=rec.moddeg or 1, manin=rec.manin or 1)
    cert = verify_twist(rec, d)
    assert cert.twist_conductor is not None, cert.verdict_full
    assert cert.twist_conductor == conductor(quadratic_twist(rec.minimal_model, d))


# --- the table of reductions at 2 -------------------------------------------------


def test_two_adic_class_splits_like_the_square_class():
    # the table's key and the test-side square class at 2 cut |d| <= 400 into the same 8 classes
    split = {}
    for d in _SMALL_FUNDAMENTAL:
        split.setdefault(certify._two_adic_class(d), set()).add(_square_class(d, 2))
    assert len(split) == 8
    assert all(len(classes) == 1 for classes in split.values())
    assert len(set().union(*split.values())) == 8


@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=-3000, max_value=3000),
    st.sampled_from((0, 1)),
    fundamental_discriminants(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_a_warm_table_at_two_gives_the_cold_certificate(a, b, a1, d, data):
    # y^2 + a1*xy = x(x - A)(x + B), moved to the minimal twist of its family so the gates pass
    b2 = a1 + 4 * (b - a)
    assume(a * b != 0 and b2 * b2 != -64 * a * b)
    rec = build_curve_record((a1, b - a, 0, -a * b, 0))
    minimal, witness = is_minimal_twist(rec)
    if not minimal:
        rec = build_curve_record(quadratic_twist(rec.minimal_model, witness).ainvs())
    rec = rec._replace(moddeg=1, manin=1)
    key = certify._two_adic_class(d)
    d2 = data.draw(st.sampled_from([e for e in _SMALL_FUNDAMENTAL if certify._two_adic_class(e) == key and e != d]))

    certify._curve_facts.cache_clear()
    cold = verify_twist(rec, d)
    certify._curve_facts.cache_clear()
    warm = CertifyContext(rec)
    warm.at_two(d2, certify._twist_minimal_model(rec, d2, factorize(d2).primes())[1])
    assert key in warm._at_two  # filled by d2, or by a twist of the minimality check
    assert verify_twist(rec, d, context=warm) == cold

    # the table against Tate's algorithm at 2, and the conductor against the full local loop
    d_fact = factorize(d)
    support, twist_min = certify._twist_minimal_model(rec, d, d_fact.primes())
    assert warm.at_two(d, twist_min) == ecq.tate_local(twist_min, 2)
    if cold.twist_conductor is not None:
        assert cold.twist_conductor == conductor_from_support(
            twist_min, support, proven=d_fact.proven and rec.min_disc.proven
        )


def test_tate_runs_at_two_once_per_two_adic_class_of_a_record(records, monkeypatch):
    calls = []
    real = ecq.tate_local

    def counting(m, p):
        if p == 2:
            calls.append(m)
        return real(m, p)

    monkeypatch.setattr(ecq, "tate_local", counting)
    monkeypatch.setattr(certify, "tate_local", counting)
    certify._curve_facts.cache_clear()
    argv = ["scan", "--label", "17a1", "--offline", "--d-bound", "3000"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # 17a1's own discriminant, -17^4, is odd: building its record runs no Tate at 2
    assert 0 < len(calls) <= 8
    first = len(calls)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # a second scan builds an equal record
    for d in _seeded_discriminants(24, 20):  # and context-free calls share its table
        verify_twist(records["17a1"], d)
    assert len(calls) == first


def test_verify_with_shared_context_matches(records):
    ctx = CertifyContext(records["17a1"])
    for d in (-8, -3, 5, 13):
        assert verify_twist(records["17a1"], d, context=ctx) == verify_twist(
            records["17a1"], d
        )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(enumerate_fundamental_discriminants(60))))
def test_bound_dominance_on_real_twists(records, d):
    cert = verify_twist(records["17a1"], d)
    assert cert.verdict in ("CERTIFIED", "INCONCLUSIVE")
    assert cert.rank_upper_exact <= cert.rank_upper_coarse
    assert cert.lower_bound_exact >= cert.lower_bound_torsion
    if cert.rank_upper_exact <= cert.lower_bound_exact:
        assert cert.verdict == "CERTIFIED"


# --- serialization -------------------------------------------------------------------


def _assert_obj_is_stringly(node):
    if node is None or isinstance(node, str):
        return
    if isinstance(node, list):
        for item in node:
            _assert_obj_is_stringly(item)
        return
    if isinstance(node, dict):
        for item in node.values():
            _assert_obj_is_stringly(item)
        return
    raise AssertionError(f"non-string leaf {node!r}")


def test_certificate_obj_shape(records):
    cert = verify_twist(records["17a1"], 5)
    obj = certificate_to_obj(cert)
    assert tuple(obj) == CERT_FIELDS
    _assert_obj_is_stringly(obj)
    assert obj["d"] == "5"
    assert INT_RE.match(obj["lower_bound_exact"])
    assert obj["twist_conductor"] == {
        "value": "425",
        "factors": [["5", "2"], ["17", "1"]],
    }
    assert obj["prime_set"] == [["5", "-2", "7"]]
    assert json.loads(certificate_to_json(cert)) == obj


def test_certificate_obj_inapplicable(records):
    obj = certificate_to_obj(verify_twist(records["11a1"], 5))
    assert obj["verdict"] == "INAPPLICABLE(no_two_torsion)"
    assert obj["twist_conductor"] is None
    assert obj["lower_bound_exact"] is None


def test_certificate_flat_row_roundtrip(records):
    cert = verify_twist(records["17a1"], 5)
    obj = certificate_to_obj(cert)
    flat = obj_to_flat(obj)
    assert len(flat) == len(CERT_FIELDS)

    buf = io.StringIO()
    csv.writer(buf).writerow(flat)
    (parsed,) = list(csv.reader(io.StringIO(buf.getvalue())))
    rebuilt = {}
    for key, cell in zip(CERT_FIELDS, parsed):
        if cell == "":
            rebuilt[key] = None
        elif cell and cell[0] in "[{":
            rebuilt[key] = json.loads(cell)
        else:
            rebuilt[key] = cell
    assert rebuilt == obj
