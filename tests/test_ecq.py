"""Weierstrass models, reduction, conductors, and point counts."""

import random
import time
from fractions import Fraction
from itertools import count, islice
from math import isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from watkins import arith, ecq
from watkins.arith import small_primes
from watkins.ecq import (
    WeierstrassModel,
    a_p,
    build_curve_record,
    conductor,
    conductor_from_support,
    local_reductions,
    minimal_model,
    quadratic_twist,
    tate_local,
    transform_model,
    two_torsion_rank,
)
from watkins.errors import (
    BadReduction,
    BudgetExceeded,
    IncompleteSupport,
    InvariantViolation,
    NotMinimal,
    SingularModel,
)

from conftest import brute_ap, legendre_ap

# Reduction data at the interesting primes, checked against the
# conductor exponents the catalog forces.
KODAIRA = {
    ("11a3", 11): ("I1", 1, "multiplicative"),
    ("14a1", 2): ("I6", 1, "multiplicative"),
    ("14a1", 7): ("I3", 1, "multiplicative"),
    ("15a8", 3): ("I1", 1, "multiplicative"),
    ("15a8", 5): ("I1", 1, "multiplicative"),
    ("20a1", 2): ("IV*", 2, "additive"),
    ("24a1", 2): ("I1*", 3, "additive"),
    ("27a1", 3): ("IV*", 3, "additive"),
    ("32a2", 2): ("III", 5, "additive"),
    ("36a1", 2): ("IV", 2, "additive"),
    ("36a1", 3): ("III", 2, "additive"),
    ("49a1", 7): ("III", 2, "additive"),
    ("121b1", 11): ("III", 2, "additive"),
    ("256a1", 2): ("III", 8, "additive"),
}

# level-11 and level-37 newform coefficients, from the standard tables
AP_TABLE = {
    ("11a1", 2): -2,
    ("11a1", 3): -1,
    ("11a1", 5): 1,
    ("11a1", 7): -2,
    ("11a1", 13): 4,
    ("37a1", 2): -2,
    ("37a1", 3): -3,
}


# --- model invariants ---------------------------------------------------------


def test_invariant_identities(records):
    for rec in records.values():
        m = rec.minimal_model
        assert 4 * m.b8 == m.b2 * m.b6 - m.b4**2
        assert m.c4**3 - m.c6**2 == 1728 * m.disc
        assert Fraction(m.c4**3, m.disc) == 1728 + Fraction(m.c6**2, m.disc)  # j and j - 1728


def test_singular_model_rejected():
    with pytest.raises(SingularModel):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(SingularModel):
        WeierstrassModel(0, 0, 0, -3, 2)  # disc = 0


def test_j_invariant_cm_value(records):
    m = records["32a2"].minimal_model
    assert Fraction(m.c4**3, m.disc) == 1728


@given(st.tuples(*[st.integers(min_value=-(10**6), max_value=10**6)] * 5))
@settings(max_examples=200, deadline=None)
def test_eager_invariants_match_textbook_formulas(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if disc == 0:
        with pytest.raises(SingularModel):
            WeierstrassModel(*ainvs)
        return
    m = WeierstrassModel(*ainvs)
    assert (m.b2, m.b4, m.b6, m.b8, m.c4, m.c6, m.disc) == (b2, b4, b6, b8, c4, c6, disc)
    assert 1728 * disc == c4**3 - c6**2


def test_model_identity_reads_only_the_a_invariants(records):
    assert WeierstrassModel._fields == ("a1", "a2", "a3", "a4", "a6")
    rec = records["17a1"]
    m = rec.minimal_model
    twin = WeierstrassModel(*m.ainvs())
    twin.__dict__.update(b2=0, b4=0, b6=0, b8=0, c4=0, c6=0, disc=1)
    assert twin == m and hash(twin) == hash(m)
    assert repr(twin) == repr(m) == "WeierstrassModel(a1=1, a2=-1, a3=1, a4=-1, a6=-14)"
    twin_rec = rec._replace(minimal_model=twin)
    assert twin_rec == rec and hash(twin_rec) == hash(rec)


# --- coordinate changes ---------------------------------------------------------


def test_transform_scaling_example():
    big = WeierstrassModel(0, 0, 0, -256, 0)
    small = transform_model(big, 4)
    assert small.ainvs() == (0, 0, 0, -1, 0)
    assert big.disc == small.disc * 4**12


def test_transform_checks_the_discriminant():
    m = WeierstrassModel(0, 0, 0, -256, 0)
    m.__dict__["disc"] += 1  # a model whose stored discriminant is off
    with pytest.raises(InvariantViolation):
        transform_model(m, 4)


def test_transform_rejects_non_integral():
    m = WeierstrassModel(0, 0, 0, -1, 0)
    with pytest.raises(ValueError):
        transform_model(m, 2)  # a4/16 is not an integer


def test_minimal_model_scaling_example():
    res = minimal_model(WeierstrassModel(0, 0, 0, -256, 0))
    assert res.model.ainvs() == (0, 0, 0, -1, 0)
    assert (res.u, res.r, res.s, res.t) == (4, 0, 0, 0)


def test_minimal_model_idempotent_on_catalog(records):
    for rec in records.values():
        res = minimal_model(rec.minimal_model)
        assert res.model == rec.minimal_model
        assert (res.u, res.r, res.s, res.t) == (1, 0, 0, 0)


@given(
    st.sampled_from(["11a1", "17a1", "24a1", "37a1", "49a1"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-8, max_value=8),
)
@settings(max_examples=60, deadline=None)
# units with primes past the trial-division wall, a perfect power of one, and 2, 3 beside them
@example("17a1", 1000003, 0, 0, 0)
@example("49a1", 1000003 * 1000033, 1, -1, 2)
@example("15a1", 10**12 + 39, 0, 0, 0)
@example("17a1", 6 * (10**12 + 39), -3, 1, 0)
@example("15a1", 2**5 * 3**3 * 1000003, 2, 0, -1)
@example("49a1", 2**5 * 3**3 * 1000003, 0, 0, 0)
def test_minimal_model_undoes_transforms(records, label, k, r, s, t):
    rec = records[label]
    m = rec.minimal_model
    blown = transform_model(m, Fraction(1, k), r, s, t)
    assert blown.disc == m.disc * k**12
    assert minimal_model(blown).model == m
    got = build_curve_record(blown.ainvs())
    assert (got.minimal_model, got.min_disc, got.conductor) == (m, rec.min_disc, rec.conductor)


@pytest.mark.parametrize("k", [10**12 + 39, 1000003 * 1000033])
def test_a_large_unit_beside_a_large_minimal_discriminant_prime(k):
    # Delta_min = -2^4 * 2700002700000679 and k both hold primes past the trial-division wall;
    # the unit comes out of gcd(c4, c6), so rho never has to split u^12 * Delta_min
    m = WeierstrassModel(0, 0, 0, 1, 10000005)
    want = build_curve_record(m.ainvs())
    assert want.min_disc.factors == ((2, 4), (2700002700000679, 1))
    blown = transform_model(m, Fraction(1, k), 0, 0, 0)
    start = time.perf_counter()
    assert build_curve_record(blown.ainvs()) == want
    assert conductor(blown) == want.conductor
    assert minimal_model(blown) == (m, k, 0, 0, 0)
    assert time.perf_counter() - start < 2.0  # milliseconds when the unit is taken out first


# fundamental discriminants coprime to 1000003 and 1000033, both above TRIAL_LIMIT
SMALL_FUNDAMENTAL = (-8, -7, -4, -3, 5, 8, 12, 13, -15, 17, -20, 21, -24, 28, 40, -84, 105, -120, 1001)
LARGE_PRIME_PARTS = (1, -1000003, 1000033)  # p* = +-p, 1 (mod 4)


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20).filter(bool),
    st.sampled_from((1, 5, 7)),
    st.sampled_from(SMALL_FUNDAMENTAL),
    st.sampled_from(LARGE_PRIME_PARTS),
)
@settings(max_examples=150, deadline=None)
def test_minimal_model_over_the_twist_support_matches_the_gcd_primes(a, b, s, d0, large):
    # y^2 = x(x^2 + s a x + s^2 b) twisted by d, with the prime set verify_twist passes against
    # the default, the primes of gcd(c4, c6); the scaling unit holds 2 and 3, and s too when
    # s divides d
    if a * a == 4 * b:
        return
    d = d0 * large
    assert arith.is_fundamental_discriminant(d)
    base = minimal_model(WeierstrassModel(0, s * a, 0, s * s * b, 0)).model
    twisted = quadratic_twist(base, d)
    support = {2, 3, *arith.factorize(d).primes(), *arith.factorize(base.disc).primes()}
    res = minimal_model(twisted, support)
    assert res == minimal_model(twisted)
    assert transform_model(twisted, res.u, res.r, res.s, res.t) == res.model
    for p in arith.factorize(res.model.disc).primes():
        assert _p_minimal_reference(res.model, p), p


def _p_minimal_reference(m, p):
    # no integral model at x = p^2 x' + r, y = p^3 y' + s p^2 x' + t: it suffices to try r mod p^2,
    # s mod p and t mod p^3; one would have disc / p^12 as its discriminant, and at p >= 5
    # one exists exactly when p^4 | c4 and p^6 | c6
    if m.disc % p**12:
        return True
    if p >= 5:
        return m.c4 % p**4 != 0 or m.c6 % p**6 != 0
    for r in range(p * p):
        for s in range(p):
            for t in range(p**3):
                try:
                    transform_model(m, p, r, s, t)
                    return False
                except ValueError:
                    pass
    return True


def test_p_minimal_reference_sees_a_scaled_model():
    for m, p in ((WeierstrassModel(0, 0, 0, -16, 0), 2), (WeierstrassModel(0, 0, 0, -81, 0), 3),
                 (WeierstrassModel(0, 0, 0, -625, 0), 5)):
        assert not _p_minimal_reference(m, p)
        assert _p_minimal_reference(minimal_model(m).model, p)


@given(
    st.tuples(*[st.integers(min_value=-20, max_value=20)] * 5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-8, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_integer_round_trip_matches_transform_model(ainvs, k, r, s, t):
    try:
        base = WeierstrassModel(*ainvs)
    except SingularModel:
        return
    m = transform_model(base, Fraction(1, k), r, s, t)
    res = minimal_model(m)
    assert transform_model(m, res.u, res.r, res.s, res.t) == res.model
    # the reference and the integer check agree on the true transform and on wrong ones
    for u, r2, s2, t2 in (
        (res.u, res.r, res.s, res.t),
        (res.u, res.r + 1, res.s, res.t),
        (res.u, res.r, res.s - 1, res.t),
        (res.u, res.r, res.s, res.t + 1),
        (2 * res.u, res.r, res.s, res.t),
    ):
        try:
            want = transform_model(m, u, r2, s2, t2) == res.model
        except ValueError:
            want = False
        assert ecq._transforms_to(m, res.model, u, r2, s2, t2) == want


def test_minimal_model_checks_raise_typed_errors(monkeypatch):
    m = WeierstrassModel(0, 0, 0, -256, 0)
    monkeypatch.setattr(ecq, "_transforms_to", lambda *args: False)
    with pytest.raises(InvariantViolation):
        minimal_model(m)
    monkeypatch.setattr(ecq, "_kraus_ok", lambda c4, c6: False)
    with pytest.raises(InvariantViolation):
        minimal_model(m)


# --- local reduction and conductors ---------------------------------------------


def _prep_step7_reference(w, p):
    # the search as it stood before it tested residues on coefficient tuples:
    # one full model per trial shift
    p2, p3 = p * p, p**3
    for s in range(p2):
        for t in range(p3):
            c = ecq._shift(w, 0, s, t)
            if c.a1 % p == 0 and c.a2 % p == 0 and c.a3 % p2 == 0 and c.a4 % p2 == 0 and c.a6 % p3 == 0:
                return c
    return None


@given(
    st.sampled_from((2, 3)),
    st.tuples(*[st.integers(min_value=-30, max_value=30)] * 5),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_prep_step7_matches_model_by_model_search(p, xs, s, t, normalizable):
    if normalizable:
        # a model in step-7 form, moved off it by an (s, t) shift
        a1, a2, a3, a4, a6 = (x * p**k for x, k in zip(xs, (1, 1, 2, 2, 3)))
    else:
        a1, a2, a3, a4, a6 = xs
    try:
        w = ecq._shift(WeierstrassModel(a1, a2, a3, a4, a6), 0, s, t)
    except SingularModel:
        return
    want = _prep_step7_reference(w, p)
    if want is None:
        assert not normalizable
        with pytest.raises(InvariantViolation):
            ecq._prep_step7(w, p)
    else:
        assert ecq._prep_step7(w, p) == want


def test_kodaira_table(records):
    for (label, p), (kod, f, kind) in KODAIRA.items():
        red = tate_local(records[label].minimal_model, p)
        assert (red.kodaira, red.f, red.kind) == (kod, f, kind), (label, p)


def test_good_reduction_outside_conductor(records):
    m = records["17a1"].minimal_model
    red = tate_local(m, 5)
    assert (red.kodaira, red.f, red.kind) == ("I0", 0, "good")


@given(
    st.tuples(*[st.integers(min_value=-20, max_value=20)] * 5),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-8, max_value=8),
)
@example((0, 0, 0, -1, 0), 2, 2, 0, 0, 0)  # y^2 = x^3 - 256x
@settings(max_examples=200, deadline=None)
def test_tate_requires_local_minimality(ainvs, p, k, r, s, t):
    # Tate's algorithm refuses a model scaled by p^k by itself: at its last step for p = 2, 3,
    # and from the valuation table at p >= 5; a p-minimal model reduces as the minimal model does
    try:
        base = WeierstrassModel(*ainvs)
    except SingularModel:
        return
    m = transform_model(base, Fraction(1, p**k), r, s, t)
    if _p_minimal_reference(m, p):
        assert tate_local(m, p) == tate_local(minimal_model(m).model, p)
    else:
        with pytest.raises(NotMinimal):
            tate_local(m, p)


def test_conductors_match_catalog(records, fixture_rows):
    for label, rec in records.items():
        assert rec.conductor.value == fixture_rows[label].conductor, label


def test_conductor_exponent_caps(records):
    for rec in records.values():
        for red in local_reductions(rec.minimal_model, rec.min_disc.primes()):
            cap = {2: 8, 3: 5}.get(red.p, 2)
            assert 0 < red.f <= cap


# --- twisting ---------------------------------------------------------------------


@given(
    st.sampled_from(["11a1", "17a1", "32a2", "37a1", "49a1"]),
    st.sampled_from([-8, -7, -4, -3, 5, 8, 12, 13]),
)
@settings(max_examples=40, deadline=None)
def test_twist_preserves_j_and_double_twist_cancels(records, label, d):
    m = records[label].minimal_model
    tw = quadratic_twist(m, d)
    assert Fraction(tw.c4**3, tw.disc) == Fraction(m.c4**3, m.disc)
    back = minimal_model(quadratic_twist(tw, d)).model
    assert back == minimal_model(m).model


def test_twist_conductor_example(records):
    tw = quadratic_twist(records["17a1"].minimal_model, 5)
    cond = conductor(minimal_model(tw).model)
    assert cond.value == 5**2 * 17


def test_support_missing_a_bad_prime_raises(records):
    twist_min = minimal_model(quadratic_twist(records["17a1"].minimal_model, 5)).model
    with pytest.raises(IncompleteSupport):
        conductor_from_support(twist_min, {2, 3, 5}, proven=True)
    with pytest.raises(IncompleteSupport):
        conductor_from_support(twist_min, {2, 3, 17}, proven=True)
    assert conductor_from_support(twist_min, {2, 3, 5, 17}, proven=True).value == 5**2 * 17


# --- 2-torsion ----------------------------------------------------------------------


def test_two_torsion_matches_catalog(records, fixture_rows):
    for label, row in fixture_rows.items():
        if row.torsion_structure is None:
            continue
        want = sum(1 for inv in row.torsion_structure if inv % 2 == 0)
        assert records[label].two_torsion_rank == want, label


def test_two_torsion_values(records):
    assert two_torsion_rank(records["11a1"].minimal_model) == 0
    assert two_torsion_rank(records["17a1"].minimal_model) == 1
    assert two_torsion_rank(records["32a2"].minimal_model) == 2
    assert two_torsion_rank(records["15a1"].minimal_model) == 2


def test_integer_roots_match_a_scan_inside_the_cauchy_bound():
    # every monic cubic with |b| <= 8, |c|, |d| <= 16: double roots, cuts that meet, roots at a cut
    for b in range(-8, 9):
        for c in range(-16, 17):
            for d in range(-16, 17):
                bound = 1 + max(abs(b), abs(c), abs(d))
                want = [x for x in range(-bound, bound + 1) if ((x + b) * x + c) * x + d == 0]
                assert list(ecq._integer_roots(b, c, d)) == want, (b, c, d)


def _two_torsion_rank_reference(m):
    # the rational roots of the monic X^3 + b2 X^2 + 8b4 X + 16b6 are integers dividing its constant term
    b2, b4, c0 = m.b2, m.b4, 16 * m.b6
    if c0 == 0:  # X = 0, and the roots of X^2 + b2 X + 8b4
        dsc = b2 * b2 - 32 * b4
        return 2 if dsc >= 0 and isqrt(dsc) ** 2 == dsc else 1
    divisors = [1]
    for p, e in arith.factorize(c0).factors:
        divisors = [dv * p**i for dv in divisors for i in range(e + 1)]
    roots = sum(1 for dv in divisors for x in (dv, -dv) if x**3 + b2 * x * x + 8 * b4 * x + c0 == 0)
    return {0: 0, 1: 1, 3: 2}[roots]


_small = st.integers(min_value=-(10**4), max_value=10**4)
# y^2 + a1 xy = x(x - A)(x + B), with (0, 0) of order 2, moved by a random (r, s, t)
_with_two_torsion = st.builds(
    lambda a1, a, b, r, s, t: ((a1, b - a, 0, -a * b, 0), (r, s, t)),
    st.sampled_from((0, 1)), _small, _small, *[st.integers(min_value=-300, max_value=300)] * 3,
)
# random models, almost all without 2-torsion
_any_model = st.tuples(st.tuples(*[_small] * 5), st.just((0, 0, 0)))
# a3 = a6 = 0, so b6 = 0 and X = 0 is a root
_root_at_zero = st.tuples(st.tuples(_small, _small, st.just(0), _small, st.just(0)), st.just((0, 0, 0)))


@given(st.one_of(_with_two_torsion, _any_model, _root_at_zero))
@settings(max_examples=300, deadline=None)
def test_two_torsion_rank_matches_the_divisor_reference(curve):
    ainvs, shift = curve
    try:
        m = ecq._shift(WeierstrassModel(*ainvs), *shift)
    except SingularModel:
        assume(False)
    assert two_torsion_rank(m) == _two_torsion_rank_reference(m)


_root = st.integers(min_value=-(10**13), max_value=10**13)
_wide = st.integers(min_value=-(10**40), max_value=10**40)


@given(_root, _root, _root, _wide, st.sampled_from(("split", "irreducible", "none")))
@settings(max_examples=100, deadline=None)
def test_two_torsion_rank_of_known_roots_at_forty_digits(r, u, v, w, kind):
    # y^2 = x^3 + a2 x^2 + a4 x + a6, built from its roots, so the rank is known without factoring
    if kind == "split":  # (x - r)(x - u)(x - v), three distinct roots
        assume(len({r, u, v}) == 3)
        (a2, a4, a6), rank = (-(r + u + v), r * u + r * v + u * v, -r * u * v), 2
    elif kind == "irreducible":  # (x - r)(x^2 + sx + t), s and t odd: s^2 - 4t = 5 (mod 8) is no square
        s, t = 2 * u + 1, 2 * w + 1
        (a2, a4, a6), rank = (s - r, t - r * s, -r * t), 1
    else:  # Eisenstein at 2: x^3 + 2u x^2 + 2v x + 2(2w + 1) has no rational root
        (a2, a4, a6), rank = (2 * u, 2 * v, 2 * (2 * w + 1)), 0
    try:
        m = WeierstrassModel(0, a2, 0, a4, a6)
    except SingularModel:
        assume(False)
    assert two_torsion_rank(m) == rank


def test_two_torsion_rank_factors_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) in two_torsion_rank")

    monkeypatch.setattr(ecq, "factorize", refuse)
    # 16 b6 leaves a 41-digit cofactor past trial division, which rho does not split within RHO_STEPS
    m = WeierstrassModel(0, 1, 0, -10737685738349923859307006813537, -5470259820718050594910720652148511698490129377)
    assert two_torsion_rank(m) == 1


# --- point counting ------------------------------------------------------------------


def test_ap_against_newform_tables(records):
    for (label, p), want in AP_TABLE.items():
        assert a_p(records[label].minimal_model, p) == want, (label, p)


def test_ap_against_brute_force(records):
    for label in ("11a1", "14a1", "17a1", "27a3", "32a2", "37a1"):
        m = records[label].minimal_model
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if m.disc % p == 0:
                continue
            assert a_p(m, p) == brute_ap(m, p), (label, p)


def test_point_count_against_brute_force_at_every_good_prime_to_500(records):
    # the character-table count against the full (x, y) grid, over the whole counting range
    primes = [p for p in small_primes() if 2 < p <= 500]
    for label, m in _two_torsion_models(records):
        for p in primes:
            if m.disc % p:
                assert ecq._ap_naive(m, p) == brute_ap(m, p), (label, p)


def test_the_legendre_oracle_matches_brute_force(records):
    # the vectorised reference the BSGS tests to 10^4 compare against, on every fixture
    primes = [p for p in small_primes() if 2 < p <= 300]
    for label, rec in sorted(records.items()):
        m = rec.minimal_model
        for p in primes:
            if m.disc % p:
                assert legendre_ap(m, p) == brute_ap(m, p), (label, p)


def test_ap_naive_and_bsgs_agree(records, monkeypatch):
    for label in ("11a1", "17a1", "37a1"):
        m = records[label].minimal_model
        for p in (101, 997, 10007):
            monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 10**5)
            counted = a_p(m, p)
            monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 3)
            assert a_p(m, p) == counted, (label, p)


def _two_torsion_models(records):
    return [(label, rec.minimal_model) for label, rec in sorted(records.items()) if rec.two_torsion_rank]


def test_bsgs_matches_point_count_on_every_prime_to_10k(records, monkeypatch):
    # every fixture, so h = 1, 2 and 4 all run: with no rational 2-torsion h is 1 or 2
    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 3)
    primes = [p for p in small_primes() if 230 <= p < 10**4]
    assert {rec.two_torsion_rank for rec in records.values()} == {0, 1, 2}
    for label, rec in sorted(records.items()):
        m = rec.minimal_model
        for p in primes:
            if m.disc % p:
                assert a_p(m, p) == legendre_ap(m, p), (label, p)


def test_bsgs_matches_point_count_at_seeded_large_primes(records, monkeypatch):
    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 3)
    rng = random.Random(2)
    models = _two_torsion_models(records)
    for p in rng.sample([p for p in small_primes() if 10**4 < p <= 2 * 10**5], 20):
        label, m = rng.choice(models)
        if m.disc % p:
            assert a_p(m, p) == ecq._ap_naive(m, p), (label, p)


def test_default_limit_counts_points_up_to_the_mestre_floor(records, monkeypatch):
    # up to p = 229 a curve and its twist may both lack a point whose order
    # has one multiple in the Hasse window, and BSGS gives up
    small = [p for p in small_primes() if 2 < p <= 229]
    gave_up = 0
    default_limit, curve_order = ecq.AP_NAIVE_LIMIT, ecq._curve_order
    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 3)
    for rec in records.values():
        m = rec.minimal_model
        for p in small:
            if m.disc % p:
                try:
                    assert a_p(m, p) == ecq._ap_naive(m, p), (rec.label, p)
                except BudgetExceeded:
                    gave_up += 1
    assert gave_up

    def no_bsgs(*args):
        raise AssertionError("a_p ran BSGS at or below the Mestre floor")

    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", default_limit)
    monkeypatch.setattr(ecq, "_curve_order", no_bsgs)
    for rec in records.values():
        m = rec.minimal_model
        for p in small:
            if m.disc % p:
                assert a_p(m, p) == ecq._ap_naive(m, p), (rec.label, p)

    # and from the first prime above the floor the default runs BSGS
    bsgs = []
    monkeypatch.setattr(ecq, "_curve_order", lambda a, b, p, h: bsgs.append(p) or curve_order(a, b, p, h))
    above = [p for p in small_primes() if 229 < p < 300]
    assert above[0] == 233
    for rec in records.values():
        m = rec.minimal_model
        for p in above:
            if m.disc % p:
                assert a_p(m, p) == ecq._ap_naive(m, p), (rec.label, p)
                assert bsgs.pop() == p, (rec.label, p)


def _walked_points(a, b, p):
    # the walk's points, x = 0, 1, 2, ...: (x, 0) on E where f = x^3 + ax + b vanishes, else (xf, f^2) on
    # Y^2 = X^3 + af^2 X + bf^3, E when f is a square and its twist when not; yields (on the twist, point, af^2)
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        if f == 0:
            yield False, (x, 0), a
        else:
            X, Y = x * f % p, f * f % p
            if (Y * Y - X**3 - a * f * f * X - b * f**3) % p:
                raise AssertionError(f"({X}, {Y}) is off its curve")
            yield pow(f, (p - 1) // 2, p) != 1, (X, Y), a * f * f % p


def _order_by_exact_orders(p, h, points):
    # the path the one-annihilator shortcut skips: per curve, the lcm of h and the exact orders of its points;
    # the order is the one n in the Hasse window with L_E | n and L_twist | 2p + 2 - n, once only one is left
    lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
    L = [h, h]  # E, its twist
    for twist, P, af in points:
        L[twist] = lcm(L[twist], ecq._exact_order(P, ecq._bsgs_annihilators(P, lo, hi, af, p)[0], af, p))
        ns = [n for n in range(lo, hi + 1) if n % L[0] == 0 and (2 * p + 2 - n) % L[1] == 0]
        if len(ns) == 1:
            return ns[0]
    return None


def _sqrt_mod(n, p):
    # Tonelli-Shanks, the reference square root behind uniform points on a fixed curve; n is a square mod p
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    M, c, t, R = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (M - i - 1), p)
        M, c, t, R = i, b * b % p, t * b * b % p, R * b % p
    return R


def _random_point(a, b, p, rng):
    # a point of y^2 = x^3 + ax + b over a uniformly drawn x
    while True:
        x = rng.randrange(p)
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            return (x, 0)
        if pow(rhs, (p - 1) // 2, p) == 1:
            y = _sqrt_mod(rhs, p)
            if y * y % p != rhs:
                raise AssertionError(f"{y} is no square root of {rhs} mod {p}")
            return (x, y)


def _euler_count(a, b, p):
    # Euler's criterion gives each x's 0, 1 or 2 points; the 1 is the point at infinity
    euler = (pow(x**3 + a * x + b, (p - 1) // 2, p) for x in range(p))
    return 1 + sum(1 + (1 if c == 1 else -1 if c else 0) for c in euler)


def _annihilators_by_walk(P, lo, hi, a, p):
    # the reference for _bsgs_annihilators: add P up to hi*P, one addition at a time
    out, R = [], None
    for n in range(1, hi + 1):
        R = ecq._ec_add(R, P, a, p)
        if R is None and n >= lo:
            out.append(n)
    return out


def test_one_annihilator_shortcut_matches_exact_order_path():
    rng = random.Random(20261018)
    primes = [p for p in small_primes() if 230 <= p < 20000]
    for _ in range(60):
        p = rng.choice(primes)
        # y^2 = x^3 + a x + b through (r, 0): a random point and one of order 2
        a, r = rng.randrange(p), rng.randrange(p)
        b = -(r**3 + a * r) % p
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
        for P in (_random_point(a, b, p, rng), (r, 0)):
            ns = ecq._bsgs_annihilators(P, lo, hi, a, p)
            assert ns == _annihilators_by_walk(P, lo, hi, a, p), (a, b, p, P)
        # x^3 + ax + b = (x - r)(x^2 + rx + a + r^2) has three roots when -3r^2 - 4a is a square
        two_torsion = 4 if pow(-3 * r * r - 4 * a, (p - 1) // 2, p) == 1 else 2
        points = list(islice(_walked_points(a, b, p), ecq.ORDER_POINTS))
        for h in (1, 2, two_torsion):
            want = _order_by_exact_orders(p, h, points)
            assert ecq._curve_order(a, b, p, h) == want == _euler_count(a, b, p), (a, b, p, h)


@pytest.mark.parametrize("a, b, p, h", [(1, 0, 233, 1), (1, 0, 233, 4), (5, 2, 233, 1)])
def test_a_twist_point_decides_where_the_curves_own_points_leave_the_order_open(a, b, p, h):
    # the first 12 points of E allow more than one order in the Hasse window; the walk's twist points settle it
    own = [pt for pt in _walked_points(a, b, p) if not pt[0]]
    assert _order_by_exact_orders(p, h, own[:12]) is None
    want = _order_by_exact_orders(p, h, islice(_walked_points(a, b, p), ecq.ORDER_POINTS))
    assert ecq._curve_order(a, b, p, h) == want == _euler_count(a, b, p)


def test_the_first_walked_point_may_lie_on_the_twist(monkeypatch):
    # f(0) = 5 is no square mod 10007, so the walk starts at (0, 25) on Y^2 = X^3 + 25X + 125, the twist,
    # and that point alone pins the order of E
    a, b, p = 1, 5, 10007
    assert pow(b, (p - 1) // 2, p) == p - 1
    searched, bsgs = [], ecq._bsgs_annihilators
    monkeypatch.setattr(ecq, "_bsgs_annihilators", lambda Q, *rest: searched.append((Q, rest[2])) or bsgs(Q, *rest))
    monkeypatch.setattr(ecq, "ORDER_POINTS", 1)
    assert ecq._curve_order(a, b, p, 1) == _euler_count(a, b, p)
    assert searched == [((0, 25), 25)]


def _random_two_torsion_curve(rng, p):
    # y^2 = x^3 + a x + b through (r, 0), nonsingular mod p
    while True:
        a, r = rng.randrange(p), rng.randrange(p)
        b = -(r**3 + a * r) % p
        if (4 * a**3 + 27 * b * b) % p:
            return a, b, r


def test_bsgs_annihilators_match_an_addition_walk():
    rng = random.Random(7)
    primes = [p for p in small_primes() if 230 <= p < 20000]
    seen = {"random": 0, "order 2": 0, "small order": 0, "order 2m+1": 0}
    while seen["random"] < 30 or seen["order 2m+1"] < 6:
        p = rng.choice(primes)
        a, b, r = _random_two_torsion_curve(rng, p)
        lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
        m = isqrt((hi - lo + 1) // 2) + 1
        order = ecq._curve_order(a, b, p, 2)
        P = _random_point(a, b, p, rng)
        # (order/k)*P has order dividing k: small orders, and 2m + 1, the baby steps' reach
        points = [] if seen["random"] >= 30 else [("random", P), ("order 2", (r, 0))]
        for k in (3, 4, 5, 6, 7, 9, 2 * m + 1):
            if order % k == 0 and (Q := ecq._ec_scale(order // k, P, a, p)) is not None:
                exact = ecq._exact_order(Q, order, a, p) == 2 * m + 1
                if exact or points:
                    points.append(("order 2m+1" if exact else "small order", Q))
        for kind, Q in points:
            assert ecq._bsgs_annihilators(Q, lo, hi, a, p) == _annihilators_by_walk(Q, lo, hi, a, p), (a, b, p, Q)
            seen[kind] += 1
    assert min(seen.values()) >= 6, seen


def test_jacobian_multiply_matches_repeated_addition():
    rng = random.Random(11)
    for p in (5, 7, 13, 101, 233):
        for _ in range(4):
            a, b, r = _random_two_torsion_curve(rng, p)
            for P in (_random_point(a, b, p, rng), (r, 0)):
                R = None
                for k in range(3 * p + 1):  # past the group order, so its multiples too
                    assert ecq._ec_scale(k, P, a, p) == R, (a, b, p, P, k)
                    R = ecq._ec_add(R, P, a, p)


def test_two_torsion_divisor_matches_a_root_count(monkeypatch):
    # h from one Legendre symbol of the discriminant, against the roots of the cubic BSGS runs on
    calls, curve_order = [], ecq._curve_order
    monkeypatch.setattr(ecq, "AP_NAIVE_LIMIT", 3)
    monkeypatch.setattr(ecq, "_curve_order", lambda a, b, p, h: calls.append((a, b, h)) or curve_order(a, b, p, h))
    rng = random.Random(21)
    primes = [p for p in small_primes() if 230 <= p < 20000]
    seen = set()
    for i in range(160):
        # odd i: through (r, 0), so with a rational root; even i: random, almost never with one
        A, r = rng.randint(-(10**4), 10**4), rng.randint(-100, 100)
        B = -(r**3 + A * r) if i % 2 else rng.randint(-(10**6), 10**6)
        p = rng.choice(primes)
        try:
            m = WeierstrassModel(0, 0, 0, A, B)
        except SingularModel:
            continue
        if m.disc % p == 0:
            continue
        assert a_p(m, p) == ecq._ap_naive(m, p), (A, B, p)
        a, b, h = calls[-1]
        roots = sum(1 for x in range(p) if (x * x * x + a * x + b) % p == 0)
        torsion = two_torsion_rank(m) > 0
        assert h == (1 + roots if torsion else 2 if roots == 1 else 1), (A, B, p)
        seen.add((torsion, roots))
    assert seen == {(True, 1), (True, 3), (False, 0), (False, 1), (False, 3)}


def test_stride_matches_the_stride_one_path_near_1e7_and_1e8(records):
    # the order search before the stride: seeded random points, each over the whole Hasse window
    def stride_one_order(a, b, p):
        rng = random.Random(f"ec:{p}:{a}:{b}")
        lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
        c = next(c for c in count(2) if pow(c, (p - 1) // 2, p) == p - 1)
        for ca, cb, sign in ((a, b, 1), (a * c * c % p, b * c**3 % p, -1)):
            left = None
            for _ in range(ecq.ORDER_POINTS):
                ns = ecq._bsgs_annihilators(_random_point(ca, cb, p, rng), lo, hi, ca, p)
                left = set(ns) if left is None else left.intersection(ns)
                if len(left) == 1:
                    n = left.pop()
                    return n if sign == 1 else 2 * p + 2 - n
        raise AssertionError(f"the stride-1 path gave up at {p}")

    rng = random.Random(1008)
    models = sorted(records.items())
    for top in (10**7, 10**8):
        primes = 0
        while primes < 24:
            p = rng.randrange(top - top // 100, top + 1)
            label, rec = models[primes % len(models)]
            m = rec.minimal_model
            if not arith._is_prime(p)[0] or m.disc % p == 0:
                continue
            want = p + 1 - stride_one_order(-27 * m.c4 % p, -54 * m.c6 % p, p)
            assert a_p(m, p) == want, (label, p)
            primes += 1


def test_a_point_killed_by_h_is_skipped_but_counted(monkeypatch):
    # y^2 = x^3 + 5x: the walk starts at (0, 0), of order 2, so hP = O for h = 2 or 4
    a, b, p = 5, 0, 10007
    first, (_, second, af) = islice(_walked_points(a, b, p), 2)
    assert first == (False, (0, 0), a) and (second, af) == ((6, 36), 180)
    h = 4 if pow(-4 * a, (p - 1) // 2, p) == 1 else 2
    searched, bsgs = [], ecq._bsgs_annihilators
    monkeypatch.setattr(ecq, "_bsgs_annihilators", lambda Q, *rest: searched.append(Q) or bsgs(Q, *rest))
    assert ecq._curve_order(a, b, p, h) == _euler_count(a, b, p)
    assert searched[0] == ecq._ec_scale(h, second, af, p)
    searched.clear()
    monkeypatch.setattr(ecq, "ORDER_POINTS", 1)
    with pytest.raises(BudgetExceeded):
        ecq._curve_order(a, b, p, h)
    assert searched == []


def test_ap_hasse_bound(records):
    m = records["17a1"].minimal_model
    for p in (3, 5, 7, 1009, 10007):
        assert a_p(m, p) ** 2 <= 4 * p


def test_ap_rejects_bad_input(records, monkeypatch):
    m = records["17a1"].minimal_model
    with pytest.raises(ValueError):
        a_p(m, 15)
    with pytest.raises(BadReduction):
        a_p(m, 17)
    monkeypatch.setattr(ecq, "AP_BSGS_LIMIT", 10**4)
    with pytest.raises(BudgetExceeded):
        a_p(m, 100003)


# --- records --------------------------------------------------------------------------


def test_build_curve_record_computes_everything():
    rec = build_curve_record((1, -1, 1, -1, -14), moddeg=1, manin=1, label="17a1")
    assert rec.conductor.value == 17
    assert rec.two_torsion_rank == 1
    assert rec.min_disc.value == -(17**4)


def test_build_curve_record_conductor_matches_conductor(fixture_rows, monkeypatch):
    # one minimal model and one factorization of its discriminant per record
    models, factored = [], []
    minimal_model_, factorize_ = ecq.minimal_model, ecq.factorize
    monkeypatch.setattr(ecq, "minimal_model", lambda m, support=None: models.append(m) or minimal_model_(m, support))
    monkeypatch.setattr(ecq, "factorize", lambda n, **kw: factored.append(n) or factorize_(n, **kw))
    for label, row in fixture_rows.items():
        models.clear()
        factored.clear()
        rec = build_curve_record(row.ainvs, label=label)
        assert len(models) == 1 and factored.count(rec.minimal_model.disc) == 1, label
        assert rec.conductor == conductor(rec.minimal_model), label
    assert len(fixture_rows) == 21


def test_build_curve_record_validates_invariants():
    for kwargs in ({"moddeg": 0}, {"manin": 0}):
        with pytest.raises(ValueError):
            build_curve_record((0, 0, 1, -1, 0), **kwargs)
    for ainvs in ((0, 0, 0, 1.5, 1), (0, 0, 1, "-1", 0)):
        with pytest.raises(ValueError):
            build_curve_record(ainvs)
    # integral values of another type are taken as the integers they equal
    rec = build_curve_record((0.0, 0, 1, -1.0, Fraction(0)))
    assert rec.minimal_model.ainvs() == (0, 0, 1, -1, 0)
    assert all(type(a) is int for a in rec.minimal_model.ainvs())
