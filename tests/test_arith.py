"""Valuations, factoring, and fundamental discriminants."""

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from watkins import arith
from watkins.arith import (
    TRIAL_LIMIT,
    Factorization,
    _is_prime,
    count_omega_at_most,
    enumerate_fundamental_discriminants,
    factorize,
    is_fundamental,
    is_fundamental_discriminant,
    prime_discriminant_parts,
    small_primes,
    v2,
    vp,
)
from watkins.ecq import AP_BSGS_LIMIT, WeierstrassModel, minimal_model
from watkins.errors import BudgetExceeded, FactoringBudgetExceeded, ZeroInput

M89 = 2**89 - 1  # prime, but above the deterministic Miller-Rabin bound


# --- reference implementations, deliberately naive -------------------------


def _trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _squarefree_ref(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _fundamental_ref(d: int) -> bool:
    # the defining congruences, nothing shared with the library
    if d == 0:
        return False
    if d == 1:
        return True
    if d % 4 == 1:
        return _squarefree_ref(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree_ref(abs(m))
    return False


def _omega_ref(n: int) -> int:
    count = 0
    k = 2
    while k * k <= n:
        if n % k == 0:
            count += 1
            while n % k == 0:
                n //= k
        k += 1
    return count + (1 if n > 1 else 0)


# --- valuations -------------------------------------------------------------


def test_v2_basics():
    assert v2(1) == 0
    assert v2(-8) == 3
    assert v2(12) == 2
    assert v2(3, 4) == -2
    assert v2(40, 5) == 3


def test_v2_rejects_zero():
    with pytest.raises(ZeroInput):
        v2(0)
    with pytest.raises(ZeroInput):
        v2(3, 0)


@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda m: m % 2), st.integers(min_value=0, max_value=60))
def test_v2_strips_exactly_the_two_part(m, k):
    assert v2(m * 2**k) == k


@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
def test_v2_of_a_quotient(a, b):
    assert v2(a, b) == v2(a) - v2(b)


def test_vp():
    assert vp(250, 5) == 3
    assert vp(7, 5) == 0
    assert vp(-27, 3) == 3


def test_small_primes_prefix():
    ps = small_primes()
    assert ps[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert ps[-1] < 10**6


# --- primality and factoring ------------------------------------------------


def test_is_prime_against_trial_division():
    for n in range(2, 2000):
        assert _is_prime(n)[0] == _trial_is_prime(n), n


def test_is_prime_on_carmichael_numbers():
    for n in (561, 1105, 1729, 41041, 825265):
        assert _is_prime(n) == (False, True)


def test_is_prime_beyond_deterministic_bound():
    ok, proven = _is_prime(M89)
    assert ok and not proven


# psi_k (OEIS A014233): the least odd composite that passes Miller-Rabin at the first k prime bases
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_refuses_every_psi_k():
    for k, n in enumerate(PSI, 1):
        assert _is_prime(n) == (False, True), k
    # psi_12 passes every base up to 37, so the thirteenth base, 41, is what refuses it
    f = factorize(PSI[11])
    assert f.factors == ((399165290221, 1), (798330580441, 1)) and f.proven
    # and the thirteen bases prove the next prime, still below psi_13
    assert _is_prime(318665857834031151167483) == (True, True)


def test_is_prime_and_factorize_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    for n in PSI:
        for m in range(n - 40, n + 41, 2):
            assert _is_prime(m)[0] == sympy.isprime(m), m
    rng = random.Random(12)
    for _ in range(2):
        n = sympy.nextprime(rng.randrange(10**11, 10**12)) * sympy.nextprime(rng.randrange(10**11, 10**12))
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_factorize_small():
    f = factorize(360)
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.sign == 1 and f.omega == 3 and f.proven
    assert f.v(2) == 3 and f.v(7) == 0
    assert f.primes() == (2, 3, 5)


def test_factorize_sign_and_zero():
    assert factorize(-45).sign == -1
    assert factorize(-45).factors == ((3, 2), (5, 1))
    with pytest.raises(ZeroInput):
        factorize(0)


def test_factorize_semiprime_beyond_trial_wall(monkeypatch):
    n = 1000003 * 1000033
    f = factorize(n)
    assert f.factors == ((1000003, 1), (1000033, 1)) and f.proven
    monkeypatch.setattr(arith, "RHO_STEPS", 0)
    with pytest.raises(FactoringBudgetExceeded):
        factorize(n)


@pytest.mark.parametrize("p, q", [(99999821, 99999827), (99999971, 99999989)])
def test_rho_budget_splits_two_primes_below_the_point_count_cap(p, q):
    # a d whose primes are all below AP_BSGS_LIMIT can get a verdict, so it must factor
    assert max(p, q) < AP_BSGS_LIMIT
    start = time.perf_counter()
    assert factorize(p * q * 4).factors == ((2, 2), (p, 1), (q, 1))
    assert time.perf_counter() - start < 1


def test_factorize_unproven_prime_is_flagged():
    f = factorize(M89)
    assert f.factors == ((M89, 1),)
    assert not f.proven


def test_factorize_perfect_power_of_large_prime():
    f = factorize(1000003**3)
    assert f.factors == ((1000003, 3),) and f.proven


def test_factorize_splits_the_base_of_a_perfect_power_once(monkeypatch):
    splits = []
    rho = arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho", lambda n, steps: splits.append(n) or rho(n, steps))
    base = 1000003 * 1000033
    f = factorize(base**6 * 7)
    assert f.factors == ((7, 1), (1000003, 6), (1000033, 6)) and f.proven
    assert splits == [base]


@given(st.integers(min_value=2, max_value=10**10))
@settings(max_examples=300)
def test_factorize_roundtrip(n):
    f = factorize(n)
    prod = f.sign
    for p, e in f.factors:
        assert _is_prime(p)[0]
        prod *= p**e
    assert prod == n == f.value


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(value=6, sign=1, factors=((3, 1), (2, 1)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(value=6, sign=1, factors=((2, 1),))  # wrong product
    with pytest.raises(ValueError):
        Factorization(value=2, sign=2, factors=((2, 1),))  # bad sign
    with pytest.raises(ValueError):
        Factorization(value=2, sign=1, factors=((2, 0),))  # zero exponent


def test_omega_helper():
    assert factorize(30).omega == 3
    assert factorize(-1).omega == 0


# --- fundamental discriminants ----------------------------------------------


def test_fundamentality_matches_reference():
    for d in range(-5000, 5001):
        if d == 0:
            continue
        assert is_fundamental_discriminant(d) == _fundamental_ref(d), d


def _enumeration_ref(bound: int, min_omega: int, low: int = 1) -> list[int]:
    # the fundamental d with low < |d| <= bound, in the enumeration's order
    out = []
    for a in range(max(low + 1, 2), bound + 1):
        for d in (a, -a):
            if _fundamental_ref(d) and _omega_ref(a) >= min_omega:
                out.append(d)
    return out


def test_enumeration_matches_reference_order():
    got = list(enumerate_fundamental_discriminants(10**5))
    want = _enumeration_ref(10**5, 0)
    assert got == want
    assert got[:6] == [-3, -4, 5, -7, 8, -8]
    omegas = {d: _omega_ref(abs(d)) for d in want}
    for k in range(1, 4):
        assert list(enumerate_fundamental_discriminants(10**5, min_omega=k)) == [d for d in want if omegas[d] >= k], k


def test_enumeration_signs_and_omega():
    ds = list(enumerate_fundamental_discriminants(100))
    pos = [d for d in ds if d > 0]
    neg = [d for d in ds if d < 0]
    assert pos[:5] == [5, 8, 12, 13, 17]
    assert neg[:5] == [-3, -4, -7, -8, -11]
    assert all(type(d) is int for d in ds)

    rich = list(enumerate_fundamental_discriminants(100, min_omega=2))
    assert rich and all(factorize(d).omega >= 2 for d in rich)
    assert rich == [d for d in ds if factorize(d).omega >= 2]


def test_enumeration_edges():
    assert list(enumerate_fundamental_discriminants(2)) == []
    assert list(enumerate_fundamental_discriminants(3)) == [-3]
    assert list(enumerate_fundamental_discriminants(9)) == [-3, -4, 5, -7, 8, -8]  # a bound that is a square
    assert 1 not in enumerate_fundamental_discriminants(50)


@given(
    st.integers(min_value=0, max_value=2 * 10**5),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
@example(low=0, width=3000, min_omega=0)
def test_enumeration_matches_reference_on_windows(low, width, min_omega):
    got = [d for d in enumerate_fundamental_discriminants(low + width, min_omega=min_omega) if abs(d) > low]
    assert got == _enumeration_ref(low + width, min_omega, low)


@given(
    st.sampled_from([1000003, 1000033, 10**12 + 39]),
    st.sampled_from([1, 2]),
    st.integers(min_value=-300, max_value=300).filter(bool),
)
@settings(max_examples=80, deadline=None)
@example(p=1000003, e=1, cofactor=-1)
@example(p=1000033, e=1, cofactor=1)
@example(p=10**12 + 39, e=2, cofactor=1)
def test_fundamentality_with_a_prime_above_the_trial_wall(p, e, cofactor):
    # the defining congruences, with squarefreeness decided on the cofactor
    # alone: p is a prime far above |cofactor|
    d = p**e * cofactor
    if e > 1:
        want = False
    elif d % 4 == 1:
        want = _squarefree_ref(abs(cofactor))
    elif d % 4 == 0:
        want = d // 4 % 4 in (2, 3) and _squarefree_ref(abs(cofactor // 4))
    else:
        want = False
    assert is_fundamental_discriminant(d) == is_fundamental(factorize(d)) == want, d


def test_prime_discriminant_parts_frozen():
    assert prime_discriminant_parts(5) == (5,)
    assert prime_discriminant_parts(-24) == (-3, 8)
    assert prime_discriminant_parts(-420) == (-3, -4, 5, -7)


def test_prime_discriminant_parts_reject_non_fundamental():
    for d in (1, 20, -5, 45):
        with pytest.raises(ValueError):
            prime_discriminant_parts(d)


@given(st.integers(min_value=2, max_value=5000))
@settings(max_examples=200)
def test_prime_discriminant_parts_reconstruct(a):
    for d in (a, -a):
        if not is_fundamental_discriminant(d) or d == 1:
            continue
        parts = prime_discriminant_parts(d)
        assert all(is_fundamental_discriminant(q) for q in parts)
        assert math.prod(parts) == d


# --- density counting --------------------------------------------------------


def test_sieve_cap_comes_before_any_allocation(monkeypatch):
    monkeypatch.setattr(arith, "_SIEVE_LIMIT", 1000)
    want = [d for a in range(2, 1001) for d in (a, -a) if _fundamental_ref(d)]
    assert list(enumerate_fundamental_discriminants(1000)) == want
    assert count_omega_at_most(1000, 1) == 1 + sum(1 for n in range(2, 1001) if _omega_ref(n) == 1)

    def no_allocation(*args):
        raise AssertionError("the sieve allocated past its cap")

    monkeypatch.setattr(arith, "bytearray", no_allocation, raising=False)
    with pytest.raises(BudgetExceeded, match="capped at 1000"):
        next(enumerate_fundamental_discriminants(1001))
    with pytest.raises(BudgetExceeded, match="capped at 1000"):
        count_omega_at_most(1001, 1)


def test_count_omega_frozen_value():
    assert count_omega_at_most(100, 1) == 36


def test_count_omega_against_reference():
    for a in range(4):
        want = sum(1 for n in range(1, 201) if _omega_ref(n) <= a)
        assert count_omega_at_most(200, a) == want, a
    omegas = [_omega_ref(n) for n in range(1, 3001)]
    for a in range(6):
        count = 0
        for x, w in enumerate(omegas, start=1):
            count += w <= a
            if x < 50 or x % 97 == 0 or x == 3000:
                assert count_omega_at_most(x, a) == count, (x, a)


def test_count_omega_edges():
    assert count_omega_at_most(0, 3) == 0
    assert count_omega_at_most(1, 0) == 1  # omega(1) = 0
    for x, a in ((-5, 2), (-1, 0), (100, -3), (0, -1)):
        with pytest.raises(ValueError):
            count_omega_at_most(x, a)
    with pytest.raises(BudgetExceeded):
        count_omega_at_most(10**8, 1)


# --- the on-demand prime table -------------------------------------------------


def _cold_table(mp: pytest.MonkeyPatch) -> None:
    # the table as a fresh interpreter has it: primes below 1024 only
    mp.setattr(arith, "_SIEVED", 1024)
    mp.setattr(arith, "_PRIMES", arith._sieve(1024))


_ALL = small_primes()
_SMALL = [p for p in _ALL if p < 1024]
_MIDDLE = [p for p in _ALL if 1024 < p < 10**6 - 1000]
_TOP = [p for p in _ALL if p > 10**6 - 1000]  # just below TRIAL_LIMIT
_BEYOND = [1000003, 1000033, 1000037]  # two of them pass TRIAL_LIMIT**2 and need rho

_factor = st.one_of(
    st.sampled_from(_SMALL), st.sampled_from(_MIDDLE), st.sampled_from(_TOP), st.sampled_from(_BEYOND)
)
# M89 is a probable prime, so it clears the proven flag; rho needs about 10^6
# steps to split the product of both huge primes, so that is one fixed example
_huge = st.sampled_from((1, 10**12 + 39, M89))


def test_sieve_matches_trial_division():
    for bound in (3, 4, 10, 1024, 1025, 3000):
        assert arith._sieve(bound) == tuple(n for n in range(bound) if _trial_is_prime(n)), bound


def test_small_primes_is_every_prime_below_the_trial_wall():
    ps = small_primes()
    assert len(ps) == 78498 and ps[-1] == 999983
    assert list(ps) == sorted(set(ps))


def test_small_primes_leaves_the_table_alone(monkeypatch):
    # the full list is the caller's: the module keeps no reference to it
    _cold_table(monkeypatch)
    table = arith._PRIMES
    assert small_primes()[: len(table)] == table
    assert arith._SIEVED == 1024 and arith._PRIMES is table


@given(
    st.lists(st.tuples(_factor, st.integers(min_value=1, max_value=3)), min_size=1, max_size=3),
    _huge,
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from((-1, 1)),
)
@settings(max_examples=25, deadline=None)
@example(parts=[(3, 2)], huge=(10**12 + 39) * M89, x=3, y=5, sign=-1)
def test_cold_table_agrees_with_full_table(parts, huge, x, y, sign):
    n = huge
    for p, e in parts:
        n *= p**e

    def results():
        return (
            factorize(sign * n),
            is_fundamental_discriminant(sign * n),
            is_fundamental_discriminant(sign * 4 * n),
            # short models scaled by u = n, whose discriminants are -16 n^12 times 4x^3 or 27y^2
            minimal_model(WeierstrassModel(0, 0, 0, n**4 * x, 0)),
            minimal_model(WeierstrassModel(0, 0, 0, 0, n**6 * y)),
        )

    with pytest.MonkeyPatch.context() as mp:
        _cold_table(mp)
        cold = results()
    arith._sieve_table(TRIAL_LIMIT)
    assert cold == results()


def test_table_grows_by_prefixes_of_small_primes(monkeypatch):
    full = small_primes()
    _cold_table(monkeypatch)
    table = arith._PRIMES
    sizes = []
    while True:
        more = arith._primes_from(len(table))
        if not more:
            break
        table += more
        sizes.append(arith._SIEVED)
        assert table == arith._PRIMES == full[: len(table)]
        # every prime below the sieve bound, and nothing else
        following = full[len(table)] if len(table) < len(full) else TRIAL_LIMIT
        assert table[-1] < arith._SIEVED <= following
    assert table == full
    assert sizes[0] == 2048 and sizes[-1] == TRIAL_LIMIT


def test_trial_division_grows_the_table_only_as_far_as_needed(monkeypatch):
    _cold_table(monkeypatch)
    assert factorize(1021 * 1019 * 7).factors == ((7, 1), (1019, 1), (1021, 1))
    assert is_fundamental_discriminant(-1019 * 1021)
    assert arith._SIEVED == 1024
    assert factorize(1031 * 1033).factors == ((1031, 1), (1033, 1))
    assert arith._SIEVED == 2048
