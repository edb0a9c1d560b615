"""Integer arithmetic: valuations, factoring, fundamental discriminants.

`scan` and `density` share one sieve: two bytearrays holding omega(k)
and whether k is squarefree, for every k up to the bound (at most 10^7).

Factoring is trial division to TRIAL_LIMIT, then Brent's rho under an
explicit budget of steps, each charged by the length of the number, on
a cofactor of at most COFACTOR_BITS bits.
Primality is Miller-Rabin over the shortest prefix of 13 bases that is
proven for n, and a seeded probabilistic fallback past the last proven
bound; results carry a ``proven`` flag so downstream certificates can
record the assumption instead of hiding it.

Trial division, which only `factorize` runs, reads a table of small
primes that grows on demand: it starts with the primes below 1024 and
doubles its sieve bound, up to TRIAL_LIMIT, only when a loop reaches
its last prime and still needs larger ones.  A process that factors
only small numbers never sieves far.
"""

from __future__ import annotations

import math
import random
from itertools import compress, count
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded, FactoringBudgetExceeded, InvariantViolation, ZeroInput

TRIAL_LIMIT = 10**6
# the longest cofactor past trial division that factorize takes on: 37 Miller-Rabin rounds
# (a probable prime) take about 1 s at 2048 bits, and one round 6 s at 13,000
COFACTOR_BITS = 2048
# Brent rho step units per factorize call before FactoringBudgetExceeded, read on each call; ~2 s on 40 digits
RHO_STEPS = 1 << 22

# Miller-Rabin bases, and psi_k (OEIS A014233): the first k bases prove
# every odd n < _MR_PREFIX_BOUNDS[k - 1] that passes them prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PREFIX_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                     341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
                     318665857834031151167461, 3317044064679887385961981)


def _sieve(n: int) -> tuple[int, ...]:
    """Primes below n >= 3, ascending."""
    half = n // 2  # sieve[i] stands for the odd number 2i + 1
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(n - 1) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, half, p)))
    return (2, *compress(range(1, n, 2), sieve))


# The on-demand table: _PRIMES holds every prime below _SIEVED, ascending.
# It only grows, and _PRIMES is stored before _SIEVED, so a reader never
# sees a bound that the table does not reach yet.
_SIEVED = 1024
_PRIMES = _sieve(_SIEVED)


def _sieve_table(bound: int) -> None:
    global _PRIMES, _SIEVED
    _PRIMES = _sieve(bound)
    _SIEVED = bound


def _primes_from(i: int) -> tuple[int, ...]:
    """The table's primes from index i on, doubling the table if it has none.

    Returns () once the table holds every prime below TRIAL_LIMIT and
    i is past its end.
    """
    if i >= len(_PRIMES) and _SIEVED < TRIAL_LIMIT:
        _sieve_table(min(2 * _SIEVED, TRIAL_LIMIT))
    return _PRIMES[i:]


def small_primes() -> tuple[int, ...]:
    """Every prime below TRIAL_LIMIT, ascending, sieved afresh on each call.

    The on-demand table is left alone, so the result is the caller's to
    keep or drop; trial division reads the table and grows it only as
    far as its numbers need.
    """
    return _sieve(TRIAL_LIMIT)


def _trial_divide(m: int, found: dict[int, int]) -> int:
    """Divide the primes p with p * p <= m out of m > 0; return the rest.

    m shrinks as primes are divided out, and each goes into found with
    its exponent.  The cofactor is 1, a prime, or a number whose primes
    all exceed the largest prime below TRIAL_LIMIT.
    """
    lim = math.isqrt(m)
    primes, i = _PRIMES, 0
    while primes:
        for p in primes:
            if p > lim:
                return m
            if m % p == 0:
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                found[p] = e
                lim = math.isqrt(m)
        i += len(primes)
        primes = _primes_from(i)
    return m


def v2(numerator: int, denominator: int = 1) -> int:
    """2-adic valuation of numerator/denominator.

    Raises ZeroInput when either argument is zero: v2(0) is +infinity
    and nothing downstream wants that silently.
    """
    if numerator == 0 or denominator == 0:
        raise ZeroInput("v2 of zero is undefined here")
    n = abs(numerator)
    d = abs(denominator)
    return ((n & -n).bit_length() - 1) - ((d & -d).bit_length() - 1)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroInput("vp of zero is undefined here")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    # True iff a witnesses n composite.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _is_prime(n: int) -> tuple[bool, bool]:
    """(is_prime, proven).

    Bases run in order, and stop at the first k with n < psi_k.
    proven=False only for probable primes at or past psi_13; those
    passed 24 extra seeded rounds.
    """
    if n < 2:
        return False, True
    for p in _MR_BASES:
        if n % p == 0:
            return n == p, True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, bound in zip(_MR_BASES, _MR_PREFIX_BOUNDS):
        if _mr_witness(n, a, d, s):
            return False, True
        if n < bound:
            return True, True
    rng = random.Random(n & 0xFFFFFFFFFFFF)
    for _ in range(24):
        a = rng.randrange(2, n - 2)
        if _mr_witness(n, a, d, s):
            return False, True
    return True, False


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer Newton."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    # (base, k) with base**k == n and k prime, or None, for n with no prime below TRIAL_LIMIT:
    # its base is at least TRIAL_LIMIT, so a smaller root ends the search
    for k in _PRIMES:
        r = _iroot(n, k)
        if r < TRIAL_LIMIT:
            return None
        if r**k == n:
            return r, k
    return None


def _brent_rho(n: int, steps: int) -> tuple[int, int]:
    """One factor of composite n via Brent's cycle variant, and the steps left.

    Deterministic: the polynomial constant walks 1, 2, 3, ... so reruns
    agree.  Every polynomial step, under any constant and in the backtrack,
    counts against ``steps`` (a round is charged before it runs), and
    FactoringBudgetExceeded is raised once they are spent; a step on n of
    b bits costs max(1, b // 128, b^2 // 2^17), as its time grows with b,
    and past 1024 bits with b^2.  A prime factor q takes about sqrt(q)
    steps, so primes to about 10^12 split.
    """
    if n % 2 == 0:
        return 2, steps
    bits = n.bit_length()
    charge = max(1, bits // 128, bits * bits >> 17)
    spent = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            spent += 2 * r * charge
            if spent > steps:
                raise FactoringBudgetExceeded(f"rho gave up on {n} after {steps // charge} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            # backtrack one step at a time, at most one batch of 128
            g = 1
            while g == 1:
                spent += charge
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, max(steps - spent, 0)  # the backtrack may overdraw by up to 128 steps


class _FactorizationFields(NamedTuple):
    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    proven: bool = True


class Factorization(_FactorizationFields):
    """Signed factorization: value == sign * prod(p**e).

    factors is sorted by prime, exponents >= 1, and construction checks
    both and the product.  proven=False marks a factorization resting on
    a probable (unproven) prime.  `_replace` and `_make` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, value: int, sign: int, factors: tuple[tuple[int, int], ...], proven: bool = True):
        if sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        prod = sign
        prev = 1
        for p, e in factors:
            if p <= prev:
                raise ValueError("factors must be sorted, distinct primes")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            prev = p
            prod *= p**e
        if prod != value:
            raise ValueError(f"factors do not reconstruct {value}")
        return tuple.__new__(cls, (value, sign, factors, proven))

    @property
    def omega(self) -> int:
        return len(self.factors)

    def v(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer.

    Trial division by primes below TRIAL_LIMIT, then perfect-power
    peeling and Brent rho on what is left.  RHO_STEPS bounds the rho
    steps of the whole call; FactoringBudgetExceeded propagates when the
    budget runs out, and refuses a cofactor of more than COFACTOR_BITS
    bits before any of that.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    sign = -1 if n < 0 else 1
    found: dict[int, int] = {}
    m = _trial_divide(abs(n), found)
    proven = True
    if m > 1:
        if m < TRIAL_LIMIT * TRIAL_LIMIT:
            # below the trial wall squared the cofactor must be prime
            found[m] = 1
        elif m.bit_length() > COFACTOR_BITS:
            raise FactoringBudgetExceeded(f"trial division leaves {m.bit_length()} bits, past {COFACTOR_BITS}")
        else:
            proven = _factor_large(m, found)
    factors = tuple(sorted(found.items()))
    return Factorization(value=n, sign=sign, factors=factors, proven=proven)


def _factor_large(m: int, found: dict) -> bool:
    """Split m (> TRIAL_LIMIT**2, no small factors) into found. Returns proven flag.

    A perfect power's base is split once, and its primes count k times."""
    proven, budget = True, RHO_STEPS
    stack = [(m, 1)]
    while stack:
        x, k = stack.pop()
        ok, was_proven = _is_prime(x)
        if ok:
            proven = proven and was_proven
            found[x] = found.get(x, 0) + k
            continue
        pp = _perfect_power(x)
        if pp is not None:
            base, e = pp
            stack.append((base, k * e))
            continue
        d, budget = _brent_rho(x, budget)
        stack.append((d, k))
        stack.append((x // d, k))
    return proven


def is_fundamental(f: Factorization) -> bool:
    """Whether f.value is 1 or the discriminant of a quadratic field.

    The odd part must be squarefree and v2 must be 0, 2 or 3: with v2 = 0
    the value is 1 (mod 4), with v2 = 2 its quarter is 3 (mod 4), and
    with v2 = 3 its quarter is 2 (mod 4) already.
    """
    if any(e > 1 for p, e in f.factors if p != 2):
        return False
    e2 = f.v(2)
    if e2 == 0:
        return f.value % 4 == 1
    if e2 == 2:
        return f.value // 4 % 4 == 3
    return e2 == 3


def is_fundamental_discriminant(d: int) -> bool:
    """True for d = 1 and for discriminants of quadratic fields.

    Either d ≡ 1 (mod 4) and squarefree, or d = 4m with m ≡ 2, 3
    (mod 4) and m squarefree.  Only d ≡ 0, 1 (mod 4) is factored.
    """
    return d != 0 and d % 4 < 2 and is_fundamental(factorize(d))


def factor_fundamental(d: int) -> Factorization:
    """factorize(d) for a fundamental discriminant d other than 1.

    Raises ValueError for any other d, factoring only d ≡ 0, 1 (mod 4).
    """
    if d in (0, 1) or d % 4 > 1 or not is_fundamental(f := factorize(d)):
        raise ValueError(f"{d} is not a non-trivial fundamental discriminant")
    return f


# _INCREMENT[k] = k + 1: translating a slice through it adds one to each byte
_INCREMENT = bytes(range(1, 256)) + b"\0"


# the largest n _omega_sieve sieves: about 3 bytes per integer up to n
_SIEVE_LIMIT = 10**7


def _omega_sieve(n: int) -> tuple[bytearray, bytearray]:
    """(omega, squarefree), indexed by 0 <= k <= n.

    omega[k] is the number of distinct primes of k, and squarefree[k]
    is 1 when no square above 1 divides k, else 0.  omega is its own
    prime sieve: once every prime below p has been counted, p is prime
    exactly when omega[p] is still 0, so no list of primes is built.
    BudgetExceeded refuses n above _SIEVE_LIMIT before anything is allocated.
    """
    if n > _SIEVE_LIMIT:
        raise BudgetExceeded(f"the omega sieve is capped at {_SIEVE_LIMIT}, got {n}")
    omega = bytearray(n + 1)
    squarefree = bytearray([1]) * (n + 1)
    p = 2
    while 0 < p <= n:
        omega[p::p] = omega[p::p].translate(_INCREMENT)
        q = p * p
        if q <= n:
            squarefree[q::q] = bytes(len(range(q, n + 1, q)))
        p = omega.find(0, p + 1)
    return omega, squarefree


# the signs of the fundamental discriminants d with |d| = a, keyed on a % 16, for
# a odd and squarefree, a = 4m with m odd and squarefree, or a = 8m, m odd and squarefree
_SIGNS = {r: (1,) if r % 4 == 1 else (-1,) for r in range(1, 16, 2)} | {4: (-1,), 8: (1, -1), 12: (1,)}


def enumerate_fundamental_discriminants(bound: int, *, min_omega: int = 0) -> Iterator[int]:
    """Fundamental discriminants d with 1 < |d| <= bound and omega(d) >= min_omega.

    Ordered by |d| ascending, positive before negative at equal |d|.
    d = 1 is never yielded.  The sieve runs on the call, so a bound past
    its cap raises at once; the d are yielded one at a time.
    """
    if bound < 3:
        return iter(())
    omega, squarefree = _omega_sieve(bound)
    # fund[a] = 1 iff a is odd and squarefree, or a = 4m or 8m with m odd and squarefree
    fund = bytearray(bound + 1)
    odd = squarefree[1::2]  # m = 1, 3, 5, ...
    fund[1::2] = odd
    fund[4::8] = odd[: len(range(4, bound + 1, 8))]
    fund[8::16] = odd[: len(range(8, bound + 1, 16))]
    fund[1] = 0  # d = 1 is not yielded, and -1 is not a discriminant
    rich = (a for a in compress(range(bound + 1), fund) if omega[a] >= min_omega)
    return (sign * a for a in rich for sign in _SIGNS[a % 16])


def count_omega_at_most(x: int, a: int) -> int:
    """#{1 <= n <= x : omega(n) <= a}, by sieve.  n = 1 has omega 0."""
    if x < 0 or a < 0:
        raise ValueError(f"count_omega_at_most wants x, a >= 0, got x = {x}, a = {a}")
    if x == 0:
        return 0
    omega, _ = _omega_sieve(x)
    return omega.translate(bytes(k <= a for k in range(256))).count(1, 1)


def prime_discriminant_parts(d: int) -> tuple[int, ...]:
    """Split a fundamental discriminant into prime discriminants.

    Every fundamental d factors uniquely as a product of prime
    discriminants: p* = (-1)^((p-1)/2) p for odd p, and one of
    -4, 8, -8 at 2.  Returns the parts sorted by |part|.
    """
    parts = [p if p % 4 == 1 else -p for p in factor_fundamental(d).primes() if p != 2]
    two_part = d // math.prod(parts)
    if two_part not in (1, -4, 8, -8):
        raise InvariantViolation(f"bad 2-part {two_part} of {d}")
    if two_part != 1:
        parts.append(two_part)
    return tuple(sorted(parts, key=abs))
