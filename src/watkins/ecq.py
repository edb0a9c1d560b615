"""Elliptic curves over Q as integral Weierstrass models.

Covers the local theory this package needs: standard invariants,
global minimal models (Laska-Kraus-Connell), Kodaira types and
conductor exponents (Tate's algorithm, full version at p = 2, 3 and
the valuation table at p >= 5), quadratic twisting, rational
2-torsion, and trace-of-Frobenius computation with explicit budgets.
Minimal models and conductors come from a known prime set: a curve
record's, or from scratch the primes of gcd(c4, c6), which hold the
scaling unit's, and then those of the minimal discriminant.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple

from .arith import Factorization, _is_prime, factorize, vp
from .errors import (
    BadReduction,
    BudgetExceeded,
    IncompleteSupport,
    InvariantViolation,
    NotMinimal,
    SingularModel,
    ZeroInput,
)

_INF = 10**9  # stand-in valuation for 0


class _AInvariants(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int


class WeierstrassModel(_AInvariants):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer a_i.

    b2, b4, b6, b8, c4, c6 and disc are computed once, on construction,
    and kept in the instance dict, outside the tuple: equality, hashing
    and repr read the a_i only.  `_replace` and `_make` skip that, so a
    changed model is built anew.  The a_i are taken as given:
    `build_curve_record` checks a-invariants from outside.
    """

    def __new__(cls, a1: int, a2: int, a3: int, a4: int, a6: int):
        self = tuple.__new__(cls, (a1, a2, a3, a4, a6))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularModel(f"discriminant vanishes for {(a1, a2, a3, a4, a6)}")
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        self.__dict__.update(b2=b2, b4=b4, b6=b6, b8=b8, c4=c4, c6=c6, disc=disc)
        return self

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return tuple(self)


def _v(x: int, p: int) -> int:
    return _INF if x == 0 else vp(x, p)


def _shift_ainvs(m: WeierstrassModel, r: int, s: int, t: int) -> tuple[int, int, int, int, int]:
    # u = 1 coordinate change, integer arithmetic only
    a1, a2, a3, a4, a6 = m.ainvs()
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _shift(m: WeierstrassModel, r: int, s: int, t: int) -> WeierstrassModel:
    return WeierstrassModel(*_shift_ainvs(m, r, s, t))


def transform_model(m: WeierstrassModel, u, r=0, s=0, t=0) -> WeierstrassModel:
    """Apply x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    u must be positive; r, s, t may be rational.  Raises ValueError
    unless the resulting model is integral.  This is the reference for
    `minimal_model`'s integer check; `fractions` is imported here, so
    that nothing on the verify path loads it.
    """
    from fractions import Fraction

    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    if u <= 0:
        raise ValueError("u must be positive")
    a1 = (m.a1 + 2 * s) / u
    a2 = (m.a2 - s * m.a1 + 3 * r - s * s) / u**2
    a3 = (m.a3 + r * m.a1 + 2 * t) / u**3
    a4 = (m.a4 - s * m.a3 + 2 * r * m.a2 - (t + r * s) * m.a1 + 3 * r * r - 2 * s * t) / u**4
    a6 = (m.a6 + r * m.a4 + r * r * m.a2 + r**3 - t * m.a3 - t * t - r * t * m.a1) / u**6
    coeffs = (a1, a2, a3, a4, a6)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("transform does not yield an integral model")
    out = WeierstrassModel(*(int(c) for c in coeffs))
    if m.disc != out.disc * u**12:
        raise InvariantViolation("the transformed model's discriminant is not disc / u^12")
    return out


def _transforms_to(m: WeierstrassModel, mm: WeierstrassModel, u: int, r: int, s: int, t: int) -> bool:
    """transform_model(m, u, r, s, t) == mm for integers u >= 1, r, s, t.

    Each a_i of mm and its discriminant are scaled up by powers of u
    instead of dividing m's, so no Fraction is built.
    """
    scaled = tuple(a * u**k for a, k in zip(mm.ainvs(), (1, 2, 3, 4, 6)))
    return _shift_ainvs(m, r, s, t) == scaled and m.disc == mm.disc * u**12


def _kraus2(c4: int, c6: int) -> bool:
    # existence of an integral model over Z_2 for given invariants
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok(c4: int, c6: int) -> bool:
    """Whether (c4, c6) are the invariants of some integral model."""
    disc1728 = c4**3 - c6 * c6
    if disc1728 == 0 or disc1728 % 1728:
        return False
    if c6 % 27 in (9, 18):  # v3(c6) == 2
        return False
    return _kraus2(c4, c6)


def _scaling_exponent(c4: int, c6: int, disc1728: int, p: int) -> int:
    """Largest e with (c4/p^4e, c6/p^6e) still valid invariants."""
    caps = []
    if c4:
        caps.append(vp(c4, p) // 4)
    if c6:
        caps.append(vp(c6, p) // 6)
    emax = min(caps)
    if emax == 0:
        return 0
    if p == 3:
        vd = vp(disc1728, 3)
        for e in range(emax, 0, -1):
            if vd < 12 * e + 3:
                continue
            if c6 != 0 and vp(c6, 3) - 6 * e == 2:
                continue
            return e
        return 0
    if p == 2:
        vd = vp(disc1728, 2)
        for e in range(emax, 0, -1):
            if vd < 12 * e + 6:
                continue
            if _kraus2(c4 // 16**e, c6 // 64**e):
                return e
        return 0
    return emax


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """Reduced integral model with the given invariants.

    Exactly one b2 in a window of 12 consecutive integers yields the
    reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}).
    """
    for b2 in range(-5, 7):
        if (b2 * b2 - c4) % 24:
            continue
        b4 = (b2 * b2 - c4) // 24
        num = -(b2**3) + 36 * b2 * b4 - c6
        if num % 216:
            continue
        b6 = num // 216
        a1 = b2 % 2
        if (b2 - a1) % 4:
            continue
        a2 = (b2 - a1) // 4
        a3 = b6 % 2
        if (b6 - a3) % 4:
            continue
        a6 = (b6 - a3) // 4
        if (b4 - a1 * a3) % 2:
            continue
        a4 = (b4 - a1 * a3) // 2
        cand = WeierstrassModel(a1, a2, a3, a4, a6)
        if cand.c4 == c4 and cand.c6 == c6:
            return cand
    raise InvariantViolation(f"no integral model for invariants ({c4}, {c6})")


class MinimalModelResult(NamedTuple):
    model: WeierstrassModel
    u: int
    r: int
    s: int
    t: int


def minimal_model(m: WeierstrassModel, support=None) -> MinimalModelResult:
    """Global minimal model in reduced form, with the transform back.

    support is a prime set holding every prime of the scaling unit, and
    the unit is sought among them.  c4 = u^4 * c4' and c6 = u^6 * c6', so
    the primes of gcd(c4, c6) will do, and they are the default; so will
    2, 3 and the primes of m.disc, since c4^3 - c6^2 = 1728 * m.disc.
    transform_model(m, u, r, s, t) == model holds on the result; it is
    checked here in integer arithmetic, and InvariantViolation reports
    a failure.
    """
    c4, c6 = m.c4, m.c6
    disc1728 = 1728 * m.disc
    u = 1
    if support is None:
        support = factorize(gcd(c4, c6)).primes()
    for p in sorted(support, key=lambda q: (q == 2, q)):
        e = _scaling_exponent(c4, c6, disc1728, p)
        if e:
            c4 //= p ** (4 * e)
            c6 //= p ** (6 * e)
            disc1728 //= p ** (12 * e)
            u *= p**e
    if not _kraus_ok(c4, c6):
        raise InvariantViolation(f"no integral model has the scaled invariants ({c4}, {c6})")
    mm = _model_from_c4c6(c4, c6)
    s, s_rem = divmod(u * mm.a1 - m.a1, 2)
    r, r_rem = divmod(u * u * mm.a2 - m.a2 + s * m.a1 + s * s, 3)
    t, t_rem = divmod(u**3 * mm.a3 - m.a3 - r * m.a1, 2)
    if s_rem or r_rem or t_rem:
        raise InvariantViolation("the change of coordinates to the minimal model is not integral")
    if not _transforms_to(m, mm, u, r, s, t):
        raise InvariantViolation("the minimal model does not transform back to the input model")
    return MinimalModelResult(mm, u, r, s, t)


# ---------------------------------------------------------------------------
# Tate's algorithm


class LocalReduction(NamedTuple):
    p: int
    kodaira: str
    f: int
    kind: str  # "good" | "multiplicative" | "additive"


def _singular_point(m: WeierstrassModel, p: int) -> tuple[int, int]:
    # the singular point of the reduction is F_p-rational; p is 2 or 3
    a1, a2, a3, a4, a6 = (a % p for a in m.ainvs())
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx == 0 and fy == 0:
                return x, y
    raise InvariantViolation(f"the reduction mod {p} has no singular point")


def _prep_step7(w: WeierstrassModel, p: int) -> WeierstrassModel:
    # normalize to v(a1), v(a2) >= 1, v(a3), v(a4) >= 2, v(a6) >= 3;
    # a (s, t) shift with these residues exists once types II-IV are ruled out.
    # Residues are tested on coefficient tuples; only the answer becomes a model.
    p2, p3 = p * p, p**3
    a1, a2 = w.a1, w.a2
    for s in range(p2):
        if (a1 + 2 * s) % p or (a2 - s * a1 - s * s) % p:
            continue  # the shifted a1, a2 do not depend on t
        for t in range(p3):
            c = _shift_ainvs(w, 0, s, t)
            if c[2] % p2 == 0 and c[3] % p2 == 0 and c[4] % p3 == 0:
                return WeierstrassModel(*c)
    raise InvariantViolation(f"no shift normalizes the model at {p} for step 7 of Tate's algorithm")


def _root_multiplicities(coeffs: list[int], p: int) -> dict[int, int]:
    """Multiplicity of each F_p root of a monic polynomial."""
    out = {}
    for r in range(p):
        mult = 0
        work = [c % p for c in coeffs]
        while len(work) > 1:
            # synthetic division by (T - r)
            quot = [work[0]]
            for c in work[1:]:
                quot.append((quot[-1] * r + c) % p)
            if quot[-1] != 0:
                break
            mult += 1
            work = quot[:-1]
        if mult:
            out[r] = mult
    return out


def _tate_In_star(w: WeierstrassModel, p: int, n: int) -> LocalReduction:
    # double root of the step-7 cubic sits at T = 0; walk the I_m* chain
    mx = my = p * p
    idx = 1
    while True:
        if w.a3 % my or w.a6 % (mx * my):
            raise InvariantViolation(f"the I_m* chain at {p} lost the divisibility of a3, a6")
        b = w.a3 // my
        c = -(w.a6 // (mx * my))
        if (b * b - 4 * c) % p:
            return LocalReduction(p, f"I{idx}*", n - 4 - idx, "additive")
        y1 = c % 2 if p == 2 else (-b * pow(2, -1, p)) % p
        w = _shift(w, 0, 0, my * y1)
        my *= p
        idx += 1
        if w.a2 % p or w.a4 % (p * mx) or w.a6 % (mx * my):
            raise InvariantViolation(f"the I_m* chain at {p} lost the divisibility of a2, a4, a6")
        a2t = w.a2 // p
        a4t = w.a4 // (p * mx)
        a6t = w.a6 // (mx * my)
        if (a4t * a4t - 4 * a2t * a6t) % p:
            return LocalReduction(p, f"I{idx}*", n - 4 - idx, "additive")
        x1 = a6t % 2 if p == 2 else (-a4t * pow(2 * a2t, -1, p)) % p
        w = _shift(w, mx * x1, 0, 0)
        mx *= p
        idx += 1
        if idx > n:
            raise InvariantViolation(f"the I_m* chain at {p} runs past v(disc) = {n}")


def _tate_small(m: WeierstrassModel, p: int, n: int) -> LocalReduction:
    x0, y0 = _singular_point(m, p)
    w = _shift(m, x0, 0, y0)
    if w.b2 % p:
        return LocalReduction(p, f"I{n}", 1, "multiplicative")
    if _v(w.a6, p) < 2:
        return LocalReduction(p, "II", n, "additive")
    if _v(w.b8, p) < 3:
        return LocalReduction(p, "III", n - 1, "additive")
    if _v(w.b6, p) < 3:
        return LocalReduction(p, "IV", n - 2, "additive")
    w = _prep_step7(w, p)
    cubic = [1, (w.a2 // p) % p, (w.a4 // p**2) % p, (w.a6 // p**3) % p]
    roots = _root_multiplicities(cubic, p)
    maxmult = max(roots.values(), default=1)
    if maxmult == 1:
        return LocalReduction(p, "I0*", n - 4, "additive")
    if maxmult == 2:
        (r1,) = [r for r, k in roots.items() if k == 2]
        return _tate_In_star(_shift(w, p * r1, 0, 0), p, n)
    (r1,) = [r for r, k in roots.items() if k == 3]
    w = _shift(w, p * r1, 0, 0)
    if w.a3 % p**2 or w.a6 % p**4:
        raise InvariantViolation(f"the triple root shift at {p} lost the divisibility of a3, a6")
    b = w.a3 // p**2
    c = -(w.a6 // p**4)
    if (b * b - 4 * c) % p:
        return LocalReduction(p, "IV*", n - 6, "additive")
    y1 = c % 2 if p == 2 else (-b * pow(2, -1, p)) % p
    w = _shift(w, 0, 0, p * p * y1)
    if _v(w.a4, p) == 3:
        return LocalReduction(p, "III*", n - 7, "additive")
    if _v(w.a6, p) == 5:
        return LocalReduction(p, "II*", n - 8, "additive")
    raise NotMinimal(f"model is not minimal at {p}")


def _tate_table(m: WeierstrassModel, p: int, n: int) -> LocalReduction:
    vc4 = _v(m.c4, p)
    if vc4 == 0:
        return LocalReduction(p, f"I{n}", 1, "multiplicative")
    if n == 2:
        ty = "II"
    elif n == 3:
        ty = "III"
    elif n == 4:
        ty = "IV"
    elif n == 6:
        ty = "I0*"
    elif vc4 == 2 and n >= 7:
        ty = f"I{n - 6}*"
    elif n == 8:
        ty = "IV*"
    elif n == 9:
        ty = "III*"
    elif n == 10:
        ty = "II*"
    else:
        raise NotMinimal(f"model is not minimal at {p}")
    return LocalReduction(p, ty, 2, "additive")


def tate_local(m: WeierstrassModel, p: int) -> LocalReduction:
    """Kodaira type and conductor exponent at p of a p-minimal model; NotMinimal if it is not."""
    n = vp(m.disc, p)
    if n == 0:
        return LocalReduction(p, "I0", 0, "good")
    red = _tate_table(m, p, n) if p >= 5 else _tate_small(m, p, n)
    cap = 8 if p == 2 else 5 if p == 3 else 2
    if red.f > cap:
        raise InvariantViolation(f"conductor exponent {red.f} exceeds the cap at {p}")
    return red


def local_reductions(mm: WeierstrassModel, primes, at_two: LocalReduction | None = None) -> list[LocalReduction]:
    """Reduction data at the bad primes of the minimal model mm, ascending.

    primes is a set holding every prime of mm.disc; they are divided out
    of the discriminant, and IncompleteSupport reports a cofactor other
    than 1.  at_two, when given, is mm's reduction at 2, settled
    elsewhere: 2 is still divided out, but Tate's algorithm skips it.
    """
    rest = abs(mm.disc)
    out = []
    for p in sorted(set(primes)):
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        out.append(at_two if p == 2 and at_two is not None else tate_local(mm, p))
    if rest != 1:
        raise IncompleteSupport(f"the support leaves the cofactor {rest} of the discriminant {mm.disc}")
    return out


def conductor_from_support(
    mm: WeierstrassModel, support, *, proven: bool, at_two: LocalReduction | None = None
) -> Factorization:
    """Conductor of the minimal model mm, from a prime set holding its bad primes.

    proven is the flag of the factorizations the support came from; at_two
    is passed on to local_reductions.
    """
    fs = tuple((red.p, red.f) for red in local_reductions(mm, support, at_two) if red.f)
    return Factorization(value=prod(p**f for p, f in fs), sign=1, factors=fs, proven=proven)


def _minimal_disc_conductor(m: WeierstrassModel) -> tuple[WeierstrassModel, Factorization, Factorization]:
    """The minimal model, its factored discriminant and the conductor, from scratch.

    The unit comes out of gcd(c4, c6) first, so the one discriminant
    factored is the minimal one, not u^12 times it.
    """
    mm = minimal_model(m).model
    df = factorize(mm.disc)
    return mm, df, conductor_from_support(mm, df.primes(), proven=df.proven)


def conductor(m: WeierstrassModel) -> Factorization:
    """Conductor of the curve, computed from scratch.

    The proven flag is inherited from the discriminant factorization.
    """
    return _minimal_disc_conductor(m)[2]


# ---------------------------------------------------------------------------
# twists, torsion, traces


def quadratic_twist(m: WeierstrassModel, d: int) -> WeierstrassModel:
    """The twist by d, as a (generally non-minimal) integral model."""
    if d == 0:
        raise ZeroInput("twist by 0")
    if m.a1 == 0 and m.a2 == 0 and m.a3 == 0:
        a, b = m.a4, m.a6
    else:
        a, b = -27 * m.c4, -54 * m.c6
    return WeierstrassModel(0, 0, 0, a * d * d, b * d**3)


def _integer_roots(b: int, c: int, d: int) -> Iterator[int]:
    """The integer roots of f = X^3 + bX^2 + cX + d, ascending, with nothing factored.

    The floors of the critical points (-b -+ sqrt(b^2 - 3c))/3 cut the integers inside the Cauchy bound
    into runs on which f rises, falls and rises (one run when b^2 <= 3c); bisection finds their roots.
    """

    def f(x: int) -> int:
        return ((x + b) * x + c) * x + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    q = b * b - 3 * c
    s = isqrt(max(q, 0))
    cuts = [-bound - 1, (-b - s - (s * s < q)) // 3, (-b + s) // 3, bound] if q > 0 else [-bound - 1, bound]
    for sign, lo, hi in zip((1, -1, 1), cuts, cuts[1:]):  # sign * f rises on lo < x <= hi
        while hi - lo > 1:  # toward the least x in (lo, hi] with sign * f(x) >= 0
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if sign * f(mid) < 0 else (lo, mid)
        if hi > lo and f(hi) == 0:
            yield hi


@lru_cache(maxsize=32)
def two_torsion_rank(m: WeierstrassModel) -> int:
    """F_2-rank of E(Q)[2]: 0, 1, or 2.

    Rational 2-torsion x-coordinates are the rational roots of 4x^3 + b2 x^2 + 2b4 x + b6; after
    X = 4x they are the integer roots of X^3 + b2 X^2 + 8b4 X + 16b6, which `_integer_roots` finds.
    """
    roots = len(list(_integer_roots(m.b2, 8 * m.b4, 16 * m.b6)))
    if roots not in (0, 1, 3):
        raise InvariantViolation(f"the 2-division polynomial has {roots} rational roots")
    return {0: 0, 1: 1, 3: 2}[roots]


def _ap_naive(m: WeierstrassModel, p: int) -> int:
    # -sum of the Legendre symbol (h(x)/p), h = 4x^3 + b2 x^2 + 2 b4 x + b6, over x mod p
    chi = [-1] * p
    for y in range(1, p // 2 + 1):
        chi[y * y % p] = 1
    chi[0] = 0
    b2, bb4, b6 = m.b2 % p, (2 * m.b4) % p, m.b6 % p
    return -sum([chi[(((4 * x + b2) * x + bb4) * x + b6) % p] for x in range(p)])


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _ec_scale(k: int, P, a: int, p: int):
    """k*P for k >= 0: double-and-add in Jacobian coordinates, one inversion."""
    x1, y1 = P
    X, Y, Z = x1, y1, 1 if k else 0  # x = X/Z^2, y = Y/Z^3; Z = 0 at O
    for bit in bin(k)[3:]:
        if Z:
            YY = Y * Y % p
            S = 4 * X * YY % p
            M = (3 * X * X + a * pow(Z, 4, p)) % p
            X = (M * M - 2 * S) % p
            Y, Z = (M * (S - X) - 8 * YY * YY) % p, 2 * Y * Z % p
        if bit == "0":
            continue
        ZZ = Z * Z % p
        H = (x1 * ZZ - X) % p
        r = (y1 * ZZ * Z - Y) % p
        if Z and H:
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X = (r * r - HHH - 2 * V) % p
            Y, Z = (r * (V - X) - Y * HHH) % p, Z * H % p
        else:  # the sum so far is O, P (r = 0) or -P
            Q = P if not Z else None if r else _ec_add(P, P, a, p)
            X, Y, Z = (0, 1, 0) if Q is None else (*Q, 1)
    if not Z:
        return None
    zi = pow(Z, -1, p)
    return (X * zi * zi % p, Y * zi * zi * zi % p)


def _bsgs_annihilators(P, lo: int, hi: int, a: int, p: int) -> list[int]:
    """Every n in [lo, hi] with n*P = O, ascending.

    A giant point cP with x(cP) = x(jP), 1 <= j <= m, is +-jP, and its y
    says whether c - j or c + j kills P; each giant step covers 2m + 1
    integers.  An order of at most 2m + 1 shows in the baby steps.
    """
    m = isqrt((hi - lo + 1) // 2) + 1
    x1, y1 = P
    baby, pts = {}, [None]  # x(jP) -> j, and pts[j] = jP
    x, y, small = x1, y1, None  # small: a multiple of P's order, once one shows
    for j in range(1, m + 1):
        i = baby.get(x)
        if i is not None or y == 0:  # jP = +-iP, or jP = -jP
            small = 2 * j if i is None else j - i if y == pts[i][1] else j + i
            break
        baby[x] = j
        pts.append((x, y))
        # (j+1)P; jP = +-P only at j = 1, as x(P) is taken
        lam = ((3 * x * x + a) * pow(2 * y, -1, p) if j == 1 else (y - y1) * pow(x - x1, -1, p)) % p
        x3 = (lam * lam - x - x1) % p
        x, y = x3, (lam * (x - x3) - y) % p
    if small is None and x != (xm := pts[m][0]):
        # S = mP + (m+1)P = (2m+1)P, and the giant point (cx, cy) = cP for c = lo + m, ...
        lam = (y - pts[m][1]) * pow(x - xm, -1, p) % p
        sx = (lam * lam - xm - x) % p
        sy = (lam * (xm - sx) - pts[m][1]) % p
        # ... which starts as qS + (r - m)P, with (r - m)P = +-|r - m|P from the baby steps
        q, r = divmod(lo + 2 * m, 2 * m + 1)
        start = _ec_scale(q, (sx, sy), a, p)
        if r != m:
            rx, ry = pts[abs(r - m)]
            start = _ec_add(start, (rx, ry if r > m else -ry % p), a, p)
        cx, cy = start or (None, None)
        out = []
        for c in range(lo + m, hi + m + 1, 2 * m + 1):
            j = 0 if cx is None else baby.get(cx)
            if j is not None:  # cP = O, or +-jP
                n = c - j if j and cy == pts[j][1] else c + j
                if lo <= n <= hi:
                    out.append(n)
            if cx is None or cx == sx:  # cP is O or +-S
                cx, cy = _ec_add(None if cx is None else (cx, cy), (sx, sy), a, p) or (None, None)
            else:
                lam = (cy - sy) * pow(cx - sx, -1, p) % p
                x3 = (lam * lam - cx - sx) % p
                cx, cy = x3, (lam * (cx - x3) - cy) % p
    else:  # (m+1)P = -mP when small is None: P's order divides 2m + 1
        e = _exact_order(P, small or 2 * m + 1, a, p)
        out = list(range(-(-lo // e) * e, hi + 1, e))
    if not out:
        raise InvariantViolation("no annihilator in the Hasse window")
    return out


def _exact_order(P, n: int, a: int, p: int) -> int:
    e = n
    for q, _ in factorize(n).factors:
        while e % q == 0 and _ec_scale(e // q, P, a, p) is None:
            e //= q
    return e


ORDER_POINTS = 24  # points on the curve and its twist together before the group order counts as ambiguous


def _curve_order(a: int, b: int, p: int, h: int) -> int:
    """The order of E: y^2 = x^3 + ax + b over F_p, a multiple of h, from one walk over E and its twist.

    For x = 0, 1, 2, ... let f = x^3 + ax + b.  f = 0 gives (x, 0) on E; otherwise (xf, f^2) lies on
    Y^2 = X^3 + af^2 X + bf^3, which is E when f is a square and its quadratic twist when not.  The twist
    has order 2p + 2 - #E and as many points of order 2, so a point P with Q = hP != O leaves the n = hk in
    the Hasse window with kQ = O, and #E is n on E and 2p + 2 - n on the twist.
    """
    lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
    left = None  # the orders of E that every point so far allows
    for x in range(min(p, ORDER_POINTS)):
        f = (x * x * x + a * x + b) % p
        P, af = ((x, 0), a) if f == 0 else ((x * f % p, f * f % p), a * f * f % p)
        Q = _ec_scale(h, P, af, p)
        if Q is None:
            continue
        ks = _bsgs_annihilators(Q, -(-lo // h), hi // h, af, p)
        twist = f and pow(f, (p - 1) // 2, p) != 1
        ns = {2 * p + 2 - h * k if twist else h * k for k in ks}
        left = ns if left is None else left & ns
        if len(left) == 1:
            return left.pop()
        if not left:
            raise InvariantViolation("no multiple of the exponent in the Hasse window")
    raise BudgetExceeded(f"group order mod {p} still ambiguous after {ORDER_POINTS} points")


AP_NAIVE_LIMIT = 229
AP_BSGS_LIMIT = 10**8


def a_p(m: WeierstrassModel, p: int) -> int:
    """Trace of Frobenius at a prime of good reduction.

    BudgetExceeded past AP_BSGS_LIMIT, before any primality test; direct
    point counts up to AP_NAIVE_LIMIT; above that, one baby-step/giant-step
    walk over points of the curve and of its quadratic twist, each point
    from an x and no square root.  BSGS searches the multiples of h, a
    divisor of #E(F_p)[2], which the twist shares.  AP_NAIVE_LIMIT is the
    Mestre floor, 229: above it the curve or its twist has a point P of
    order above 4 sqrt(p), so hP has order above 4 sqrt(p)/h, the width of
    the window n/h runs over, and one multiple of h in the Hasse window
    kills P; at or below it BSGS can raise BudgetExceeded.  The model is
    expected to be minimal; good reduction is checked against its
    discriminant.
    """
    if p > AP_BSGS_LIMIT:
        raise BudgetExceeded(f"a_p at {p} exceeds the point-counting budget")
    ok, _ = _is_prime(p)
    if not ok:
        raise ValueError(f"{p} is not prime")
    if m.disc % p == 0:
        raise BadReduction(f"bad reduction at {p}")
    if p == 2:
        count = 0
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + m.a1 * x * y + m.a3 * y - x**3 - m.a2 * x * x - m.a4 * x - m.a6) % 2 == 0:
                    count += 1
        return 2 - count
    if p <= AP_NAIVE_LIMIT:
        return _ap_naive(m, p)
    a = -27 * m.c4 % p
    b = -54 * m.c6 % p
    # the cubic's discriminant is disc times a square, and it has one root mod p exactly when that is no square
    square = pow(m.disc, (p - 1) // 2, p) == 1
    h = (4 if square else 2) if two_torsion_rank(m) else (1 if square else 2)
    ap = p + 1 - _curve_order(a, b, p, h)
    if ap * ap > 4 * p:
        raise InvariantViolation(f"the group order mod {p} breaks the Hasse bound")
    return ap


# ---------------------------------------------------------------------------
# curve records


class CurveRecord(NamedTuple):
    """A curve plus the externally sourced invariants the bounds need.

    moddeg is the modular degree, manin the Manin constant; both stay
    None when unknown.
    """

    minimal_model: WeierstrassModel
    min_disc: Factorization
    conductor: Factorization
    two_torsion_rank: int
    moddeg: int | None = None
    manin: int | None = None
    label: str | None = None


def build_curve_record(
    ainvs,
    *,
    moddeg: int | None = None,
    manin: int | None = None,
    label: str | None = None,
) -> CurveRecord:
    """Minimalize and verify a curve, recomputing everything derivable."""
    if moddeg is not None and moddeg < 1:
        raise ValueError("the modular degree is a positive integer")
    if manin is not None and manin < 1:
        raise ValueError("the Manin constant is a positive integer")
    ainvs = tuple(ainvs)
    ints = tuple(int(v) for v in ainvs)
    if ints != ainvs:
        raise ValueError(f"the a-invariants must be integers, got {ainvs!r}")
    mm, min_disc, cond = _minimal_disc_conductor(WeierstrassModel(*ints))
    return CurveRecord(
        minimal_model=mm,
        min_disc=min_disc,
        conductor=cond,
        two_torsion_rank=two_torsion_rank(mm),
        moddeg=moddeg,
        manin=manin,
        label=label,
    )
