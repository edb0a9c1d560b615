"""Rank certification for quadratic twists via 2-adic modular-degree bounds.

The chain of inequalities, per twist E^D of a curve E with rational
2-torsion:

    rank E^D(Q)  <=  2*omega(N_D) - 1                (exact upper)
                 <=  2*(omega(D) + omega(N)) - 1     (coarse upper)

    v2(deg phi of E^D)  >=  v2(m/c^2) - 4 + sum_{p in P(D,N)} c_p   (exact lower)
                        >=  3*omega(D) + v2(m/c^2) - 7 - 3*omega(N) (torsion lower)

where c_p = v2((p-1)(p+1-a_p)(p+1+a_p)), m is the modular degree of
E, c its Manin constant, and P(D, N) the odd primes dividing D but
not N.  Whenever an upper bound lands at or below a lower bound the
twist satisfies the rank <= v2(moddeg) inequality and the certificate
says CERTIFIED.  The threshold t = 6 + 5*omega(N) - v2(m/c^2) marks
the point where the coarse comparison succeeds for every D with
omega(D) >= t.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import NamedTuple

from .arith import Factorization, factor_fundamental, v2
from .ecq import (
    CurveRecord,
    WeierstrassModel,
    a_p,
    conductor_from_support,
    minimal_model,
    quadratic_twist,
)
from .errors import (
    ConductorDivisibility,
    HasseViolation,
    InvariantViolation,
    MissingInvariant,
    NotMinimalTwist,
    NotTwistPair,
    NoTwoTorsion,
    WatkinsError,
)

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"
INAPPLICABLE = "INAPPLICABLE"


def twist_prime_set(d_fact: Factorization, n_primes: frozenset[int] | set[int]) -> tuple[int, ...]:
    """P(D, N): odd primes dividing D and not among N's primes n_primes, ascending."""
    return tuple(p for p in d_fact.primes() if p != 2 and p not in n_primes)


def local_v2_contribution(p: int, ap: int) -> int:
    """c_p = v2((p-1)(p+1-a_p)(p+1+a_p)) for an odd good prime."""
    if ap * ap > 4 * p:
        raise HasseViolation(f"|a_{p}| = {abs(ap)} breaks the Hasse bound")
    return v2(p - 1) + v2(p + 1 - ap) + v2(p + 1 + ap)


def moddeg_v2_lower_exact(v2_moddeg: int, prime_set) -> int:
    """v2(m/c^2) - 4 + the sum of the c_p of the (p, a_p, c_p) triples."""
    return v2_moddeg - 4 + sum(c for _, _, c in prime_set)


def moddeg_v2_lower_torsion(omega_d: int, v2_moddeg: int, omega_n: int, torsion_rank: int) -> int:
    """Counting-only lower bound; needs a rational 2-torsion point."""
    if torsion_rank < 1:
        raise NoTwoTorsion("the torsion-route bound requires rational 2-torsion")
    return 3 * omega_d + v2_moddeg - 7 - 3 * omega_n


def selmer_rank_upper(n_fact: Factorization) -> int:
    """2-descent bound for a curve with rational 2-torsion: 2*omega(N) - 1."""
    return 2 * n_fact.omega - 1


def twist_rank_upper(twist_cond: Factorization, d_fact: Factorization, n_fact: Factorization) -> tuple[int, int]:
    """(exact, coarse) rank upper bounds for the twist."""
    exact = selmer_rank_upper(twist_cond)
    coarse = 2 * (d_fact.omega + n_fact.omega) - 1
    return exact, coarse


def faltings_delta_v2(e1: WeierstrassModel, e2: WeierstrassModel) -> bool:
    """Whether v2 of |disc1/disc2|^(1/6) obeys the |.| <= 3 bound.

    e1, e2 are minimal models of a twist pair.  Equal j-invariants and
    the bound are tested in integers.
    """
    if e1.c4**3 * e2.disc != e2.c4**3 * e1.disc:
        raise NotTwistPair("curves have different j-invariants")
    return abs(v2(e1.disc) - v2(e2.disc)) <= 18


class ThresholdReport(NamedTuple):
    label: str | None
    threshold: int
    kappa: int
    omega_n: int
    v2_moddeg: int
    assumptions: tuple[str, ...] = ()


def kappa(t: int) -> int:
    return max(t - 2, 0)


def watkins_threshold(curve: CurveRecord, *, assume_manin: bool = False) -> ThresholdReport:
    """t = 6 + 5*omega(N) - v2(m/c^2), and the density exponent max(t-2, 0).

    The one place t is computed: verify_twist reads it, and v2(m/c^2), from here.
    """
    if curve.moddeg is None:
        raise MissingInvariant("modular degree unknown for this curve")
    manin, assumptions = curve.manin, ()
    if manin is None:
        if not assume_manin:
            raise MissingInvariant("Manin constant unknown; pass assume_manin to take c = 1")
        manin, assumptions = 1, ("manin_assumed_1",)
    v2m = v2(curve.moddeg) - 2 * v2(manin)
    t = 6 + 5 * curve.conductor.omega - v2m
    return ThresholdReport(
        label=curve.label,
        threshold=t,
        kappa=kappa(t),
        omega_n=curve.conductor.omega,
        v2_moddeg=v2m,
        assumptions=assumptions,
    )


def _twist_minimal_model(curve: CurveRecord, d: int, d_primes=()) -> tuple[set[int], WeierstrassModel]:
    """A prime set holding every bad prime of the twist by d, and its minimal model over it.

    The twist's discriminant is d^6 * Delta_min(E), times 6^12 unless E
    is short.  N's primes are in the set, so d_primes may leave out those
    of d that divide 2N, and a record whose N lies still meets the N | N_D gate.
    """
    support = {2, 3, *d_primes, *curve.min_disc.primes(), *curve.conductor.primes()}
    return support, minimal_model(quadratic_twist(curve.minimal_model, d), support).model


def is_minimal_twist(curve: CurveRecord) -> tuple[bool, int | None]:
    """Whether no twist supported on 2N has a strictly smaller conductor.

    Returns (flag, witness): witness is the discriminant of the smallest
    twisted conductor, then the smallest |d|, then d > 0, when that
    conductor beats N.  The exponent of N_D at p depends only on D's
    prime discriminant at p, since p* = +-p = 1 (mod 4) is unramified at
    every other prime and a 2-part -4, 8, -8 at every odd prime.  So the
    minimum is taken prime by prime: p* joins the witness only when its
    twist has a smaller exponent at p than N, and at 2 the lowest
    exponent among the 2-parts 1, -4, 8, -8 wins, then the smallest |t|,
    then the t that makes the witness positive.  That is omega_odd(N) + 3
    twisted conductors, each supported on 2N, so nothing is factored.
    """
    n = curve.conductor

    def exponent(d: int, p: int) -> int:
        support, twist_min = _twist_minimal_model(curve, d)
        return conductor_from_support(twist_min, support, proven=True).v(p)

    odd = 1
    for p in n.primes():
        pstar = p if p % 4 == 1 else -p
        if p != 2 and exponent(pstar, p) < n.v(p):
            odd *= pstar
    at_two = {1: n.v(2), **{t: exponent(t, 2) for t in (-4, 8, -8)}}
    lowest = min(at_two.values())
    two = min((t for t, e in at_two.items() if e == lowest), key=lambda t: (abs(t), t * odd < 0))
    d = odd * two
    return (True, None) if d == 1 else (False, d)


class TwistCertificate(NamedTuple):
    curve: str
    d: int
    verdict: str
    reason: str | None = None
    twist_conductor: Factorization | None = None
    prime_set: tuple[tuple[int, int, int], ...] = ()
    lower_bound_exact: int | None = None
    lower_bound_torsion: int | None = None
    rank_upper_exact: int | None = None
    rank_upper_coarse: int | None = None
    threshold: int | None = None
    assumptions: tuple[str, ...] = ()

    @property
    def verdict_full(self) -> str:
        if self.verdict == INAPPLICABLE:
            return f"{INAPPLICABLE}({self.reason})"
        return self.verdict


_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


def _reason_from(err: WatkinsError) -> str:
    return _CAMEL.sub("_", type(err).__name__).lower()


AP_SHARED_LIMIT = 10**4


@lru_cache(maxsize=32)
def _curve_facts(curve: CurveRecord) -> tuple[str, tuple, frozenset[int], dict[int, tuple[int, int]]]:
    """(name, gates, N's primes, the (a_p, c_p) store below AP_SHARED_LIMIT) of a record, settled
    once for all its certificates (32 records kept).  gates[assume_manin] is the ThresholdReport,
    or the reason of the first curve-only gate that refuses."""
    try:
        if curve.two_torsion_rank < 1:
            raise NoTwoTorsion("curve has no rational 2-torsion")
        minimal, witness = is_minimal_twist(curve)
        if not minimal:
            raise NotMinimalTwist(f"the twist by {witness} has a smaller conductor")
        gates = []
        for assume_manin in (False, True):
            try:
                gates.append(watkins_threshold(curve, assume_manin=assume_manin))
            except MissingInvariant as err:
                gates.append(_reason_from(err))
    except WatkinsError as err:
        gates = [_reason_from(err)] * 2
    name = curve.label or "[" + ",".join(str(a) for a in curve.minimal_model.ainvs()) + "]"
    return name, tuple(gates), frozenset(curve.conductor.primes()), {}


class CertifyContext:
    """The facts of one base curve, shared across many of its twists: ap(p) is (a_p, c_p).

    They come from _curve_facts, once per record for every context and single-twist
    call; (a_p, c_p) at a prime at or above AP_SHARED_LIMIT stays in its context.
    """

    def __init__(self, curve: CurveRecord):
        self.curve = curve
        self.name, self.gates, self.n_primes, self._shared = _curve_facts(curve)
        self._ap: dict[int, tuple[int, int]] = {}

    def ap(self, p: int) -> tuple[int, int]:
        store = self._shared if p < AP_SHARED_LIMIT else self._ap
        if p not in store:
            ap = a_p(self.curve.minimal_model, p)
            store[p] = ap, local_v2_contribution(p, ap)
        return store[p]


def verify_twist(
    curve: CurveRecord,
    d: int,
    *,
    assume_manin: bool = False,
    context: CertifyContext | None = None,
) -> TwistCertificate:
    """Certificate for the twist of curve by the fundamental discriminant d.

    Applicability gates, in order: the curve must have rational
    2-torsion, must be the minimal twist in its family, must have a
    known modular degree (and Manin constant, unless assume_manin),
    and its conductor must divide the twisted conductor.  The first three
    come settled from the context, which must be one of curve.  Budget or
    data errors downgrade to INAPPLICABLE with a snake_case reason rather
    than escaping.  d is factored first: a d that is not a fundamental
    discriminant raises ValueError, and a factoring budget error on d propagates.
    """
    d_fact = factor_fundamental(d)
    ctx = context or CertifyContext(curve)
    threshold = ctx.gates[bool(assume_manin)]
    if isinstance(threshold, str):
        return TwistCertificate(curve=ctx.name, d=d, verdict=INAPPLICABLE, reason=threshold)
    try:
        support, twist_min = _twist_minimal_model(curve, d, d_fact.primes())
        twist_cond = conductor_from_support(
            twist_min, support, proven=d_fact.proven and curve.min_disc.proven
        )
        if twist_cond.value % curve.conductor.value:
            raise ConductorDivisibility(f"N = {curve.conductor.value} does not divide N_D = {twist_cond.value}")

        if not faltings_delta_v2(curve.minimal_model, twist_min):
            raise InvariantViolation("the twist pair breaks the height-comparison bound")

        v2m, assumptions = threshold.v2_moddeg, threshold.assumptions
        if not twist_cond.proven:
            assumptions += ("probabilistic_prime",)

        prime_set = tuple((p, *ctx.ap(p)) for p in twist_prime_set(d_fact, ctx.n_primes))
        lower_exact = moddeg_v2_lower_exact(v2m, prime_set)
        lower_torsion = moddeg_v2_lower_torsion(
            d_fact.omega, v2m, curve.conductor.omega, curve.two_torsion_rank
        )
        upper_exact, upper_coarse = twist_rank_upper(twist_cond, d_fact, curve.conductor)

        certified = upper_exact <= lower_exact or d_fact.omega >= threshold.threshold
        return TwistCertificate(
            curve=ctx.name,
            d=d,
            verdict=CERTIFIED if certified else INCONCLUSIVE,
            twist_conductor=twist_cond,
            prime_set=prime_set,
            lower_bound_exact=lower_exact,
            lower_bound_torsion=lower_torsion,
            rank_upper_exact=upper_exact,
            rank_upper_coarse=upper_coarse,
            threshold=threshold.threshold,
            assumptions=assumptions,
        )
    except WatkinsError as err:
        return TwistCertificate(curve=ctx.name, d=d, verdict=INAPPLICABLE, reason=_reason_from(err))


# ---------------------------------------------------------------------------
# serialization

CERT_FIELDS = (
    "curve",
    "d",
    "twist_conductor",
    "prime_set",
    "lower_bound_exact",
    "lower_bound_torsion",
    "rank_upper_exact",
    "rank_upper_coarse",
    "threshold",
    "verdict",
    "assumptions",
)


def _enc_int(v):
    return None if v is None else str(v)


def _enc_fact(f: Factorization | None):
    if f is None:
        return None
    return {
        "value": str(f.value),
        "factors": [[str(p), str(e)] for p, e in f.factors],
    }


def certificate_to_obj(cert: TwistCertificate) -> dict:
    """JSON-ready dict; every integer rendered as a decimal string."""
    return {
        "curve": cert.curve,
        "d": str(cert.d),
        "twist_conductor": _enc_fact(cert.twist_conductor),
        "prime_set": [[str(p), str(ap), str(c)] for p, ap, c in cert.prime_set],
        "lower_bound_exact": _enc_int(cert.lower_bound_exact),
        "lower_bound_torsion": _enc_int(cert.lower_bound_torsion),
        "rank_upper_exact": _enc_int(cert.rank_upper_exact),
        "rank_upper_coarse": _enc_int(cert.rank_upper_coarse),
        "threshold": _enc_int(cert.threshold),
        "verdict": cert.verdict_full,
        "assumptions": list(cert.assumptions),
    }


def certificate_to_json(cert: TwistCertificate) -> str:
    return json.dumps(certificate_to_obj(cert), separators=(",", ":"))


def obj_to_flat(obj: dict) -> list[str]:
    """CSV row in CERT_FIELDS order; nested values are JSON cells."""
    row = []
    for key in CERT_FIELDS:
        v = obj[key]
        if v is None:
            row.append("")
        elif isinstance(v, str):
            row.append(v)
        else:
            row.append(json.dumps(v, separators=(",", ":")))
    return row
