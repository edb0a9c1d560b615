"""Independent checks of `watkins` certificates.

Nothing here imports `watkins`.  The curve constants below are the
published Cremona-table entries for the three benchmark curves; every
other quantity (factorizations, fundamental discriminants, point
counts, the group law, the bound formulas) is recomputed from scratch
with code of this file's own.

A certificate is the JSON object `watkins` prints: every integer is a
decimal string.  Each check returns a list of problems; an empty list
means the certificate passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

# a_p is counted point by point up to this prime; above it the group
# order p + 1 - a_p must kill GROUP_POINTS random points.
BRUTE_LIMIT = 3000
GROUP_POINTS = 4


@dataclass(frozen=True)
class Curve:
    label: str
    ainvs: tuple[int, int, int, int, int]
    conductor: int
    moddeg: int
    manin: int


CURVES = {
    "17a1": Curve("17a1", (1, -1, 1, -1, -14), 17, 1, 1),
    "32a1": Curve("32a1", (0, 0, 0, 4, 0), 32, 1, 1),
    "49a1": Curve("49a1", (1, -1, 0, -2, -1), 49, 1, 1),
}


# ---------------------------------------------------------------------------
# integers


def v2(n: int) -> int:
    n = abs(n)
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| by plain trial division."""
    n = abs(n)
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


def fundamental(d: int) -> bool:
    """d is a fundamental discriminant other than 1, from the definition."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0 and (d // 4) % 4 in (2, 3):
        return squarefree(d // 4)
    return False


def fundamental_discriminants(bound: int) -> list[int]:
    """Every fundamental d with 1 < |d| <= bound, by |d|, positive first."""
    return [d for a in range(2, bound + 1) for d in (a, -a) if fundamental(d)]


# ---------------------------------------------------------------------------
# curves over F_p


def _weierstrass(ainvs, x: int, y: int, p: int) -> int:
    a1, a2, a3, a4, a6 = ainvs
    return (y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6) % p


def count_ap(ainvs, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting the roots y of the curve equation at each x."""
    if p == 2:
        affine = sum(1 for x in range(2) for y in range(2) if _weierstrass(ainvs, x, y, 2) == 0)
        return 2 - affine
    a1, a2, a3, a4, a6 = ainvs
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] = 1
    affine = 0
    for x in range(p):
        # y^2 + (a1 x + a3) y - f(x) = 0 has 1 + (disc / p) roots
        b = a1 * x + a3
        disc = (b * b + 4 * (x * x * x + a2 * x * x + a4 * x + a6)) % p
        affine += 1 if disc == 0 else 2 if squares[disc] else 0
    return p - affine


def _short_model(ainvs, p: int) -> tuple[int, int]:
    """(A, B) of y^2 = x^3 + A x + B isomorphic to the curve over F_p, p > 3."""
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    return -27 * c4 % p, -54 * c6 % p


def _add(P, Q, A: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        m = (3 * x1 * x1 + A) * pow(2 * y1, p - 2, p) % p
    else:
        m = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (m * m - x1 - x2) % p
    return x3, (m * (x1 - x3) - y1) % p


def _mul(k: int, P, A: int, p: int):
    R = None
    for bit in bin(k)[2:]:
        R = _add(R, R, A, p)
        if bit == "1":
            R = _add(R, P, A, p)
    return R


def group_order_kills(ainvs, p: int, ap: int, points: int = GROUP_POINTS) -> bool:
    """(p + 1 - ap) * P = O for `points` random F_p-points P (p > 3)."""
    A, B = _short_model(ainvs, p)
    rng = random.Random(p * 1_000_003 + ap)
    order = p + 1 - ap
    found = 0
    while found < points:
        x = rng.randrange(p)
        rhs = (x * x * x + A * x + B) % p
        if rhs and pow(rhs, (p - 1) // 2, p) != 1:
            continue
        found += 1
        if _mul(order, (x, _sqrt(rhs, p)), A, p) is not None:
            return False
    return True


def _sqrt(n: int, p: int) -> int:
    """A square root of the quadratic residue n mod p, by Cipolla's method."""
    if n == 0:
        return 0
    t = 0
    while pow((t * t - n) % p, (p - 1) // 2, p) != p - 1:
        t += 1
    w = (t * t - n) % p

    def mul(u, v):
        return ((u[0] * v[0] + u[1] * v[1] * w) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    r, base, e = (1, 0), (t, 1), (p + 1) // 2
    while e:
        if e & 1:
            r = mul(r, base)
        base = mul(base, base)
        e >>= 1
    return r[0]


# ---------------------------------------------------------------------------
# certificates


class Checker:
    """Re-derives certificates for one of CURVES; caches a_p checks per prime."""

    def __init__(self, label: str):
        self.curve = CURVES[label]
        self.n_fact = factor(self.curve.conductor)
        self._ap_ok: dict[tuple[int, int], bool] = {}

    def ap_ok(self, p: int, ap: int) -> bool:
        key = (p, ap)
        if key not in self._ap_ok:
            if p <= BRUTE_LIMIT:
                ok = count_ap(self.curve.ainvs, p) == ap
            else:
                ok = group_order_kills(self.curve.ainvs, p, ap)
            self._ap_ok[key] = ok
        return self._ap_ok[key]

    def check(self, obj: dict, d: int) -> list[str]:
        """Problems with one certificate for the twist by d."""
        try:
            return self._check(obj, d)
        except (KeyError, TypeError, ValueError) as err:
            return [f"malformed certificate: {err!r}"]

    def _check(self, obj: dict, d: int) -> list[str]:
        c = self.curve
        bad = []
        if obj["curve"] != c.label:
            bad.append(f"curve {obj['curve']} != {c.label}")
        if int(obj["d"]) != d:
            bad.append(f"d {obj['d']} != {d}")
        if not fundamental(d):
            bad.append(f"{d} is not a fundamental discriminant")
        if obj["verdict"] not in ("CERTIFIED", "INCONCLUSIVE"):
            return bad + [f"verdict {obj['verdict']}"]
        if obj["assumptions"] != []:
            bad.append(f"unexpected assumptions {obj['assumptions']}")

        d_fact = factor(d)
        n_fact = self.n_fact
        primes = [p for p in sorted(d_fact) if p != 2 and p not in n_fact]
        rows = [[int(v) for v in row] for row in obj["prime_set"]]
        if [r[0] for r in rows] != primes:
            bad.append(f"prime_set primes {[r[0] for r in rows]} != {primes}")
        c_sum = 0
        for p, ap, cp in rows:
            if ap * ap > 4 * p:
                bad.append(f"a_{p} = {ap} breaks the Hasse bound")
                continue
            want = v2((p - 1) * (p + 1 - ap) * (p + 1 + ap))
            if cp != want:
                bad.append(f"c_{p} = {cp} != {want}")
            if not self.ap_ok(p, ap):
                bad.append(f"a_{p} = {ap} fails the point-count check")
            c_sum += cp

        tc = obj["twist_conductor"]
        nd = int(tc["value"])
        nd_fact = {int(p): int(e) for p, e in tc["factors"]}
        prod = 1
        for p, e in nd_fact.items():
            prod *= p**e
            if not is_prime(p) or e < 1:
                bad.append(f"conductor factor {p}^{e} is not a prime power")
        if prod != nd or list(nd_fact) != sorted(nd_fact):
            bad.append(f"conductor factors do not give {nd}")
        if nd % c.conductor:
            bad.append(f"N = {c.conductor} does not divide N_D = {nd}")
        for p, e in nd_fact.items():
            if p == 2 and e > 8 or p == 3 and e > 5 or p > 3 and e > 2:
                bad.append(f"conductor exponent {e} at {p} exceeds its cap")
        for p in primes:
            if nd_fact.get(p) != 2:
                bad.append(f"conductor exponent at {p} | d is {nd_fact.get(p)}, not 2")
        for p in nd_fact:
            if p != 2 and p not in d_fact and p not in n_fact:
                bad.append(f"conductor has odd prime {p} dividing neither d nor N")

        v2m = v2(c.moddeg) - 2 * v2(c.manin)
        om_d, om_n = len(d_fact), len(n_fact)
        t = 6 + 5 * om_n - v2m
        want = {
            "rank_upper_exact": 2 * len(nd_fact) - 1,
            "rank_upper_coarse": 2 * (om_d + om_n) - 1,
            "lower_bound_exact": v2m - 4 + c_sum,
            "lower_bound_torsion": 3 * om_d + v2m - 7 - 3 * om_n,
            "threshold": t,
        }
        for key, value in want.items():
            if int(obj[key]) != value:
                bad.append(f"{key} = {obj[key]} != {value}")
        if int(obj["lower_bound_exact"]) < int(obj["lower_bound_torsion"]):
            bad.append("lower_bound_exact < lower_bound_torsion")
        certified = int(obj["rank_upper_exact"]) <= int(obj["lower_bound_exact"]) or om_d >= t
        verdict = "CERTIFIED" if certified else "INCONCLUSIVE"
        if obj["verdict"] != verdict:
            bad.append(f"verdict {obj['verdict']} != {verdict}")
        return bad


def check_scan(label: str, bound: int, lines: list[dict], checker: Checker | None = None) -> list[str]:
    """Problems with a whole `watkins scan` JSON output: the d list, every certificate, the summary."""
    checker = checker or Checker(label)
    if not lines or "summary" not in lines[-1]:
        return ["scan output has no trailing summary"]
    certs, summary = lines[:-1], lines[-1]["summary"]
    want_ds = fundamental_discriminants(bound)
    got_ds = [int(obj["d"]) for obj in certs]
    if got_ds != want_ds:
        missing = sorted(set(want_ds) - set(got_ds), key=abs)[:5]
        extra = sorted(set(got_ds) - set(want_ds), key=abs)[:5]
        return [f"scan d list differs: {len(got_ds)} vs {len(want_ds)}, missing {missing}, extra {extra}"]
    bad = []
    counts = {"CERTIFIED": 0, "INCONCLUSIVE": 0, "INAPPLICABLE": 0}
    for obj, d in zip(certs, want_ds):
        bad += [f"d={d}: {msg}" for msg in checker.check(obj, d)]
        kind = obj["verdict"].split("(")[0]
        counts[kind] = counts.get(kind, 0) + 1
    c = checker.curve
    t = 6 + 5 * len(checker.n_fact) - (v2(c.moddeg) - 2 * v2(c.manin))
    want_summary = {
        "total": str(len(want_ds)),
        "certified": str(counts["CERTIFIED"]),
        "inconclusive": str(counts["INCONCLUSIVE"]),
        "inapplicable": str(counts["INAPPLICABLE"]),
        "d_bound": str(bound),
        "threshold": str(t),
    }
    for key, value in want_summary.items():
        if summary.get(key) != value:
            bad.append(f"summary {key} = {summary.get(key)} != {value}")
    return bad


def verdict_exit_code(verdict: str) -> int:
    """Exit code `watkins verify` documents for a verdict."""
    return {"CERTIFIED": 0, "INCONCLUSIVE": 1}.get(verdict, 3)


# ---------------------------------------------------------------------------
# self-test


def _corruptions(obj: dict, d: int):
    """(name, certificate) pairs, each wrong in exactly one way the checker must see."""
    def copy():
        return {
            **obj,
            "prime_set": [list(r) for r in obj["prime_set"]],
            "twist_conductor": {
                "value": obj["twist_conductor"]["value"],
                "factors": [list(f) for f in obj["twist_conductor"]["factors"]],
            },
        }

    p, ap, _ = (int(v) for v in obj["prime_set"][-1])
    # a wrong a_p of the right parity, with c_p and the bounds re-derived from it,
    # so that only the point-count check can catch it
    wrong = copy()
    for shift in (2, -2, 4, -4):
        if (ap + shift) ** 2 <= 4 * p:
            break
    new_ap = ap + shift
    old_cp = int(wrong["prime_set"][-1][2])
    new_cp = v2((p - 1) * (p + 1 - new_ap) * (p + 1 + new_ap))
    wrong["prime_set"][-1] = [str(p), str(new_ap), str(new_cp)]
    wrong["lower_bound_exact"] = str(int(obj["lower_bound_exact"]) - old_cp + new_cp)
    certified = (
        int(wrong["rank_upper_exact"]) <= int(wrong["lower_bound_exact"])
        or len(factor(d)) >= int(obj["threshold"])
    )
    wrong["verdict"] = "CERTIFIED" if certified else "INCONCLUSIVE"
    yield f"wrong a_{p}", wrong

    wrong = copy()
    wrong["prime_set"][-1][2] = str(int(wrong["prime_set"][-1][2]) + 1)
    yield f"wrong c_{p}", wrong

    wrong = copy()
    wrong["verdict"] = "INCONCLUSIVE" if obj["verdict"] == "CERTIFIED" else "CERTIFIED"
    yield "flipped verdict", wrong

    # exponent 1 at p | d, value recomputed so the factorization stays consistent
    wrong = copy()
    factors = wrong["twist_conductor"]["factors"]
    i = next(i for i, f in enumerate(factors) if int(f[0]) == p)
    factors[i][1] = "1"
    wrong["twist_conductor"]["value"] = str(int(obj["twist_conductor"]["value"]) // p)
    yield f"conductor exponent 1 at {p}", wrong


def self_test(label: str, obj: dict, d: int, scan: tuple[int, list[dict]] | None = None) -> list[str]:
    """Corrupt a passing certificate (and scan) several ways; report each corruption accepted.

    `obj` must have a non-empty prime_set.  `scan` is (bound, lines) of a
    passing scan of the same curve, used for the dropped-d case.
    """
    checker = Checker(label)
    out = []
    if checker.check(obj, d):
        return [f"self-test input for {label}, d={d} does not pass"]
    for name, wrong in _corruptions(obj, d):
        if not checker.check(wrong, d):
            out.append(f"checker accepted a certificate with a {name} ({label}, d={d})")
    if scan is not None:
        bound, lines = scan
        dropped = lines[: len(lines) // 2] + lines[len(lines) // 2 + 1 :]
        if not check_scan(label, bound, dropped, checker):
            out.append(f"checker accepted a {label} scan with a dropped d")
    return out
