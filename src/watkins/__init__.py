"""Certified rank bounds for quadratic twists of elliptic curves over Q.

For a curve E with rational 2-torsion and known modular degree, the
2-adic valuation of the modular degree of a twist E^D can be bounded
from below without computing it, and the rank of E^D(Q) can be bounded
from above by counting primes.  When the bounds cross, the twist
satisfies rank <= v2(modular degree) provably, and `verify_twist`
emits a machine-checkable certificate saying so.
"""

from .certify import (
    CertifyContext,
    TwistCertificate,
    certificate_to_json,
    certificate_to_obj,
    verify_twist,
    watkins_threshold,
)
from .data import fetch_curve, load_fixtures, record_from_row
from .ecq import CurveRecord, build_curve_record
from .errors import WatkinsError

__version__ = "0.1.0"
