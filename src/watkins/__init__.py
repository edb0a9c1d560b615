"""Certified rank bounds for quadratic twists of elliptic curves over Q.

For a curve E with rational 2-torsion and known modular degree, the
2-adic valuation of the modular degree of a twist E^D can be bounded
from below without computing it, and the rank of E^D(Q) can be bounded
from above by counting primes.  When the bounds cross, the twist
satisfies rank <= v2(modular degree) provably, and `verify_twist`
emits a machine-checkable certificate saying so.
"""

from .arith import (
    Factorization,
    FundamentalDiscriminant,
    count_omega_at_most,
    enumerate_fundamental_discriminants,
    factorize,
    is_fundamental_discriminant,
    omega,
    prime_discriminant_parts,
    v2,
    vp,
)
from .certify import (
    CertifyContext,
    ThresholdReport,
    TwistCertificate,
    certificate_to_json,
    certificate_to_obj,
    faltings_delta_v2,
    is_minimal_twist,
    kappa,
    local_v2_contribution,
    minimal_twist_candidates,
    moddeg_v2_lower_exact,
    moddeg_v2_lower_torsion,
    petersson_v2_lower,
    selmer_rank_upper,
    twist_prime_set,
    twist_rank_upper,
    verify_twist,
    watkins_threshold,
)
from .data import (
    CurveCache,
    CurveDataRow,
    LmfdbClient,
    fetch_curve,
    load_fixtures,
    record_from_row,
    validate_row,
)
from .ecq import (
    CurveRecord,
    LocalReduction,
    MinimalModelResult,
    WeierstrassModel,
    a_p,
    build_curve_record,
    conductor,
    local_reductions,
    minimal_model,
    quadratic_twist,
    tate_local,
    transform_model,
    two_torsion_rank,
)
from .errors import (
    BadReduction,
    BudgetExceeded,
    ConductorDivisibility,
    CorruptCache,
    DataError,
    FactoringBudgetExceeded,
    HasseViolation,
    IncompleteSupport,
    InvariantViolation,
    MissingInvariant,
    NetworkError,
    NotFound,
    NotMinimal,
    NotMinimalTwist,
    NotTwistPair,
    NoTwoTorsion,
    SchemaMismatch,
    SingularModel,
    ValidationError,
    WatkinsError,
    ZeroInput,
)

__version__ = "0.1.0"
