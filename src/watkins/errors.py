"""Exception hierarchy.

Everything raised on purpose derives from WatkinsError so callers can
catch one type at the boundary.  Data-layer problems get their own
subtree under DataError.
"""


class WatkinsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInput(WatkinsError):
    """An argument that must be nonzero was zero."""


class FactoringBudgetExceeded(WatkinsError):
    """Pollard-rho round budget ran out before the number split."""


class SingularModel(WatkinsError):
    """Weierstrass coefficients with vanishing discriminant."""


class NotMinimal(WatkinsError):
    """A computation that requires a minimal model got a non-minimal one."""


class BadReduction(WatkinsError):
    """a_p requested at a prime dividing the discriminant."""


class BudgetExceeded(WatkinsError):
    """A point-count or sieve exceeded its configured limit."""


class HasseViolation(WatkinsError):
    """Supplied a_p violates |a_p| <= 2*sqrt(p)."""


class MissingInvariant(WatkinsError):
    """A curve record lacks a field (moddeg, manin) the formula needs."""


class NoTwoTorsion(WatkinsError):
    """The torsion-route bound needs a rational 2-torsion point."""


class NotMinimalTwist(WatkinsError):
    """A twist of the curve has a strictly smaller conductor."""


class ConductorDivisibility(WatkinsError):
    """The curve's conductor does not divide the twisted conductor."""


class NotTwistPair(WatkinsError):
    """Height comparison requested for curves that are not twists."""


class InvariantViolation(WatkinsError):
    """A mathematical identity a computation rests on failed to hold."""


class IncompleteSupport(WatkinsError):
    """A prime set meant to hold every bad prime misses one of them."""


class DataError(WatkinsError):
    """Base for acquisition/cache/validation failures."""


class NetworkError(DataError):
    """Transport failure talking to the remote table."""


class NotFound(DataError):
    """No row matched the query (locally or remotely)."""


class SchemaMismatch(DataError):
    """Remote row shape differs from the documented field mapping."""


class ValidationError(DataError):
    """Remote data contradicts locally recomputed invariants."""


class CorruptCache(DataError):
    """Cache line failed to parse or failed its checksum.

    ``offset`` is the byte position of the offending line start.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset
