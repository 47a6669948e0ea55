"""Exception hierarchy shared across the package."""


class ReglabError(Exception):
    """Base class for all package-specific errors."""


class IsotrivialFamily(ReglabError):
    """The j-invariant is constant, so no Picard-Fuchs operator exists;
    also raised when the discriminant vanishes identically."""


class NotMinimal(ReglabError):
    """Local Weierstrass data is not minimal and was not minimalized."""


class NonIntegralEpsilon(ReglabError):
    """Euler-number bookkeeping produced a non-integer total."""


class UnsupportedL(ReglabError):
    """Parameter l outside the supported range (l >= 1, gcd(l, 6) = 1)."""


class PrecisionNotReached(ReglabError):
    """The evaluation-agreement certificate failed at the maximum series length,
    or a certified period failed its positivity check."""


class RootOrderingFailed(ReglabError):
    """Cubic root finder could not certify the ordering r1 < r2 < r3."""


class DomainError(ReglabError):
    """Numeric routine called outside its domain of validity."""


class QuadratureNotConverged(ReglabError):
    """The fixed-panel quadrature's error is too large for its periods, or the
    series route and its check (compute's closed forms, or the quadrature)
    differ by more than 1e-6 relative."""
