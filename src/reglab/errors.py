"""Exception hierarchy shared across the package."""


class ReglabError(Exception):
    """Base class for all package-specific errors."""


class IsotrivialFamily(ReglabError):
    """The j-invariant is constant, so no Picard-Fuchs operator exists."""


class NotMinimal(ReglabError):
    """Local Weierstrass data is not minimal and was not minimalized."""


class NonIntegralEpsilon(ReglabError):
    """Euler-number bookkeeping produced a non-integer total."""


class UnsupportedL(ReglabError):
    """Parameter l outside the supported range (l >= 1, gcd(l, 6) = 1)."""


class PrecisionNotReached(ReglabError):
    """The evaluation-agreement certificate failed at the maximum series length."""


class RootOrderingFailed(ReglabError):
    """Cubic root finder could not certify the ordering r1 < r2 < r3."""


class DomainError(ReglabError):
    """Numeric routine called outside its domain of validity."""


class QuadratureNotConverged(ReglabError):
    """Adaptive quadrature could not certify the requested tolerance."""
