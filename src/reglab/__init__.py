"""Period integrals and regulator determinants for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0."""

__version__ = "0.3.1"

from .errors import (
    DomainError,
    IsotrivialFamily,
    NonIntegralEpsilon,
    NotMinimal,
    PrecisionNotReached,
    QuadratureNotConverged,
    ReglabError,
    RootOrderingFailed,
    UnsupportedL,
)

__all__ = [
    "ReglabError",
    "IsotrivialFamily",
    "NotMinimal",
    "NonIntegralEpsilon",
    "UnsupportedL",
    "PrecisionNotReached",
    "RootOrderingFailed",
    "DomainError",
    "QuadratureNotConverged",
    "__version__",
]
