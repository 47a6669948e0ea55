"""Period integrals and regulator determinants for the surfaces 3y^2 + x^3 + (3x + 4t^l)^2 = 0."""

__version__ = "0.2.0"

from .errors import (
    ConstantTermNotOne,
    DomainError,
    IsotrivialFamily,
    NonIntegralEpsilon,
    NotMinimal,
    PrecisionNotReached,
    QuadratureNotConverged,
    ReglabError,
    RootOrderingFailed,
    UnsupportedL,
    ZeroConstantTerm,
)

__all__ = [
    "ReglabError",
    "ZeroConstantTerm",
    "ConstantTermNotOne",
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
