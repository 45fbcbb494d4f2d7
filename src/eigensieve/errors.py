"""Exception types raised by the numerical layers of the package."""

__all__ = [
    "EigensieveError",
    "TrivialNullspaceError",
    "IllConditionedMassError",
    "UndefinedSubspaceError",
    "ZeroReferenceError",
    "DivergenceError",
    "RankDeficientBasisError",
]


class EigensieveError(Exception):
    """Base class for numerical failures specific to this package."""


class TrivialNullspaceError(EigensieveError):
    """The implicit constraints of some depth admit no nonzero feasible state."""


class IllConditionedMassError(EigensieveError):
    """Compressed mass operator is too ill-conditioned to invert."""


class UndefinedSubspaceError(EigensieveError):
    """A zero vector spans no subspace, so angles are undefined."""


class ZeroReferenceError(EigensieveError):
    """Relative error against a zero-norm reference is undefined."""


class DivergenceError(EigensieveError):
    """A time integration left the floating-point range.

    Raised when fixed-step integration grows without bound, and when an
    exact modal coefficient ``exp(lam t)`` overflows.
    """


class RankDeficientBasisError(EigensieveError):
    """Retained lifted mode vectors are linearly dependent to working precision."""
