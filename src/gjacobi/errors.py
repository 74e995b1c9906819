"""Exception hierarchy shared by all gjacobi modules."""


class GJacobiError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientMoments(GJacobiError):
    """A moment window or expansion step needs more coefficients than given."""


class AllZero(GJacobiError):
    """Every entry of a moment sequence (or tail) vanishes."""


class DegreeCapExceeded(GJacobiError):
    """A continued-fraction block would exceed the configured degree cap."""


class EmptyPFraction(GJacobiError):
    """An operation requires at least one continued-fraction term."""


class OpenCoupling(GJacobiError):
    """A P-fraction term other than the last lacks its coupling b^2."""


class NotEnoughTerms(GJacobiError):
    """The continued fraction has fewer terms than requested."""


class OutOfRange(GJacobiError):
    """Requested index lies outside the generated range."""


class NotMonic(GJacobiError):
    """A polynomial that must be monic is not."""


class BadRange(GJacobiError):
    """Invalid truncation block range."""


class PoleAtLambda(GJacobiError):
    """Evaluation point is a pole (eigenvalue of the relevant truncation)."""


class TruncationTooShallow(GJacobiError):
    """The finite truncation is too small for the requested computation."""


class SupportTooWide(GJacobiError):
    """Vector support reaches the truncation boundary."""


class BadIndex(GJacobiError):
    """Invalid basis index (j, k)."""
