"""Continued-fraction and spectral toolkit for moment problems with
sign-indefinite Hankel data.

Pipeline: moment sequence -> P-fraction -> associated polynomials ->
block-tridiagonal operator in an indefinite metric -> Pade approximants,
resolvent certificates, and (for periodic coefficients) the spectrum via
the monodromy matrix.
"""

from .errors import GJacobiError
from .moments import MomentSequence, hankel_det, normal_indices, normalize
from .pfraction import PFraction, PFractionTerm, expand, expand_step, to_moments
from .poly import Polynomial

__all__ = [
    "GJacobiError",
    "MomentSequence",
    "hankel_det",
    "normal_indices",
    "normalize",
    "PFraction",
    "PFractionTerm",
    "expand",
    "expand_step",
    "to_moments",
    "Polynomial",
]
