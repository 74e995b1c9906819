import random
from fractions import Fraction

import pytest

from gjacobi.pfraction import PFraction, PFractionTerm
from gjacobi.poly import Polynomial

B2_CHOICES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(2), Fraction(3), Fraction(4)]


def random_pfraction(rng, n_terms, max_degree=3, last_open=False):
    """Seeded random P-fraction with small rational block coefficients."""
    terms = []
    for j in range(n_terms):
        k = rng.randint(1, max_degree)
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                  for _ in range(k)] + [Fraction(1)]
        b2 = None if (last_open and j == n_terms - 1) else rng.choice(B2_CHOICES)
        terms.append(PFractionTerm(rng.choice([1, -1]), b2, Polynomial(coeffs)))
    return PFraction(tuple(terms))


def catalan_pfraction(n_terms):
    x = Polynomial.x()
    return PFraction(tuple(PFractionTerm(1, Fraction(1), x)
                           for _ in range(n_terms)))


def example64_pfraction(n_terms):
    x = Polynomial.x()
    return PFraction(tuple(PFractionTerm(1, Fraction(1, 4), x * x)
                           for _ in range(n_terms)))


@pytest.fixture
def rng():
    return random.Random(12345)
