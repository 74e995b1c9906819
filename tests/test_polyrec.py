import json
from fractions import Fraction

import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from gjacobi import periodic, polyrec
from gjacobi.errors import NotEnoughTerms, OutOfRange
from gjacobi.pfraction import PFraction
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def test_initial_values_and_catalan_recurrence():
    seqs = polyrec.generate(catalan_pfraction(6), 5)
    # Chebyshev-like: Phat = 1, x, x^2-1, x^3-2x, ...
    assert seqs.Phat[0] == Polynomial.one()
    assert seqs.Phat[1] == x
    assert seqs.Phat[2] == x * x - 1
    assert seqs.Phat[3] == x * x * x - 2 * x
    assert seqs.Qhat[0].is_zero
    assert seqs.Qhat[1] == Polynomial.one()
    assert seqs.Qhat[2] == x


def test_example64_normalized_values():
    # P_1 = 2 lambda^2, Q_1 = 2 after dividing by b_0 = 1/2
    P, Q = polyrec.normalized_values(example64_pfraction(4), 1.0, 1)
    p1, q1 = P[1], Q[1]
    assert p1 == pytest.approx(2.0)
    assert q1 == pytest.approx(2.0)


def test_lo_polynomial_residual_is_zero(rng):
    for _ in range(8):
        pf = random_pfraction(rng, 6)
        seqs = polyrec.generate(pf, 5)
        for j in range(4):
            assert polyrec.lo_polynomial_residual(seqs, j).is_zero


def test_lo_defect_small_at_random_points(rng):
    pf = random_pfraction(rng, 8)
    seqs = polyrec.generate(pf, 7)
    for _ in range(5):
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        for j in range(6):
            assert polyrec.lo_defect(seqs, j, lam) <= 1e-10


def test_lo_defect_float_fallback_on_decimal_data(rng):
    # decimal-parsed couplings make b2_products floats, so lo_defect takes
    # its float route through normalized_values.  That route subtracts two
    # products of growing values and reports the defect relative to them.
    for _ in range(4):
        data = json.loads(random_pfraction(rng, 6).to_json())
        for t in data["terms"]:
            t["b_squared"] = repr(float(Fraction(t["b_squared"])))
            t["p"] = [repr(float(Fraction(c))) for c in t["p"]]
        pf = PFraction.from_json(json.dumps(data))
        seqs = polyrec.generate(pf, 5)
        assert isinstance(seqs.b2_products[1], float)
        for _ in range(4):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            for j in range(5):
                assert polyrec.lo_defect(seqs, j, lam) <= 1e-10


def test_lo_defect_float_route_is_relative():
    # decimal example 6.4: the cancelling products reach 5e21 on [-4, 4]^2,
    # where the absolute difference read up to 3e4
    data = json.loads(example64_pfraction(8).to_json())
    for t in data["terms"]:
        t["b_squared"] = "0.25"
        t["p"] = ["0.0", "0.0", "1.0"]
    seqs = polyrec.generate(PFraction.from_json(json.dumps(data)), 7)
    assert isinstance(seqs.b2_products[1], float)
    grid = [-4 + k / 2 for k in range(17)]
    worst = max(polyrec.lo_defect(seqs, j, complex(x, y))
                for x in grid for y in grid for j in range(7))
    assert worst <= 1e-10


def test_transfer_product_determinant_is_one(rng):
    for _ in range(5):
        pf = random_pfraction(rng, 5)
        (a, b), (c, d) = periodic.monodromy(periodic.PeriodicGJM(pf.terms)).T
        diff = a * d - b * c - Polynomial.one()
        assert all(abs(v) <= 1e-8 for v in diff.coeffs)


def test_coprimality(rng):
    for _ in range(5):
        pf = random_pfraction(rng, 5)
        seqs = polyrec.generate(pf, 4)
        for j in range(1, 3):
            rep = polyrec.coprimality_check(seqs, j)
            assert rep.all_coprime


def test_range_errors():
    pf = catalan_pfraction(3)
    with pytest.raises(OutOfRange):
        polyrec.normalized_values(pf, 1.0, 4)
    with pytest.raises(NotEnoughTerms):
        polyrec.generate(pf, 5)


def test_open_final_term_blocks_normalization():
    pf = random_pfraction(__import__("random").Random(3), 3, last_open=True)
    with pytest.raises(OutOfRange):
        polyrec.normalized_values(pf, 0.5, 3)
