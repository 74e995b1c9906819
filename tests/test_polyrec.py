import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from gjacobi import periodic, polyrec
from gjacobi.errors import NotEnoughTerms, OutOfRange
from gjacobi.pfraction import PFraction, PFractionTerm
from gjacobi.poly import Polynomial
from oracles import generate_products, lo_residual_products

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
    # the last fraction's first block outgrows the slot of the j = 0
    # residual, whose Qhat_0 Phat_1 vanishes
    big = PFraction((PFractionTerm(-1, F(1, 3), x * x + 10 ** 30 * x - F(7, 2)),
                     PFractionTerm(1, F(5), x + 2), PFractionTerm(1, F(2), x)))
    for pf in [random_pfraction(rng, 6) for _ in range(8)] + [big]:
        seqs = polyrec.generate(pf, len(pf) - 1)
        for j in range(len(pf) - 2):
            assert polyrec.lo_polynomial_residual(seqs, j).is_zero


def _perturbed(seqs, j, rng, delta):
    """seqs with one coefficient of Phat_j, Qhat_j, Phat_{j+1} or Qhat_{j+1}
    moved by delta: the constant term, the leading term, or a new term
    above the degree."""
    name, i = rng.choice([("Phat", j), ("Qhat", j), ("Phat", j + 1), ("Qhat", j + 1)])
    polys = list(getattr(seqs, name))
    coeffs = list(polys[i].coeffs) or [0 * delta]
    where = rng.choice(["constant", "leading", "above"])
    if where == "above":
        coeffs += [0 * delta] * rng.randint(0, 2) + [delta]
    else:
        coeffs[0 if where == "constant" else -1] += delta
    polys[i] = Polynomial(coeffs)
    return dataclasses.replace(seqs, **{name: tuple(polys)})


def test_lo_residual_matches_the_products():
    # nonzero residuals too, so the packed residual is unpacked; a moved
    # constant prod_{i<j} b_i^2 as well, which alone may set the slot width
    rng = random.Random(20)
    nonzero = 0
    for _ in range(150):
        pf = random_pfraction(rng, rng.randint(2, 14))
        seqs = polyrec.generate(pf, len(pf) - 1)
        j = rng.randrange(len(pf) - 1)
        delta = rng.choice([1, -1, F(1, 3), F(-7, 2), 2 ** 80, F(1, 2 ** 70)])
        prods = list(seqs.b2_products)
        prods[j] += delta
        for bent in (_perturbed(seqs, j, rng, delta),
                     dataclasses.replace(seqs, b2_products=tuple(prods))):
            got = polyrec.lo_polynomial_residual(bent, j)
            assert got == lo_residual_products(bent, j)  # numerators and denominator
            nonzero += not got.is_zero
    assert nonzero >= 250


def test_float_lo_residual_is_the_products_bit_for_bit():
    rng = random.Random(21)
    for _ in range(20):
        data = json.loads(random_pfraction(rng, 6).to_json())
        for t in data["terms"]:
            t["b_squared"] = repr(float(Fraction(t["b_squared"])))
            t["p"] = [repr(float(Fraction(c))) for c in t["p"]]
        seqs = polyrec.generate(PFraction.from_json(json.dumps(data)), 5)
        assert isinstance(seqs.b2_products[1], float)
        for j in range(4):
            for s in (seqs, _perturbed(seqs, j, rng, rng.uniform(-1, 1))):
                got = polyrec.lo_polynomial_residual(s, j)
                want = lo_residual_products(s, j)
                assert list(map(repr, got.coeffs)) == list(map(repr, want.coeffs))


def _float_parsed(pf):
    """pf read back from its JSON with every scalar a decimal float."""
    data = json.loads(pf.to_json())
    for t in data["terms"]:
        if t["b_squared"] is not None:
            t["b_squared"] = repr(float(Fraction(t["b_squared"])))
        t["p"] = [repr(float(Fraction(c))) for c in t["p"]]
    return PFraction.from_json(json.dumps(data))


def _with_couplings(pf, coupling):
    """pf with coupling(j, b_squared) for the coupling of every term j that
    has one."""
    return PFraction(tuple(t if t.b_squared is None else
                           dataclasses.replace(t, b_squared=coupling(j, t.b_squared))
                           for j, t in enumerate(pf.terms)))


@pytest.mark.parametrize("seed", range(12))
def test_generate_matches_the_polynomial_expression(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 24)
    exact = random_pfraction(rng, n, last_open=seed % 2 == 1)
    integer = _with_couplings(exact, lambda j, b2: rng.randint(1, 9))
    for pf in (exact, integer):
        got, want = polyrec.generate(pf, n), generate_products(pf, n)
        for a, b in zip(got.Phat + got.Qhat, want.Phat + want.Qhat):
            assert a.is_exact and a.as_integer_ratio() == b.as_integer_ratio()
        assert got.b2_products == want.b2_products
        assert list(map(type, got.b2_products)) == list(map(type, want.b2_products))
    # float data, and exact blocks with a float coupling at term i, so the
    # steps after it are float: the Polynomial expression, bit for bit
    i = rng.randrange(n - 2)
    mixed = _with_couplings(exact, lambda j, b2: float(b2) if j == i else b2)
    for pf in (_float_parsed(exact), mixed):
        got, want = polyrec.generate(pf, n), generate_products(pf, n)
        assert not got.Phat[-1].is_exact
        for a, b in zip(got.Phat + got.Qhat, want.Phat + want.Qhat):
            assert list(map(repr, a.coeffs)) == list(map(repr, b.coeffs))
        assert list(map(repr, got.b2_products)) == list(map(repr, want.b2_products))


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
        (a, b), (c, d) = periodic.PeriodicGJM(pf.terms).T
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


def _open3():
    return polyrec.generate(random_pfraction(random.Random(3), 3, last_open=True), 3)


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: _open3().check_range(4), OutOfRange, "generated range",
                 id="check-range-past-j-max"),
    pytest.param(lambda: polyrec.generate(catalan_pfraction(3), 0), ValueError,
                 "j_max must be >= 1", id="generate-to-zero"),
    pytest.param(lambda: polyrec.lo_defect(_open3(), 2, 0.5), OutOfRange, "no coupling",
                 id="lo-defect-at-the-open-term"),
    pytest.param(lambda: polyrec.coprimality_check(_open3(), 0), OutOfRange, "j >= 1",
                 id="coprimality-at-zero"),
])
def test_argument_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_open_final_term_blocks_normalization():
    pf = random_pfraction(__import__("random").Random(3), 3, last_open=True)
    with pytest.raises(OutOfRange):
        polyrec.normalized_values(pf, 0.5, 3)
