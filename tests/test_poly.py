import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gjacobi import poly
from gjacobi.poly import (PACK_ABOVE, Polynomial, _mul, _pack, _product_bound,
                          _unpack, poly_gcd)
from oracles import gcd_degree_mod_p, schoolbook, series_div

F = Fraction
x = Polynomial.x()

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
poly_coeffs = st.lists(small_fracs, min_size=0, max_size=8)

# exact coefficients of every kind the integer kernels clear: exact zeros
# (interior ones included), ints of either sign up to 2**200, Fractions with
# unrelated denominators
big_ints = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
exact_scalars = st.one_of(
    st.sampled_from([0, F(0)]),
    big_ints,
    st.builds(F, big_ints, st.integers(min_value=1, max_value=2 ** 64)),
    small_fracs,
)
exact_coeffs = st.lists(exact_scalars, min_size=1, max_size=12)


def test_trim_and_degree():
    assert Polynomial([F(0), F(0)]).degree == -1
    assert Polynomial([F(1), F(0)]).degree == 0
    assert Polynomial([F(0), F(2), F(0)]) == Polynomial([0, 2])


def test_arithmetic_basics():
    p = x * x - 1
    q = x + 1
    assert p + q == Polynomial([0, 1, 1])
    assert p - p == Polynomial.zero()
    assert p * q == Polynomial([-1, -1, 1, 1])
    assert (2 * p).coeffs == (-2, 0, 2)
    assert p(F(3)) == 8
    assert 1 - q == Polynomial([0, -1])
    assert (q == 1) is False  # a scalar is not a polynomial
    assert q and not Polynomial.zero()


@given(exact_coeffs, exact_coeffs)
def test_exact_product_matches_convolution(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    prod = pa * pb
    if pa.is_zero or pb.is_zero:
        assert prod.is_zero
        return
    assert prod.coeffs == tuple(schoolbook(pa.coeffs, pb.coeffs))
    assert all(isinstance(c, F) for c in prod.coeffs)


def _trimmed(coeffs):
    out = [F(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _padded_sum(a, b, sign):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trimmed(F(u) + sign * F(v) for u, v in zip(a, b))


def _lowest_terms(p):
    num, den = p.as_integer_ratio()
    return den > 0 and (not num or num[-1] != 0) and gcd(den, *num) == 1


@given(exact_coeffs, exact_coeffs, exact_scalars)
def test_exact_ring_operations_match_fraction_oracle(a, b, c):
    pa, pb = Polynomial(a), Polynomial(b)
    results = [
        (pa + pb, _padded_sum(a, b, 1)),
        (pa - pb, _padded_sum(a, b, -1)),
        (-pa, _trimmed(-F(v) for v in a)),
        (pa * pb, _trimmed(schoolbook(a, b))),
        (pa.scale(c), _trimmed(F(c) * F(v) for v in a)),
        (c * pa, _trimmed(F(c) * F(v) for v in a)),
    ]
    for got, want in results:
        assert got.coeffs == want and got.is_exact and _lowest_terms(got)
    assert Polynomial(pa.coeffs) == pa and (pa - pa).is_zero
    # equal values built by different routes compare and hash alike
    for twin in (pa.scale(2).scale(F(1, 2)), (pa + pb) - pb, pa * Polynomial.one()):
        assert twin == pa and hash(twin) == hash(pa)
    if not pa.is_zero:
        assert pa.monic().coeffs == _trimmed(F(v) / F(pa.coeffs[-1]) for v in a)


@given(exact_coeffs)
def test_as_float_rounds_each_coefficient_once(a):
    p = Polynomial(a)
    assert p.as_float().coeffs == tuple(float(c) for c in p.coeffs)
    assert not p.as_float().is_exact or p.is_zero


def test_from_integer_ratio_keeps_the_denominator_positive():
    p = Polynomial.from_integer_ratio([2, -4], -6)
    assert p == Polynomial((F(-1, 3), F(2, 3))) and hash(p) == hash(Polynomial((F(-1, 3), F(2, 3))))
    assert Polynomial.from_integer_ratio([1], -1) == Polynomial.from_integer_ratio([-1], 1)
    with pytest.raises(ValueError):
        Polynomial.from_integer_ratio([1], 0)


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: setattr(Polynomial.x(), "_den", 2), AttributeError, "immutable",
                 id="set-an-attribute"),
    pytest.param(lambda: Polynomial.zero().leading, ValueError, "no leading coefficient",
                 id="leading-of-zero"),
])
def test_argument_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_float_polynomials_keep_their_coefficients():
    assert Polynomial((1.0,)) == Polynomial((F(1),))
    assert hash(Polynomial((1.0,))) == hash(Polynomial((F(1),)))
    assert Polynomial((0.5, 2.0)) == Polynomial((F(1, 2), 2)) != Polynomial((0.5, 2.5))
    p = Polynomial((0.1, 0, 3.0))
    assert not p.is_exact and p.coeffs == (0.1, 0, 3.0)
    assert p.eval_exact_pair(1.0) is None
    assert Polynomial((F(1, 3), 1.5)).eval_exact_pair(2.0) is None
    mixed = Polynomial((F(1, 3), F(1))) + p
    assert mixed.coeffs == (F(1, 3) + 0.1, 1.0, 3.0) and not mixed.is_exact
    assert (p * x).coeffs == (0, 0.1, 0, 3.0)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(finite_floats, max_size=5), st.lists(finite_floats, max_size=5),
       st.lists(st.integers(-3, 3), max_size=3))
def test_gcd_of_floats_is_that_of_their_rationals(a, b, common):
    h = Polynomial([F(v) for v in common] + [F(1)])
    fa, fb = ((h * Polynomial([F(v) for v in c])).as_float() for c in (a, b))
    want = poly_gcd(Polynomial([F(v) for v in fa.coeffs]),
                    Polynomial([F(v) for v in fb.coeffs]))
    assert poly_gcd(fa, fb) == want and want.is_exact


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 62, 63, 64, 200])
def test_exact_product_at_the_slot_bound(bits):
    # product coefficients of either sign up to the slot bound
    # max|a| max|b| min(len a, len b) in magnitude, on both of _mul's paths
    top, n = 2 ** bits, PACK_ABOVE + 1
    for a, b in (([-top] * 5, [-top] * 3), ([top] * 4, [-top] * 4),
                 ([top, -top] * 3, [top, top, -top]), ([-top], [top - 1] * 6),
                 ([-top] * (n + 2), [-top] * n), ([top] * n, [-top] * n),
                 ([top, -top] * n, [top, top, -top] * n), ([-top] * n, [top - 1] * (n + 3))):
        assert (Polynomial(a) * Polynomial(b)).coeffs == tuple(schoolbook(a, b))


int_terms = st.one_of(st.integers(-3, 3), st.integers(-2 ** 130, 2 ** 130))
int_lists = st.lists(int_terms, min_size=1, max_size=2 * PACK_ABOVE + 4)


@given(int_lists, int_lists, st.lists(int_terms, max_size=4 * PACK_ABOVE))
def test_integer_mul_matches_schoolbook(a, b, acc):
    # shorter operands on both sides of PACK_ABOVE, both orders, with and
    # without acc, longer or shorter than the product
    for x, y in ((a, b), (b, a)):
        want = schoolbook(x, y)
        assert _mul(x, y) == want
        assert _mul(x, y, acc) == [u + v for u, v in zip_longest(acc, want, fillvalue=0)]


def _packable_lists(width):
    # entries anywhere in the open slot range (-half, half), its ends and 0
    top = 2 ** (8 * width - 1) - 1
    entry = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, -1, 0, 1]))
    return st.tuples(st.just(width), st.one_of(
        st.lists(entry, max_size=3 * PACK_ABOVE),
        st.lists(st.integers(-top, -1), min_size=1, max_size=12),
        st.lists(st.just(0), min_size=1, max_size=12)))


@example((1, [-127]))
@example((3, [0] * 5))
@example((24, [-(2 ** 191 - 1)] * 7))
@given(st.integers(1, 24).flatmap(_packable_lists))
def test_pack_unpack_round_trip(case):
    width, v = case
    assert _unpack(_pack(v, width), width, len(v)) == v


@pytest.mark.parametrize("k", [7, 8, 9, 23, 24, 25, 63, 64, 65])
@pytest.mark.parametrize("minus_one", [False, True])
def test_mul_at_a_byte_boundary(k, minus_one):
    # product bound max|a| max|b| min(len a, len b) exactly 2^k or 2^k - 1
    # around the slot edges 8m - 1, 8m, 8m + 1, with product coefficients
    # reaching it in modulus: for 2^(8m - 1) - 1 the slot's half is one more
    bound = 2 ** k - minus_one
    # n equal terms reach the bound when n divides it; each k here has such n
    n = next(n for n in range(PACK_ABOVE + 1, 128) if bound % n == 0)
    top = bound // n
    for a, b in (([top] * n, [1] * (n + 3)), ([-top] * n, [1] * n),
                 ([top, -top] * (n // 2) + [top] * (n % 2), [-1, 1] * (n // 2 + 2))):
        assert _product_bound(a, b) == bound
        want = schoolbook(a, b)
        assert max(map(abs, want)) == bound
        assert _mul(a, b) == want and _mul(b, a) == want


float_terms = st.one_of(st.floats(allow_nan=False), st.sampled_from([0, 0.0, -0.0]))
float_lists = st.lists(float_terms, min_size=1, max_size=2 * PACK_ABOVE + 4)


@given(float_lists, float_lists)
def test_float_mul_is_the_schoolbook_bit_for_bit(a, b):
    # repr tells -0.0 from 0.0 and int 0 from 0.0
    assert list(map(repr, _mul(a, b))) == list(map(repr, schoolbook(a, b)))


def _fraction_horner(coeffs, lam):
    re, im = F(lam.real), F(lam.imag)
    ar = ai = F(0)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


finite = st.floats(allow_nan=False, allow_infinity=False)
float_points = st.one_of(
    finite.map(complex),                                   # real only
    st.integers(-10 ** 6, 10 ** 6).map(complex),           # integer valued
    st.builds(complex, finite, finite),
    st.sampled_from([5e-324, -1e-300 + 2.5e-310j, 1e300, 1.7e308 - 3j,
                     1e-300 + 1e300j]),                    # extreme exponents
)


@given(exact_coeffs, float_points)
def test_eval_exact_pair_matches_fraction_horner(coeffs, lam):
    p = Polynomial(coeffs)
    assert p.eval_exact_pair(lam) == _fraction_horner(p.coeffs, lam)


def test_eval_exact_pair_matches_float():
    p = Polynomial([F(1, 3), F(-2), F(0), F(5)])
    for lam in (0.5, -1.25 + 0.75j, 3 + 0j):
        re, im = p.eval_exact_pair(lam)
        assert complex(float(re), float(im)) == pytest.approx(
            complex(p.as_float()(complex(lam))), rel=1e-12)
    assert p.as_float().eval_exact_pair(1.0) is None
    for lam in (complex(float("inf"), 0), complex(0, float("nan"))):
        assert p.eval_exact_pair(lam) is None


@given(poly_coeffs, poly_coeffs)
def test_mul_commutes_and_matches_eval(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    prod = pa * pb
    assert prod == pb * pa
    assert prod(F(2)) == pa(F(2)) * pb(F(2))


def test_karatsuba_matches_schoolbook():
    rng = random.Random(7)
    a = Polynomial([F(rng.randint(-9, 9)) for _ in range(150)] + [F(1)])
    b = Polynomial([F(rng.randint(-9, 9)) for _ in range(130)] + [F(1)])
    prod = a * b
    # spot-check against direct convolution at a few coefficients
    for idx in (0, 1, 77, 140, prod.degree):
        direct = sum((a.coeffs[i] if i <= a.degree else 0)
                     * (b.coeffs[idx - i] if 0 <= idx - i <= b.degree else 0)
                     for i in range(idx + 1))
        assert prod.coeffs[idx] == direct


def _remainder(a, b):
    """a mod b by schoolbook long division over the rationals."""
    r = [F(c) for c in a.coeffs]
    lead = F(b.coeffs[-1])
    for i in range(len(r) - 1, b.degree - 1, -1):
        f = r[i] / lead
        for k, c in enumerate(b.coeffs):
            r[i - b.degree + k] -= f * c
    return Polynomial(r[:b.degree])


def _euclid_gcd(a, b):
    while not b.is_zero:
        a, b = b, _remainder(a, b)
    return a.monic() if not a.is_zero else a


def test_gcd_matches_euclidean_oracle(rng):
    for _ in range(25):
        g = Polynomial([F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))] + [F(1)])
        a = g * Polynomial([F(rng.randint(-3, 3)) for _ in range(3)] + [F(1)])
        b = g * Polynomial([F(rng.randint(-3, 3)) for _ in range(2)] + [F(1)])
        got = poly_gcd(a, b)
        want = _euclid_gcd(a, b)
        assert got.monic() == want
        assert poly_gcd(b, a) == got  # the shorter operand first
        assert got.degree >= g.degree or g.degree == 0


@pytest.fixture
def prem_calls(monkeypatch):
    """The number of _int_prem calls so far: the subresultant fallback ran
    when it is not zero."""
    calls = []
    prem = poly._int_prem
    monkeypatch.setattr(poly, "_int_prem", lambda f, g: calls.append(1) or prem(f, g))
    return calls


def test_gcd_coprime_pair_sharing_a_factor_mod_p(prem_calls):
    # coprime over Q, but x + P is x modulo P: the modular image is not
    # a proof here, and the exact remainder sequence decides
    P = poly._P
    assert poly_gcd(x, x + P) == Polynomial.one()
    assert prem_calls
    prem_calls.clear()
    assert poly_gcd(x + P, x) == Polynomial.one()
    assert prem_calls


def test_gcd_leading_coefficient_divisible_by_p(prem_calls):
    # h = P x + 1 vanishes from both images mod P, where the cofactors x + 1
    # and x - 1 are coprime; the gcd must still be h, made monic
    P = poly._P
    h = Polynomial([1, P])
    f, g = h * (x + 1), h * (x - 1)
    want = Polynomial([F(1, P), 1])
    assert poly_gcd(f, g) == want == _euclid_gcd(f, g)
    assert prem_calls
    prem_calls.clear()
    assert poly_gcd(Polynomial([1, P]), x) == Polynomial.one()
    assert prem_calls


def test_gcd_coprime_pair_mod_p_skips_the_fallback(prem_calls):
    assert poly_gcd(x + 2, x + 3) == Polynomial.one()
    assert not prem_calls


def _int_poly(rng, degree, bits):
    """Integer coefficients of both signs up to 2**bits, of the given degree
    with a leading coefficient that P does not divide."""
    c = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree + 1)]
    while not c[-1] % poly._P:
        c[-1] = rng.randint(-2 ** bits, 2 ** bits)
    return c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), common=st.integers(0, 3),
       bits=st.sampled_from([2, 40, 200]), lift=st.booleans())
def test_gcd_degree_mod_p_matches_the_list_oracle(seed, common, bits, lift):
    # a planted common factor of degree 0-3; with lift, every coefficient
    # but the leading one also moves by a multiple of P, so the pair is
    # still the planted one mod P but (almost surely) coprime over Q, and
    # the remainder sequence vanishes mod P before its end
    rng = random.Random(seed)
    h = _int_poly(rng, common, bits)
    f = _mul(h, _int_poly(rng, rng.randint(0, 6), bits))
    g = _mul(h, _int_poly(rng, rng.randint(0, 6), bits))
    if lift:
        f = [c + poly._P * rng.randint(-2 ** bits, 2 ** bits) for c in f[:-1]] + f[-1:]
        g = [c + poly._P * rng.randint(-2 ** bits, 2 ** bits) for c in g[:-1]] + g[-1:]
    if not (f[-1] % poly._P and g[-1] % poly._P):
        return
    want = gcd_degree_mod_p(f, g)
    assert want >= common
    assert poly._gcd_degree_mod_p(f, g) == want
    assert poly._gcd_degree_mod_p(g, f) == want


def _times(series, c, n):
    """First n coefficients of series * c, by a Polynomial product."""
    return (list((Polynomial(series) * Polynomial(c)).coeffs) + [0] * n)[:n]


def test_series_inverse_roundtrip():
    c = [F(2), F(-1), F(1, 3), F(0), F(5)]
    assert _times(series_div((1,), c, 8), c, 8) == [1] + [0] * 7
    num = [F(1, 2), F(0), F(-3)]
    assert _times(series_div(num, c, 8), c, 8) == num + [0] * 5
    with pytest.raises(ZeroDivisionError):
        series_div((1,), [F(0), F(1)], 3)


@given(st.lists(small_fracs, min_size=1, max_size=6),
       st.lists(small_fracs, min_size=0, max_size=6))
def test_series_inverse_property(c, num):
    if c[0] == 0:
        return
    n = len(c) + len(num) + 2
    assert _times(series_div(num, c, n), c, n) == (list(num) + [0] * n)[:n]
