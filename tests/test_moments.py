import itertools
import random
import re
from itertools import accumulate
from fractions import Fraction
from math import comb, isinf

import pytest
from hypothesis import given, strategies as st

from conftest import random_pfraction
from gjacobi.errors import AllZero, InsufficientMoments
from gjacobi.moments import (MAX_EXACT_EXPONENT, MomentSequence, hankel_det,
                             normal_indices, normalize, parse_scalar)
from gjacobi.pfraction import expand, to_moments

F = Fraction


def _det_oracle(mat):
    """Leibniz-formula determinant, exact, for small sizes."""
    n = len(mat)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def test_hankel_det_matches_leibniz_oracle(rng):
    for _ in range(10):
        s = MomentSequence(tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                                 for _ in range(9)))
        for n in (1, 2, 3, 4):
            mat = [[s[i + k] for k in range(n)] for i in range(n)]
            assert hankel_det(s, n) == _det_oracle(mat)


def test_hankel_det_float_path():
    s = MomentSequence((1.0, 0.0, 1.0, 0.0, 2.0))
    assert hankel_det(s, 2) == pytest.approx(1.0)
    assert hankel_det(s, 3) == pytest.approx(1.0)
    degenerate = MomentSequence((0.0, 1.0, 0.0))
    assert hankel_det(degenerate, 1) == 0.0


def test_hankel_det_needs_enough_moments():
    s = MomentSequence((F(1), F(2)))
    with pytest.raises(InsufficientMoments):
        hankel_det(s, 2)


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: MomentSequence(()), ValueError, "at least one entry",
                 id="empty-sequence"),
    pytest.param(lambda: hankel_det(MomentSequence((F(1),)), 0), ValueError,
                 "n must be positive", id="hankel-order-zero"),
    pytest.param(lambda: normal_indices(MomentSequence((F(1), F(0), F(1))), 3),
                 InsufficientMoments, "certify up to 3", id="normal-indices-past-the-data"),
])
def test_argument_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_normal_indices_catalan_and_degenerate():
    cat = MomentSequence(tuple(F(v) for v in (1, 0, 1, 0, 2, 0, 5)))
    assert normal_indices(cat, 4) == (1, 2, 3, 4)
    # first Hankel determinant vanishes: s = (0, 1, 0, 0, 1, ...)
    deg = MomentSequence(tuple(F(v) for v in (0, 1, 0, 0, 1, 0, 0)))
    ni = normal_indices(deg, 4)
    assert 1 not in ni and 2 in ni
    assert ni[0] == 2  # the first block has degree n_1 - n_0 = 2


def test_normal_indices_float_moments_match_exact():
    # the float branch is a scale-free numerical-rank test, so it holds for
    # every window size n_J the data reach (up to 12 here), not only n <= 3
    cat = [1, 0, 1, 0, 2, 0, 5]
    assert normal_indices(MomentSequence(tuple(map(float, cat))), 4) \
        == normal_indices(MomentSequence(tuple(map(F, cat))), 4)
    rng = random.Random(0)
    for i in range(1000):
        pf = random_pfraction(rng, rng.randint(1, 4), 3)
        n_J = pf.normal_index(len(pf))
        exact = to_moments(pf, 2 * n_J - 1)
        floats = MomentSequence(tuple(float(v) for v in exact.coeffs))
        want = tuple(accumulate(pf.block_degrees()))
        if i < 100:
            assert normal_indices(exact, n_J) == want
        assert normal_indices(floats, n_J) == want


def test_normal_indices_float_keeps_a_small_determinant():
    # [(-1, 1/4, x+3), (1, 1/4, x^3+x^2/2-3)]: the 4x4 window scaled to unit
    # max-norm has determinant 5.7e-14, yet 4 is a normal index
    s = MomentSequence((-1.0, 3.0, -9.0, 27.0, -323 / 4, 483 / 2, -5779 / 8))
    assert normal_indices(s, 4) == (1, 4)


def test_normalize_scales_first_nonzero_to_unit():
    s = MomentSequence((F(0), F(-3), F(6)))
    ns = normalize(s)
    assert ns.coeffs == (0, -1, 2)
    assert ns.scale == 3
    again = normalize(ns)
    assert again.coeffs == ns.coeffs
    with pytest.raises(AllZero):
        normalize(MomentSequence((F(0), F(0))))


def test_float_zero_test_is_relative_to_each_hankel_window():
    # 51 catalan moments reach s_50 = 4.9e12; against the largest entry of
    # the sequence s_0 ... s_5 read as zero, and expand met a first block of
    # degree 7.  Each entry is measured against its own window s_0..s_2i.
    cat = [comb(i, i // 2) // (i // 2 + 1) if i % 2 == 0 else 0 for i in range(51)]
    s = MomentSequence(tuple(float(v) for v in cat))
    assert s.first_nonzero() == 0
    assert expand(s, 25, 6).block_degrees() == (1,) * 25
    assert expand(s, 25, 6) == expand(MomentSequence(tuple(cat)), 25, 6)
    # rounding noise below the scale of its window is still zero
    noisy = MomentSequence((0.0, 1e-17, 1.0, -2e-16, 2.0, 1.0))
    assert noisy.first_nonzero() == 2
    assert normalize(noisy).coeffs[2] == 1.0
    assert MomentSequence((0.0, 1e-17, 0.0)).first_nonzero() == 1
    assert MomentSequence((0.0, 0.0)).first_nonzero() is None


def test_int_moments_are_exact():
    ints = MomentSequence((1, 0, 1, 0, 2, 0, 5, 0))
    twin = MomentSequence(tuple(F(v) for v in ints.coeffs))
    assert ints.is_exact and all(type(c) is F for c in ints.coeffs)
    pf = expand(ints, 4, 3)
    assert pf == expand(twin, 4, 3)
    # == does not see the ring (F(1) == 1.0), so check the types too
    assert all(type(c) is F for t in pf.terms for c in (t.b_squared or F(1), *t.p.coeffs))
    halved = normalize(MomentSequence((0, 2, 4))).coeffs
    assert halved == (0, 1, 2) and all(type(c) is F for c in halved)


def test_json_roundtrip():
    s = MomentSequence((F(1, 3), F(-2), F(0)))
    back = MomentSequence.from_json(s.to_json())
    assert back.coeffs == s.coeffs
    assert back.is_exact


def test_parse_scalar():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    assert parse_scalar("0.5") == 0.5
    assert parse_scalar("0.5", exact_parse=True) == F(1, 2)


def _parse_reference(text, exact_parse):
    """parse_scalar without its integer fast path: Fraction(text) decides,
    except on an exact decimal whose exponent exceeds MAX_EXACT_EXPONENT in
    modulus.  That one is 0 when its mantissa is zero and refused otherwise,
    and valid where the same string with exponent 0 is (Fraction would
    build the power of ten first).  A float decimal that overflows is
    refused."""
    text = str(text).strip()
    if "/" in text:
        return Fraction(text)
    if ("." in text or "e" in text or "E" in text) and not exact_parse:
        if isinf(float(text)):
            raise ValueError("float overflow")
        return float(text)
    big = re.fullmatch(r"(.*[eE])([-+]?\d+(?:_\d+)*)", text, re.S)
    if big and abs(int(big[2])) > MAX_EXACT_EXPONENT:
        if Fraction(big[1] + re.sub(r"\d", "0", big[2])):
            raise ValueError("exponent out of range")
        return Fraction(0)
    return Fraction(text)


def _outcome(parse, text, exact_parse):
    try:
        value = parse(text, exact_parse)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return type(exc)
    return type(value), value


PARSE_CASES = [
    "3", "-2", "+7", "0", "-0", "007", " 3/4 ", "\t-3/4\n", "+3/4", "-0/5",
    "12345678901234567890/3", "3/-4", "3/+4", "3 / 4", "3/ 4", "3 /4", "- 3",
    "1/0", "0/0", "-1/00", "1_000", "1_000/3", "3/1_0", "_1", "1__0", "1e3",
    "1E3", "1e-3", "1.5", "-1.5", ".5", "5.", "1.5/2", "1/2/3", "", " ", "-",
    "+", "/", "3/", "/4", "--1", "+-1", "0x10", "inf", "nan", "True", "1 2",
    "\u0661\u0662", "\u0661/\u0662", "\u00b2", 3, -4, 0.5, True,
    "0E800000", "-0.0e99999", "0_0e9_999", "1e99999999", "1e-4001", "1e4000",
    "0e 99999", "1e 99999", "1e1__0", "1e4_001", "0e\u0663\u0663\u0663\u0663\u0663",
]


@pytest.mark.parametrize("exact_parse", [False, True])
def test_parse_scalar_accepts_exactly_what_fraction_does(exact_parse):
    # the integer fast path returns what Fraction(text) returns, raises as
    # it does on a zero denominator, and leaves every other string
    # (underscores, inner spaces, non-ASCII digits, decimals) to Fraction or
    # float, whichever this Python's Fraction accepts; an exact exponent past
    # MAX_EXACT_EXPONENT is refused unless the mantissa is zero
    for text in PARSE_CASES:
        assert (_outcome(parse_scalar, text, exact_parse)
                == _outcome(_parse_reference, text, exact_parse)), text


@given(st.text(alphabet="0123456789+-/_. eE\t", max_size=8), st.booleans())
def test_parse_scalar_matches_fraction_on_random_strings(text, exact_parse):
    assert (_outcome(parse_scalar, text, exact_parse)
            == _outcome(_parse_reference, text, exact_parse))


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=1, max_size=8))
def test_normalize_idempotent(coeffs):
    s = MomentSequence(tuple(coeffs))
    if s.first_nonzero() is None:
        return
    once = normalize(s)
    assert normalize(once).coeffs == once.coeffs
    i = once.first_nonzero()
    assert abs(once[i]) == 1
