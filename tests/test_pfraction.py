from fractions import Fraction

import pytest

from conftest import catalan_pfraction, random_pfraction
from gjacobi import gjmatrix as gm
from gjacobi.errors import AllZero, DegreeCapExceeded, InsufficientMoments
from gjacobi.moments import MomentSequence
from gjacobi.pfraction import (PFraction, PFractionTerm, expand, expand_step,
                               to_moments)
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def _naive_reciprocal(c, n):
    """Schoolbook coefficient recursion for 1/c, independent of series_inv."""
    inv = [1 / c[0]]
    for i in range(1, n):
        acc = 0 * c[0]
        for k in range(1, min(i, len(c) - 1) + 1):
            acc += c[k] * inv[i - k]
        inv.append(-acc / c[0])
    return inv


def test_expand_catalan():
    s = MomentSequence(tuple(F(v) for v in (1, 0, 1, 0, 2, 0, 5, 0)))
    pf = expand(s, 10, 3)
    assert pf.block_degrees() == (1, 1, 1, 1)
    for t in pf.terms[:3]:
        assert t.epsilon == 1 and t.b_squared == 1 and t.p == x


def test_expand_degenerate_composite():
    # first Hankel determinant vanishes, first block has degree 2
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 0, 1, 0)))
    pf = expand(s, 10, 3)
    assert pf.block_degrees() == (2, 1)
    assert pf[0].p == x * x and pf[0].epsilon == 1 and pf[0].b_squared == 1
    assert pf[1].p == x


def test_expand_step_consumes_2k_coefficients():
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 0, 1, 0, 0, 1)))
    term, tail = expand_step(s)
    assert term.degree == 2
    assert len(tail) == len(s) - 2 * term.degree


def test_expand_negative_leading_sign():
    s = MomentSequence(tuple(F(v) for v in (-1, 0, -1, 0)))
    pf = expand(s, 4, 2)
    assert pf[0].epsilon == -1


def test_expand_terminated_vs_exhausted():
    # 0,1,0,1,... is the series of 1/(lambda^2 - 1): a single closed term
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 1, 0, 1)))
    pf = expand(s, 5, 3)
    assert pf.status == "terminated"
    assert len(pf) == 1 and pf[0].p == x * x - 1 and pf[0].b_squared is None
    # too-short input stops with status exhausted
    s2 = MomentSequence(tuple(F(v) for v in (1, 0, 1)))
    pf2 = expand(s2, 5, 3)
    assert pf2.status == "exhausted"


def test_expand_errors():
    with pytest.raises(AllZero):
        expand(MomentSequence((F(0), F(0))), 4, 3)
    with pytest.raises(DegreeCapExceeded):
        expand(MomentSequence(tuple(F(v) for v in (0, 0, 1, 0, 0, 0))), 4, 2)
    with pytest.raises(InsufficientMoments):
        expand_step(MomentSequence((F(0), F(1), F(0))))


def test_expand_step_reciprocal_matches_naive_oracle():
    s = MomentSequence(tuple(F(v) for v in (1, 2, -1, 3, 0, 1)))
    term, tail = expand_step(s)
    u = [s[i] for i in range(len(s))]
    v = _naive_reciprocal(u, len(u))
    # k = 1: p = eps * v_1..v_0? block is (v_0-scaled); check remainder line
    assert term.p.coeffs[-1] == 1
    rem = [-v[2 + j] for j in range(len(s) - 2)]
    first = next(r for r in rem if r != 0)
    assert term.b_squared == abs(first)


def test_to_moments_roundtrip_certified_prefix(rng):
    for _ in range(10):
        pf = random_pfraction(rng, rng.randint(1, 4))
        n_J = pf.normal_index(len(pf))
        s = to_moments(pf, 2 * n_J)
        assert s.certified_up_to == 2 * n_J - 1
        back = expand(s, len(pf) + 2, pf.degree_cap)
        for got, want in zip(back.terms, pf.terms):
            assert got.epsilon == want.epsilon
            assert got.p == want.p
        # all couplings except possibly the last are recovered
        for got, want in zip(back.terms[:-1], pf.terms[:-1]):
            assert got.b_squared == want.b_squared


def test_to_moments_terminated_roundtrip(rng):
    for _ in range(10):
        pf = random_pfraction(rng, rng.randint(1, 4), last_open=True)
        n_J = pf.normal_index(len(pf))
        s = to_moments(pf, 2 * n_J + 2)
        back = expand(s, len(pf) + 2, pf.degree_cap)
        assert back.status == "terminated"
        assert back.terms == pf.terms


def test_to_moments_matches_matrix_moments(rng):
    # the series of Qhat_J/Phat_J against [H^i e, e] of the assembled matrix,
    # for every count up to 2*n_J: small counts recur only a short prefix
    for i in range(12):
        pf = random_pfraction(rng, rng.randint(1, 9), last_open=i % 3 == 0)
        n_J = pf.normal_index(len(pf))
        H = gm.assemble(pf)
        want = gm.moments_from_matrix(H, H.gram(), 2 * n_J).coeffs
        for c in range(1, 2 * n_J + 1):
            assert to_moments(pf, c).coeffs == want[:c]


def test_to_moments_float_data_rounds_exact_values():
    exact = catalan_pfraction(80)
    data = exact.to_json().replace('"1"', '"1.0"').replace('"0"', '"0.0"')
    s = to_moments(PFraction.from_json(data), 160)
    assert s.coeffs == tuple(float(v) for v in to_moments(exact, 160).coeffs)
    assert s.scale == 1.0 and isinstance(s.scale, float)


def test_json_roundtrip():
    pf = PFraction((PFractionTerm(1, F(1, 4), x * x),
                    PFractionTerm(-1, None, x)), status="open")
    back = PFraction.from_json(pf.to_json(), exact_parse=True)
    assert back.terms == pf.terms
    assert back.status == "open"


def test_shifted_and_normal_index():
    pf = catalan_pfraction(4)
    assert pf.normal_index(3) == 3
    assert len(pf.shifted(1)) == 3
