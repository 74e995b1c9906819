import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalan_pfraction, random_pfraction
from oracles import laurent_coeffs
from gjacobi import gjmatrix as gm
from gjacobi import pade, polyrec
from gjacobi.errors import InsufficientMoments, OutOfRange, PoleAtLambda
from gjacobi.moments import MomentSequence
from gjacobi.pfraction import to_moments
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def _solve_exact(A, b):
    """Gaussian elimination over Fractions; returns None if singular."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def _hankel_pade_oracle(s, n):
    """Independent [n/n] solver: Hankel system for the denominator, then the
    polynomial part of denominator * series for the numerator."""
    A = [[s[k + m - 1] for k in range(n)] for m in range(1, n + 1)]
    b = [-s[n + m - 1] for m in range(1, n + 1)]
    v = _solve_exact(A, b)
    if v is None:
        return None
    den = Polynomial(v + [F(1)])
    # numerator = polynomial part of den(lambda) * (-sum s_i lambda^{-i-1})
    num_c = [F(0)] * n
    for k in range(n + 1):
        for i in range(len(s)):
            power = k - i - 1
            if 0 <= power < n:
                num_c[power] -= den.coeffs[k] * s[i]
    return Polynomial(num_c), den


def test_diagonal_examples():
    seqs = polyrec.generate(catalan_pfraction(4), 3)
    d1 = pade.diagonal(seqs, 1)
    assert d1.numerator == Polynomial((-1,)) and d1.denominator == x
    d2 = pade.diagonal(seqs, 2)
    assert d2.numerator == -x and d2.denominator == x * x - 1
    with pytest.raises(OutOfRange):
        pade.diagonal(seqs, 0)


def test_diagonal_degenerate_composite():
    from gjacobi.pfraction import expand
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 0, 1, 0)))
    seqs = polyrec.generate(expand(s, 5, 3), 1)
    d1 = pade.diagonal(seqs, 1)
    assert d1.numerator == Polynomial((-1,)) and d1.denominator == x * x


def test_match_order_examples():
    cat = MomentSequence(tuple(F(v) for v in (1, 0, 1, 0, 2, 0, 5, 0)))
    seqs = polyrec.generate(catalan_pfraction(4), 3)
    assert pade.match_order(pade.diagonal(seqs, 1), cat) == 1
    assert pade.match_order(pade.diagonal(seqs, 2), cat) == 3
    with pytest.raises(InsufficientMoments):
        pade.match_order(pade.diagonal(seqs, 3), MomentSequence((F(1),) * 5))


def test_match_order_float_moments_agree_with_exact():
    cat = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0]
    exact = MomentSequence(tuple(F(v) for v in cat))
    floats = MomentSequence(tuple(float(v) for v in cat))
    assert not floats.is_exact
    seqs = polyrec.generate(catalan_pfraction(6), 5)
    for j in range(1, 6):
        appr = pade.diagonal(seqs, j)
        assert pade.match_order(appr, floats) == pade.match_order(appr, exact)


def test_match_order_contract_on_pipeline_data(rng):
    for _ in range(6):
        pf = random_pfraction(rng, 4)
        seqs = polyrec.generate(pf, 3)
        n3 = pf.normal_index(3)
        k3 = pf[3].degree
        s = to_moments(pf, 2 * n3 + k3 + 2)
        for j in range(1, 4):
            appr = pade.diagonal(seqs, j)
            mo = pade.match_order(appr, s)
            assert mo >= 2 * appr.order - 2 + appr.block_size


def test_match_order_equals_laurent_coefficient_oracle(rng):
    # the definition: the last index through which the approximant's
    # Laurent coefficients at infinity equal -s
    for i in range(12):
        pf = random_pfraction(rng, rng.randint(2, 6), last_open=i % 3 == 0)
        J = len(pf)
        seqs = polyrec.generate(pf, J - 1)
        full = to_moments(pf, 2 * pf.normal_index(J) + 2)
        for j in range(1, J):
            appr = pade.diagonal(seqs, j)
            for count in (2 * appr.order + appr.block_size, len(full)):
                s = MomentSequence(full.coeffs[:count])
                c = laurent_coeffs(appr.numerator, appr.denominator, count)
                want = next((e for e in range(count) if c[e] != -s[e]), count) - 1
                assert pade.match_order(appr, s) == want


def test_match_order_on_float_moments_never_below_exact():
    # rounding the moments may hide a small mismatch, never invent one
    rng = random.Random(3)
    for _ in range(200):
        pf = random_pfraction(rng, rng.randint(2, 6))
        J = len(pf)
        exact = to_moments(pf, 2 * pf.normal_index(J))
        floats = MomentSequence(tuple(float(c) for c in exact.coeffs))
        seqs = polyrec.generate(pf, J - 1)
        for j in range(1, J):
            appr = pade.diagonal(seqs, j)
            assert pade.match_order(appr, floats) >= pade.match_order(appr, exact)


def test_hankel_oracle_equivalence(rng):
    for _ in range(6):
        pf = random_pfraction(rng, 3)
        seqs = polyrec.generate(pf, 3)
        for j in range(1, 4):
            appr = pade.diagonal(seqs, j)
            n = appr.order
            s = to_moments(pf, 2 * n + 2)
            oracle = _hankel_pade_oracle(list(s.coeffs), n)
            assert oracle is not None
            num_o, den_o = oracle
            assert den_o == appr.denominator
            assert num_o == appr.numerator


def test_denominator_roots_are_truncation_eigenvalues(rng):
    pf = random_pfraction(rng, 4)
    seqs = polyrec.generate(pf, 4)
    H = gm.assemble(pf)
    for j in range(1, 5):
        appr = pade.diagonal(seqs, j)
        roots = np.sort_complex(
            np.roots([float(c) for c in appr.denominator.coeffs][::-1]))
        ev = np.sort_complex(np.linalg.eigvals(H.dense_float(j)))
        assert np.allclose(roots, ev, atol=1e-8)


def test_block_table_regimes():
    bt = {(c.L, c.M): c.verdict for c in pade.block_table(2, 2, 4, 4)}
    assert bt[(2, 3)] == "coincides"
    assert bt[(3, 3)] == "not_exist"
    assert bt[(4, 4)] == "outside"
    bt2 = {(c.L, c.M): c.verdict for c in pade.block_table(1, 1, 3, 3)}
    assert bt2[(1, 1)] == "coincides"
    assert "not_exist" not in bt2.values()
    with pytest.raises(ValueError, match="block size"):
        pade.block_table(2, 0, 3, 3)


def test_convergence_run_catalan():
    seqs = polyrec.generate(catalan_pfraction(14), 13)
    ref = lambda lam: (-lam + np.sqrt(lam * lam - 4)) / 2
    tab = pade.convergence_run(seqs, 3.0, list(range(1, 13)), ref)
    assert tab.rows[1].abs_error == pytest.approx(0.0069660112, abs=1e-8)
    assert 0.12 <= tab.ratio <= 0.18
    errs = [r.abs_error for r in tab.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convergence_run_flags_poles():
    seqs = polyrec.generate(catalan_pfraction(5), 4)
    tab = pade.convergence_run(seqs, 1.0, [1, 2, 3])  # Phat_2(1) = 0
    assert tab.rows[1].value is None
    assert tab.rows[0].value is not None
    csv = tab.to_csv()
    assert "pole" in csv and csv.startswith("j,n_j,value_re")


def test_convergence_self_reference_zero_error():
    seqs = polyrec.generate(catalan_pfraction(6), 5)
    appr = pade.diagonal(seqs, 4)
    tab = pade.convergence_run(seqs, 3.0, [4], reference=lambda z: appr(z))
    assert tab.rows[0].abs_error == 0.0
