import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from gjacobi import gjmatrix as gm
from gjacobi import polyrec
from gjacobi.errors import (BadRange, NotMonic, OutOfRange, PoleAtLambda,
                            SupportTooWide, TruncationTooShallow)
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def _charpoly_oracle(A):
    """det(lambda - A) by Leibniz expansion over Polynomial entries."""
    n = len(A)
    total = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Polynomial.one()
        for i in range(n):
            entry = x - A[i][i] if perm[i] == i else Polynomial((-A[i][perm[i]],))
            prod = prod * entry
        total = total + sign * prod
    return total


def test_companion_shape_and_symmetrizer():
    blk = gm.companion(x * x * x + 2 * x - 1)
    assert blk.size == 3
    C = np.array(blk.C, dtype=object)
    assert C[1][0] == 1 and C[2][1] == 1
    assert [C[i][2] for i in range(3)] == [1, -2, 0]
    E = np.array(blk.E, dtype=object)
    # anti-diagonal of the leading coefficient, zero below it
    assert E[0][2] == E[1][1] == E[2][0] == 1
    assert E[2][2] == 0 and E[1][2] == 0 and E[2][1] == 0
    assert (C @ E == E @ C.T).all()
    assert (E @ np.array(blk.E_inv, dtype=object) == np.eye(3, dtype=object)).all()


def test_companion_rejects_non_monic():
    with pytest.raises(NotMonic):
        gm.companion(2 * x + 1)
    with pytest.raises(NotMonic):
        gm.companion(Polynomial.one())


def test_symmetrizer_identity_random(rng):
    for _ in range(10):
        k = rng.randint(1, 8)
        p = Polynomial([F(rng.randint(-4, 4)) for _ in range(k)] + [F(1)])
        blk = gm.companion(p)
        C = np.array(blk.C, dtype=object)
        E = np.array(blk.E, dtype=object)
        assert (C @ E == E @ C.T).all()
        assert (E @ np.array(blk.E_inv, dtype=object)
                == np.eye(k, dtype=object)).all()


def test_dense_float_is_upper_hessenberg():
    H = gm.assemble(random_pfraction(__import__("random").Random(5), 4))
    A = H.dense_float()
    n = A.shape[0]
    for i in range(n):
        for j in range(n):
            if i > j + 1:
                assert A[i][j] == 0.0


def test_exact_scaled_shares_charpoly_with_float():
    H = gm.assemble(example64_pfraction(3))
    cp = gm.truncation_charpoly(H, 0, 2)
    roots = np.sort_complex(np.roots([float(c) for c in cp.coeffs][::-1]))
    ev = np.sort_complex(np.linalg.eigvals(H.dense_float(3)))
    assert np.allclose(roots, ev, atol=1e-8)


def test_hessenberg_charpoly_matches_leibniz(rng):
    for _ in range(6):
        n = rng.randint(1, 5)
        A = [[F(rng.randint(-3, 3)) if i <= j + 1 else F(0)
              for j in range(n)] for i in range(n)]
        assert gm._hessenberg_charpoly(A) == _charpoly_oracle(A)


def test_truncation_charpoly_equals_phat_and_qhat(rng):
    for _ in range(5):
        pf = random_pfraction(rng, 5)
        H = gm.assemble(pf)
        seqs = polyrec.generate(pf, 5)
        for j in range(4):
            assert gm.truncation_charpoly(H, 0, j) == seqs.Phat[j + 1]
        eps0 = pf[0].epsilon
        for j in range(1, 4):
            assert gm.truncation_charpoly(H, 1, j) == eps0 * seqs.Qhat[j + 1]


def test_symmetry_defect_exact_zero_and_float_small(rng):
    pf = random_pfraction(rng, 5)
    H = gm.assemble(pf)
    G = H.gram()
    dim = H.dim(4)
    last = H.blocks[3].size
    xv = [F(rng.randint(-3, 3)) for _ in range(dim - last)]
    yv = [F(rng.randint(-3, 3)) for _ in range(dim - last)]
    assert gm.symmetry_defect(H, G, 4, xv, yv) == 0
    xf = [rng.uniform(-1, 1) for _ in range(dim - last)]
    yf = [rng.uniform(-1, 1) for _ in range(dim - last)]
    assert gm.symmetry_defect(H, G, 4, xf, yf) <= 1e-9


def test_symmetry_defect_rejects_wide_support():
    H = gm.assemble(catalan_pfraction(4))
    G = H.gram()
    with pytest.raises(SupportTooWide):
        gm.symmetry_defect(H, G, 3, [F(1), F(0), F(1)], [F(1)])
    with pytest.raises(BadRange):
        gm.symmetry_defect(H, G, 1, [F(1)], [F(1)])


def test_m_truncation_values():
    pf = catalan_pfraction(4)
    assert gm.m_truncation(pf, 0, 3.0) == pytest.approx(-1 / 3)
    assert gm.m_truncation(pf, 1, 3.0) == pytest.approx(-3 / 8)
    with pytest.raises(PoleAtLambda):
        gm.m_truncation(pf, 1, 1.0)  # Phat_2 = x^2 - 1
    with pytest.raises(OutOfRange):
        gm.m_truncation(pf, 7, 3.0)


def test_m_truncation_inner_zero_denominator():
    # p_1(0) = 0 makes F_1 infinite, so F_0 = 0 exactly: -Qhat_2/Phat_2 =
    # -x/(x^2 - 1) vanishes at 0 and no pole is reported
    assert gm.m_truncation(catalan_pfraction(4), 1, 0.0) == 0


def test_m_truncation_matches_exact_ratio(rng):
    # the backward continued fraction equals -Qhat_{j+1}/Phat_{j+1}
    # evaluated in exact arithmetic
    for _ in range(4):
        pf = random_pfraction(rng, 7)
        seqs = polyrec.generate(pf, 7)
        lam = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        for j in range(6):
            pr, pi = seqs.Phat[j + 1].eval_exact_pair(lam)
            qr, qi = seqs.Qhat[j + 1].eval_exact_pair(lam)
            want = -complex(qr, qi) / complex(pr, pi)
            assert abs(gm.m_truncation(pf, j, lam) - want) <= 1e-10 * max(1.0, abs(want))


def test_moments_from_matrix_known_values():
    H = gm.assemble(catalan_pfraction(5))
    s = gm.moments_from_matrix(H, H.gram(), 10)
    assert s.coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14, 0)
    # single closed block p = x^2 - 1: series of 1/(lambda^2-1)
    from gjacobi.pfraction import PFraction, PFractionTerm
    pf = PFraction((PFractionTerm(1, None, x * x - 1),), degree_cap=2)
    H2 = gm.assemble(pf)
    s2 = gm.moments_from_matrix(H2, H2.gram(), 4)
    assert s2.coeffs == (0, 1, 0, 1)
    with pytest.raises(TruncationTooShallow):
        gm.moments_from_matrix(H2, H2.gram(), 5)


def test_moments_from_matrix_certified_range(rng):
    from gjacobi.pfraction import to_moments
    for _ in range(5):
        pf = random_pfraction(rng, 3)
        H = gm.assemble(pf)
        n_J = pf.normal_index(len(pf))
        got = gm.moments_from_matrix(H, H.gram(), 2 * n_J)
        want = to_moments(pf, 2 * n_J)
        assert got.coeffs == want.coeffs


def test_numerical_range_bound():
    H = gm.assemble(catalan_pfraction(10))
    nr = gm.numerical_range_bound(H, 10, 64)
    # truncated free Jacobi matrix: eigenvalues 2cos(k pi / 11)
    assert nr.support_at(0.0) <= 2 * np.cos(np.pi / 11) + 1e-6
    assert nr.max_imag() <= 1e-8  # Hermitian data collapses to the real axis
    nr8 = gm.numerical_range_bound(H, 8, 64)
    assert nr.contains(nr8, tol=1e-9)
