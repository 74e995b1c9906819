import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from gjacobi import gjmatrix as gm
from gjacobi import polyrec
from gjacobi.errors import (BadRange, EmptyPFraction, NotMonic, OutOfRange,
                            PoleAtLambda, SupportTooWide, TruncationTooShallow)
from gjacobi.pfraction import PFraction
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


def _dense(rows, D):
    """The matrix of integer sparse rows over D, as dense Fractions."""
    A = [[F(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for l, v in row:
            if v:
                A[i][l] = F(v, D)
    return A


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
    H = gm.assemble(random_pfraction(random.Random(5), 4))
    A = H.dense_float()
    n = A.shape[0]
    for i in range(n):
        for j in range(n):
            if i > j + 1:
                assert A[i][j] == 0.0
    with pytest.raises(EmptyPFraction):
        gm.assemble(PFraction(()))


def test_exact_scaled_shares_charpoly_with_float():
    H = gm.assemble(example64_pfraction(3))
    cp = gm.truncation_charpoly(H, 0, 2)
    roots = np.sort_complex(np.roots([float(c) for c in cp.coeffs][::-1]))
    ev = np.sort_complex(np.linalg.eigvals(H.dense_float(3)))
    assert np.allclose(roots, ev, atol=1e-8)


def test_hessenberg_charpoly_matches_leibniz(rng):
    for _ in range(6):
        n = rng.randint(1, 5)
        A = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3])) if i <= j + 1 else F(0)
              for j in range(n)] for i in range(n)]
        D = math.lcm(*(v.denominator for row in A for v in row))
        rows = [[(l, int(v * D)) for l, v in enumerate(row) if v] for row in A]
        assert gm._hessenberg_charpoly(rows, D) == _charpoly_oracle(A)


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
    assert gm.symmetry_defect(H, G, 4, xv, yv) == 0  # G = H.gram()
    xf = [rng.uniform(-1, 1) for _ in range(dim - last)]
    yf = [rng.uniform(-1, 1) for _ in range(dim - last)]
    assert gm.symmetry_defect(H, G, 4, xf, yf) <= 1e-9


def test_symmetry_defect_exact_branch_reads_its_metric():
    # a metric that is not H's own: both branches must see the flipped block
    H = gm.assemble(random_pfraction(random.Random(3), 5))
    G = list(H.gram())
    G[1] = tuple(tuple(-v for v in row) for row in G[1])
    d = H.dim(4) - H.blocks[3].size
    xv, yv = [F(1)] * d, [F(i) for i in range(d)]
    assert gm.symmetry_defect(H, H.gram(), 4, xv, yv) == 0
    assert gm.symmetry_defect(H, G, 4, xv, yv) != 0
    assert gm.symmetry_defect(H, G, 4, [float(v) for v in xv],
                              [float(v) for v in yv]) > 1.0


def test_dense_float_is_similar_to_exact_scaled(rng):
    # K = D H D^{-1} with D constant on block j, equal to b_0...b_{j-1};
    # K is read from its integer sparse rows
    sizes, signs = set(), set()
    for trial in range(8):
        pf = random_pfraction(rng, 5, last_open=trial % 2 == 1)
        H = gm.assemble(pf)
        sizes.update(b.size for b in H.blocks)
        signs.update(t.epsilon for t in pf.terms)
        for n in (None, 1, 2, 4):
            blocks = H.blocks[:n]
            d = np.repeat([math.prod(math.sqrt(pf[i].b_squared) for i in range(j))
                           for j in range(len(blocks))], [b.size for b in blocks])
            K = np.array(_dense(*gm._integer_k(pf.terms[:n])), dtype=float)
            assert np.allclose(H.dense_float(n), K * d[None, :] / d[:, None],
                               rtol=1e-13, atol=1e-13)
    assert {1, 2, 3} <= sizes and signs == {1, -1}


def test_symmetry_defect_rejects_wide_support():
    H = gm.assemble(catalan_pfraction(4))
    G = H.gram()
    with pytest.raises(SupportTooWide):
        gm.symmetry_defect(H, G, 3, [F(1), F(0), F(1)], [F(1)])
    with pytest.raises(BadRange):
        gm.symmetry_defect(H, G, 1, [F(1)], [F(1)])


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda H: gm.symmetry_defect(H, H.gram(), 2, [F(0)] * 3, [F(0)]),
                 SupportTooWide, "longer than the truncation", id="defect-vector-too-long"),
    pytest.param(lambda H: gm.truncation_charpoly(H, 1, 0),
                 BadRange, "bad block range", id="charpoly-reversed-range"),
    pytest.param(lambda H: gm.numerical_range_bound(H, 2, 8).contains(
                     gm.numerical_range_bound(H, 2, 4)),
                 ValueError, "angle grids differ", id="contains-other-angle-grid"),
    pytest.param(lambda H: gm.numerical_range_bound(H, 0, 8),
                 BadRange, "at least one block", id="range-bound-no-block"),
    pytest.param(lambda H: gm.numerical_range_bound(H, 2, 3),
                 ValueError, "at least 4 angles", id="range-bound-three-angles"),
])
def test_argument_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call(gm.assemble(catalan_pfraction(4)))


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
    pf = PFraction((PFractionTerm(1, None, x * x - 1),))
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
    # Hermitian data collapses to the real axis
    assert max(abs(z.imag) for z in nr.boundary) <= 1e-8
    nr8 = gm.numerical_range_bound(H, 8, 64)
    assert nr.contains(nr8, tol=1e-9)
