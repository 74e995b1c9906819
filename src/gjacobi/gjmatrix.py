"""Block-tridiagonal operator data: companion blocks, couplings, Krein metric.

Exact computations never materialize the irrational couplings b_j.  They use
the diagonally rescaled matrix K (sub-corner entries b_j^2, super-corner
entries eps_j*eps_{j+1}), which is similar to H block by block, so
characteristic polynomials and the moments [H^i e, e] are unchanged.  K is
held only as the integer matrix D*K, D the lcm of its denominators, in
sparse rows (`_integer_k`): about three nonzeros per row, read by the
charpoly, the exact symmetry defect and `_krylov`, the one iteration behind
both moment readers (`moments_from_matrix` here, `pfraction.to_moments`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import (BadRange, EmptyPFraction, NotMonic, OutOfRange,
                     PoleAtLambda, SupportTooWide, TruncationTooShallow)
from .moments import MomentSequence
from .poly import Polynomial, _clear

if TYPE_CHECKING:  # pfraction imports this module for to_moments
    from .pfraction import PFraction


@dataclass(frozen=True)
class CompanionBlock:
    """Companion matrix C_p of a monic block with its symmetrizer E_p."""

    p: Polynomial
    C: tuple  # k x k, rows of Fractions
    E: tuple  # symmetric anti-triangular, unit anti-diagonal
    E_inv: tuple

    @property
    def size(self):
        return self.p.degree


def companion(p: Polynomial) -> CompanionBlock:
    """Companion matrix (subdiagonal ones, last column -p_i) and symmetrizer."""
    if p.is_zero or not p.is_monic:
        raise NotMonic("companion block needs a monic polynomial")
    k = p.degree
    if k < 1:
        raise NotMonic("companion block needs degree >= 1")
    # p_0 ... p_k (p_k == 1) as Fractions; an exact p already holds them
    c = p.coeffs if p.is_exact else tuple(map(Fraction, p.coeffs))
    zero, one = Fraction(0), Fraction(1)  # shared by every entry they fill
    C = [[zero] * k for _ in range(k)]
    for i in range(1, k):
        C[i][i - 1] = one
    for i in range(k):
        C[i][k - 1] = -c[i]
    # E[i][j] = p_{i+j+1} for i+j+1 <= k, zero below the anti-diagonal
    E = [[c[i + j + 1] if i + j + 1 <= k else zero
          for j in range(k)] for i in range(k)]
    # E = J*L with L unit lower-triangular Toeplitz, l_m = p_{k-m};
    # the first column y of L^{-1}, the series 1/sum_m l_m z^m, gives
    # E^{-1}[i][j] = y_{i+j-k+1}
    y = [one]
    for n in range(1, k):
        y.append(-sum(c[k - m] * y[n - m] for m in range(1, n + 1)))
    E_inv = [[y[i + j - k + 1] if i + j - k + 1 >= 0 else zero
              for j in range(k)] for i in range(k)]
    return CompanionBlock(p=p, C=tuple(map(tuple, C)), E=tuple(map(tuple, E)),
                          E_inv=tuple(map(tuple, E_inv)))


@dataclass(frozen=True)
class GJMatrix:
    """Generalized Jacobi matrix data: blocks A_j = C_{p_j}; the signs eps_j
    and the couplings b_j^2 of block j to j+1 are read from the source terms."""

    blocks: tuple  # CompanionBlock per term
    source: PFraction

    @property
    def n_blocks(self):
        return len(self.blocks)

    def dim(self, n_blocks=None):
        return sum(b.size for b in self.blocks[:n_blocks])

    # -- dense view ----------------------------------------------------
    def dense_float(self, n_blocks=None):
        """Float truncation of H with b_j = sqrt(b_j^2): C_{p_j} on the
        diagonal, b_j at the first row of block j+1, last column of block
        j, and eps_j*eps_{j+1}*b_j at the first row of block j, last column
        of block j+1."""
        import numpy as np

        blocks = self.blocks[:n_blocks]
        M = _block_diag(np.zeros((self.dim(n_blocks),) * 2), [blk.C for blk in blocks])
        off = 0
        for j in range(len(blocks) - 1):
            k, k_next = blocks[j].size, blocks[j + 1].size
            t, t_next = self.source[j], self.source[j + 1]
            b = t.b_float
            M[off + k][off + k - 1] = b
            M[off][off + k + k_next - 1] = t.epsilon * t_next.epsilon * b
            off += k
        return M

    def gram(self) -> tuple:
        """Blocks G_j = eps_j * E_{p_j}^{-1} of the block-diagonal metric."""
        return tuple(
            blk.E_inv if t.epsilon == 1 else tuple(tuple(-v for v in row) for row in blk.E_inv)
            for t, blk in zip(self.source, self.blocks)
        )


def assemble(pf: PFraction) -> GJMatrix:
    """Build the generalized Jacobi matrix of a P-fraction."""
    if len(pf) == 0:
        raise EmptyPFraction("cannot assemble an empty P-fraction")
    return GJMatrix(blocks=tuple(companion(t.p) for t in pf.terms), source=pf)


# -- symmetry in the indefinite metric --------------------------------

def symmetry_defect(H: GJMatrix, G: tuple, trunc: int, x, y) -> float:
    """|[Hx,y] - [x,Hy]| on a truncation in the metric with blocks G.

    x and y must vanish on the last truncation block.  Exact (Fraction)
    vectors are interpreted in the rescaled K coordinates, where block j of
    the metric is G_j / (b_0^2...b_{j-1}^2) and the identity holds with
    rational arithmetic; float vectors use the float H and G.  The defect is
    exactly zero for exact vectors when G = H.gram().
    """
    import numpy as np

    if trunc < 2 or trunc > H.n_blocks:
        raise BadRange(f"truncation {trunc} outside [2, {H.n_blocks}]")
    dim = H.dim(trunc)
    last = H.blocks[trunc - 1].size
    x = list(x) + [0] * (dim - len(x))
    y = list(y) + [0] * (dim - len(y))
    if len(x) > dim or len(y) > dim:
        raise SupportTooWide("vector longer than the truncation")
    if any(x[dim - last:]) or any(y[dim - last:]):
        raise SupportTooWide("support must stay one block away from the cut")
    exact = all(isinstance(v, (int, Fraction)) for v in x + y)
    if exact:
        rows, D = _integer_k(H.source.terms[:trunc])
        prods = accumulate((Fraction(t.b_squared) for t in H.source.terms[:trunc - 1]),
                           operator.mul, initial=Fraction(1))
        Gd = _block_diag([[Fraction(0)] * dim for _ in range(dim)],
                         [[[v / prod for v in row] for row in blk]
                          for blk, prod in zip(G, prods)])
        # D*[Kx, y] - D*[x, Ky], with D*K applied as it is stored
        lhs = _dot(_matvec(Gd, _kvec(rows, x)), y)
        rhs = _dot(_matvec(Gd, x), _kvec(rows, y))
        return abs(lhs - rhs) / D
    Hf = H.dense_float(trunc)
    Gf = _block_diag(np.zeros((dim, dim)), G[:trunc])
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    return abs((Gf @ (Hf @ xv)) @ np.conj(yv) - (Gf @ xv) @ np.conj(Hf @ yv))


def _block_diag(M, blocks):
    """Fill the zero matrix M with the square blocks along its diagonal."""
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for l, v in enumerate(row):
                if v:
                    M[off + i][off + l] = v
        off += len(b)
    return M


def _matvec(M, v):
    return [sum(r * w for r, w in zip(row, v) if w) for row in M]


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


# -- the integer matrix D*K -------------------------------------------

def _integer_k(terms):
    """D*K for the blocks of terms, D the lcm of K's denominators.

    K has C_{p_j} on its diagonal blocks (ones below the diagonal, -p_j in
    the last column), b_j^2 at the first row of block j+1, last column of
    block j, and eps_j*eps_{j+1} at the first row of block j, last column of
    block j+1; a last open coupling is not read.  Returns (rows, D): row i
    of D*K as its three possible nonzeros (column, integer value) in column
    order, the subdiagonal one, the block's last column and a super-corner,
    with (0, 0) for each that is absent.
    """
    ps = [t.p.as_integer_ratio() for t in terms]
    b2s = [t.b_squared.as_integer_ratio() for t in terms[:-1]]
    D = math.lcm(*(d for _, d in ps), *(d for _, d in b2s))
    rows, off = [], 0
    for j, (t, (num, den)) in enumerate(zip(terms, ps)):
        k, f = len(num) - 1, D // den
        last = off + k - 1
        for i in range(k):
            if i:
                sub = (off + i - 1, D)
            elif j:
                bn, bd = b2s[j - 1]
                sub = (off - 1, bn * (D // bd))
            else:
                sub = (0, 0)
            sup = (0, 0)
            if not i and j + 1 < len(terms):
                t_next = terms[j + 1]
                sup = (last + t_next.degree, D * t.epsilon * t_next.epsilon)
            rows.append((sub, (last, -num[i] * f), sup))
        off += k
    return rows, D


def _kvec(rows, v):
    """The rows of _integer_k times the vector v."""
    return [a * v[la] + b * v[lb] + c * v[lc] for (la, a), (lb, b), (lc, c) in rows]


def _krylov(terms, count):
    """Yield (v_i, D^i), i < count: v_i = (D*K)^i e_0 in integers for the
    _integer_k rows of terms, so K^i e_0 = v_i / D^i.  D*K is upper
    Hessenberg, so v_i vanishes past index i and a step forms only the rows
    that can be nonzero.  Both moment readers take their metric row of v_i."""
    rows, D = _integer_k(terms)
    n = len(rows)
    v, den = [1] + [0] * (n - 1), 1
    for i in range(count):
        yield v, den
        m = min(i + 2, n)
        v = _kvec(rows[:m], v) + v[m:]
        den *= D


# -- characteristic polynomials ---------------------------------------

def truncation_charpoly(H: GJMatrix, j_lo: int, j_hi: int) -> Polynomial:
    """Exact det(lambda - H_[j_lo, j_hi]) via the Hessenberg recursion."""
    if not 0 <= j_lo <= j_hi < H.n_blocks:
        raise BadRange(f"bad block range [{j_lo}, {j_hi}]")
    return _hessenberg_charpoly(*_integer_k(H.source.terms[j_lo:j_hi + 1]))


def _hessenberg_charpoly(rows, D):
    """charpoly of the upper Hessenberg matrix A = B/D, B given by its
    integer sparse rows.

    det(x - A) = D^-n q(D x) for q = det(y - B).  The recursion
    d_m = (y - B_{m-1,m-1}) d_{m-1} - sum_i B_{i,m-1} B_{i+1,i}...B_{m-1,m-2} d_i
    runs on q's integer coefficient lists, over the nonzeros of column m-1
    only; one Polynomial is built at the end.
    """
    n = len(rows)
    cols = [[] for _ in range(n)]  # above-diagonal and diagonal nonzeros
    sub = [0] * n  # sub[i] = B_{i+1,i}
    for i, row in enumerate(rows):
        for l, v in row:
            if not v:
                continue
            if l == i - 1:
                sub[l] = v
            else:
                cols[l].append((i, v))
    d = [[1]]
    for m in range(1, n + 1):
        term = [0] + d[m - 1]  # y * d_{m-1}
        prod, t = 1, m - 1  # prod = B_{t+1,t} ... B_{m-1,m-2}
        for i, v in reversed(cols[m - 1]):
            while t > i:
                t -= 1
                prod *= sub[t]
            c = v * prod
            if c:
                for k, w in enumerate(d[i]):
                    term[k] -= c * w
        d.append(term)
    return Polynomial.from_integer_ratio([q * D ** k for k, q in enumerate(d[n])], D ** n)


# -- m-functions ------------------------------------------------------

def m_truncation(pf: PFraction, j: int, lam) -> complex:
    """m-function of H_[0,j], -Qhat_{j+1}(lam)/Phat_{j+1}(lam), as -F_0.

    Reads only the terms 0..j of the fraction; no matrix is assembled.
    """
    if not 0 <= j < len(pf):
        raise OutOfRange(f"j={j} outside [0, {len(pf) - 1}]")
    return weyl_sweep(pf.terms[:j + 1], lam, 0)[0]


def weyl_sweep(terms, lam, J):
    """(m, [W_0..W_J], residual) of the truncation the terms make.

    One backward sweep of F_i = eps_i / (p_i(lam) - eps_i b_i^2 F_{i+1}) from
    the last term, F past the end 0 (Gautschi's stable direction for the
    minimal solution), gives m = -F_0 and the Weyl solution W_j = Q_j + m P_j
    as W_0 = m, W_j = W_{j-1} eps_{j-1} b_{j-1} F_j: a product with no
    subtraction, so no cancellation.  A zero denominator at an inner level i
    makes F_i infinite and F_{i-1} exactly 0, so W_{i-1} = 0 and W_i is one
    forward step of the recurrence; a denominator within the scaled
    tolerance at level 0 means lam is an eigenvalue of the truncation.  The
    residual of eps_{j-1} eps_j b_{j-1} W_{j-1} - p_j W_j + b_j W_{j+1} is
    the largest over 0 < j < J, relative to its largest term (or 1).
    """
    if not 0 <= J < len(terms):
        raise OutOfRange(f"J={J} outside [0, {len(terms) - 1}]")
    lam = complex(lam)
    F, p_at = [0j] * (J + 1), [0j] * (J + 1)
    f = 0j  # F_{i+1}; None where it is infinite
    for i in range(len(terms) - 1, -1, -1):
        t = terms[i]
        p = complex(t.p.as_float()(lam))
        if f is None:
            f = 0j
        else:
            tail = t.epsilon * t.b_squared_float * f if f else 0j
            den = p - tail
            if i == 0 and abs(den) <= 1e-13 * max(1.0, abs(p), abs(tail)):
                raise PoleAtLambda(f"lambda={lam} is an eigenvalue of the truncation")
            f = t.epsilon / den if den else None
        if i <= J:
            F[i], p_at[i] = f, p
    W = [-F[0]]
    for j in range(1, J + 1):
        prev = terms[j - 1]
        if F[j] is None:  # W_{j-1} = 0: W_j from W_{j-2}, W_{-1} = -1
            back = (terms[j - 2].epsilon * terms[j - 2].b_float * W[j - 2]
                    if j > 1 else -1 + 0j)
            W.append(-back * prev.epsilon / prev.b_float)
        else:
            W.append(W[j - 1] * prev.epsilon * prev.b_float * F[j])
    worst = 0.0
    for j in range(1, J):
        prev, cur = terms[j - 1], terms[j]
        t1 = prev.epsilon * cur.epsilon * prev.b_float * W[j - 1]
        t2 = -p_at[j] * W[j]
        t3 = cur.b_float * W[j + 1]
        scale = max(abs(t1), abs(t2), abs(t3), 1.0)
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return W[0], W, worst


# -- moments ----------------------------------------------------------

def moments_from_matrix(H: GJMatrix, G: tuple, count: int):
    """Exact moments s_i = [H^i e, e] for i < count from the truncation.

    The finite matrix reproduces the operator moments for i <= 2*n_J - 1
    (the certified range of a J-term expansion), so count may not exceed
    2*n_J.
    """
    n_total = H.dim()
    if count > 2 * n_total:
        raise TruncationTooShallow(
            f"{H.n_blocks} blocks (dim {n_total}) certify only {2 * n_total} moments"
        )
    # s_i = [G_0 e, v_i] / D^i; the first row of G_0 is g / g_den
    g, g_den = _clear(G[0][0])
    return MomentSequence(tuple(Fraction(_dot(g, v), g_den * den)
                                for v, den in _krylov(H.source.terms, count)))


# -- numerical range --------------------------------------------------

@dataclass(frozen=True)
class NumericalRangeBound:
    """Supporting half-planes {z: Re(e^{i theta} z) <= support} of the
    numerical range of a finite truncation, plus boundary points."""

    thetas: tuple
    supports: tuple
    boundary: tuple  # complex boundary points (Rayleigh quotients)

    def support_at(self, theta) -> float:
        i = min(range(len(self.thetas)),
                key=lambda k: abs(self.thetas[k] - theta))
        return self.supports[i]

    def contains(self, other: "NumericalRangeBound", tol=0.0) -> bool:
        """Support-function dominance on the shared angle grid."""
        if self.thetas != other.thetas:
            raise ValueError("angle grids differ")
        return all(so <= ss + tol
                   for so, ss in zip(other.supports, self.supports))


def numerical_range_bound(H: GJMatrix, trunc_blocks: int,
                          angles: int) -> NumericalRangeBound:
    """Support half-planes of the field of values of the float truncation.

    Plain l2 inner product (Hausdorff containment sigma(H) in the closure),
    not the indefinite metric.
    """
    import numpy as np

    if trunc_blocks < 1:
        raise BadRange("need at least one block")
    if angles < 4:
        raise ValueError("need at least 4 angles")
    A = H.dense_float(min(trunc_blocks, H.n_blocks)).astype(complex)
    thetas, supports, pts = [], [], []
    for i in range(angles):
        th = 2.0 * math.pi * i / angles
        R = np.exp(1j * th) * A
        Herm = (R + R.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(Herm)
        v = vecs[:, -1]
        thetas.append(th)
        supports.append(float(vals[-1]))
        pts.append(complex(np.conj(v) @ (A @ v)))
    return NumericalRangeBound(tuple(thetas), tuple(supports), tuple(pts))
