"""Block-tridiagonal operator data: companion blocks, couplings, Krein metric.

Exact computations never materialize the irrational couplings b_j.  They use
the diagonally rescaled matrix K (sub-corner entries b_j^2, super-corner
entries eps_j*eps_{j+1}), which is similar to H block by block, so
characteristic polynomials and the moments [H^i e, e] are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (BadRange, NotMonic, OutOfRange, PoleAtLambda,
                     SupportTooWide, TruncationTooShallow)
from .pfraction import PFraction
from .poly import Polynomial


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
    c = [c for c in p.coeffs]  # p_0 ... p_k, p_k == 1
    C = [[Fraction(0)] * k for _ in range(k)]
    for i in range(1, k):
        C[i][i - 1] = Fraction(1)
    for i in range(k):
        C[i][k - 1] = -Fraction(c[i])
    # E[i][j] = p_{i+j+1} for i+j+1 <= k, zero below the anti-diagonal
    E = [[Fraction(c[i + j + 1]) if i + j + 1 <= k else Fraction(0)
          for j in range(k)] for i in range(k)]
    # E = J*L with L unit lower-triangular Toeplitz, l_m = p_{k-m};
    # the first column y of L^{-1} gives E^{-1}[i][j] = y_{i+j-k+1}
    y = [Fraction(1)] + [Fraction(0)] * (k - 1)
    for i in range(1, k):
        y[i] = -sum(Fraction(c[k - m]) * y[i - m] for m in range(1, i + 1))
    E_inv = [[y[i + j - k + 1] if i + j - k + 1 >= 0 else Fraction(0)
              for j in range(k)] for i in range(k)]
    return CompanionBlock(p=p, C=tuple(map(tuple, C)), E=tuple(map(tuple, E)),
                          E_inv=tuple(map(tuple, E_inv)))


@dataclass(frozen=True)
class GramMetric:
    """Block-diagonal metric G_j = eps_j * E_{p_j}^{-1}."""

    blocks: tuple  # exact matrices, one per companion block

    def dense(self, n_blocks=None):
        use = self.blocks if n_blocks is None else self.blocks[:n_blocks]
        dim = sum(len(b) for b in use)
        G = np.zeros((dim, dim))
        off = 0
        for b in use:
            k = len(b)
            G[off:off + k, off:off + k] = [[float(v) for v in row] for row in b]
            off += k
        return G


@dataclass(frozen=True)
class GJMatrix:
    """Generalized Jacobi matrix data (blocks A_j = C_{p_j}, couplings b_j)."""

    blocks: tuple  # CompanionBlock per term
    b2: tuple      # b_j^2 coupling block j to j+1; length len(blocks)-1
    eps: tuple     # signs, one per block
    degree_cap: int
    source: PFraction

    @property
    def n_blocks(self):
        return len(self.blocks)

    def block_offsets(self):
        offs, acc = [], 0
        for blk in self.blocks:
            offs.append(acc)
            acc += blk.size
        return offs, acc

    def dim(self, n_blocks=None):
        use = self.blocks if n_blocks is None else self.blocks[:n_blocks]
        return sum(b.size for b in use)

    # -- dense views ---------------------------------------------------
    def dense_float(self, n_blocks=None):
        """Float truncation of H with b_j = sqrt(b_j^2)."""
        n = self.n_blocks if n_blocks is None else n_blocks
        dim = self.dim(n)
        H = np.zeros((dim, dim))
        off = 0
        for j in range(n):
            blk = self.blocks[j]
            k = blk.size
            H[off:off + k, off:off + k] = [[float(v) for v in row]
                                           for row in blk.C]
            if j + 1 < n:
                b = math.sqrt(float(self.b2[j]))
                knext = self.blocks[j + 1].size
                H[off + k, off + k - 1] = b                       # B_j corner
                H[off, off + k + knext - 1] = self.eps[j] * self.eps[j + 1] * b
            off += k
        return H

    def exact_scaled(self, n_blocks=None):
        """Exact matrix K = D H D^{-1}: sub-corners b_j^2, super-corners
        eps_j*eps_{j+1} (similar to H, charpoly- and moment-preserving)."""
        n = self.n_blocks if n_blocks is None else n_blocks
        dim = self.dim(n)
        K = [[Fraction(0)] * dim for _ in range(dim)]
        off = 0
        for j in range(n):
            blk = self.blocks[j]
            k = blk.size
            for i in range(k):
                for l in range(k):
                    K[off + i][off + l] = blk.C[i][l]
            if j + 1 < n:
                knext = self.blocks[j + 1].size
                K[off + k][off + k - 1] = Fraction(self.b2[j])
                K[off][off + k + knext - 1] = Fraction(self.eps[j] * self.eps[j + 1])
            off += k
        return K

    def gram(self) -> GramMetric:
        return GramMetric(tuple(
            tuple(tuple(self.eps[j] * v for v in row) for row in blk.E_inv)
            for j, blk in enumerate(self.blocks)
        ))

    def gram_scaled_blocks(self, n_blocks=None):
        """Blocks of G' = D^{-1} G D^{-1} matching the K coordinates."""
        n = self.n_blocks if n_blocks is None else n_blocks
        out = []
        prod = Fraction(1)
        for j in range(n):
            blk = self.blocks[j]
            out.append(tuple(tuple(self.eps[j] * v / prod for v in row)
                             for row in blk.E_inv))
            if j < len(self.b2) and self.b2[j] is not None:
                prod *= Fraction(self.b2[j])
        return out


def assemble(pf: PFraction) -> GJMatrix:
    """Build the generalized Jacobi matrix of a P-fraction."""
    if len(pf) == 0:
        raise ValueError("cannot assemble an empty P-fraction")
    blocks = tuple(companion(t.p) for t in pf.terms)
    b2 = tuple(t.b_squared for t in pf.terms[:-1])
    if any(v is None for v in b2):
        raise ValueError("interior term lacks a coupling b^2")
    cap = pf.degree_cap or max(t.degree for t in pf.terms)
    return GJMatrix(blocks=blocks, b2=b2, eps=tuple(t.epsilon for t in pf.terms),
                    degree_cap=cap, source=pf)


# -- symmetry in the indefinite metric --------------------------------

def symmetry_defect(H: GJMatrix, G: GramMetric, trunc: int, x, y) -> float:
    """|[Hx,y] - [x,Hy]| on a truncation; exactly zero for exact inputs.

    x and y must vanish on the last truncation block.  Exact (Fraction)
    vectors are interpreted in the rescaled K coordinates, where the identity
    holds with rational arithmetic; float vectors use the float H and G.
    """
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
        K = H.exact_scaled(trunc)
        Gb = H.gram_scaled_blocks(trunc)
        Gd = _block_diag_exact(Gb, dim)
        lhs = _dot(_matvec(Gd, _matvec(K, x)), y)
        rhs = _dot(_matvec(Gd, x), _matvec(K, y))
        return abs(lhs - rhs)
    Hf = H.dense_float(trunc)
    Gf = G.dense(trunc)
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    return abs((Gf @ (Hf @ xv)) @ np.conj(yv) - (Gf @ xv) @ np.conj(Hf @ yv))


def _block_diag_exact(blocks, dim):
    M = [[Fraction(0)] * dim for _ in range(dim)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                M[off + i][off + j] = b[i][j]
        off += k
    return M


def _matvec(M, v):
    return [sum(r * w for r, w in zip(row, v) if w) for row in M]


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


# -- characteristic polynomials ---------------------------------------

def truncation_charpoly(H: GJMatrix, j_lo: int, j_hi: int) -> Polynomial:
    """Exact det(lambda - H_[j_lo, j_hi]) via the Hessenberg recursion."""
    if not 0 <= j_lo <= j_hi < H.n_blocks:
        raise BadRange(f"bad block range [{j_lo}, {j_hi}]")
    K = H.exact_scaled(j_hi + 1)
    off = H.dim(j_lo)
    sub = [row[off:] for row in K[off:]]
    return _hessenberg_charpoly(sub)


def _hessenberg_charpoly(A):
    """charpoly of an upper Hessenberg matrix with exact entries."""
    n = len(A)
    x = Polynomial.x()
    d = [Polynomial.one()]
    for m in range(1, n + 1):
        term = (x - A[m - 1][m - 1]) * d[m - 1]
        prod = Fraction(1)
        for i in range(m - 2, -1, -1):
            prod *= A[i + 1][i]
            term = term - (A[i][m - 1] * prod) * d[i]
        d.append(term)
    return d[n]


# -- m-functions ------------------------------------------------------

def m_truncation(pf: PFraction, j: int, lam) -> complex:
    """m-function of H_[0,j], -Qhat_{j+1}(lam)/Phat_{j+1}(lam), as -F_0.

    Reads only the terms 0..j of the fraction; no matrix is assembled.
    """
    if not 0 <= j < len(pf):
        raise OutOfRange(f"j={j} outside [0, {len(pf) - 1}]")
    return -_continued_fraction(pf.terms[:j + 1], lam)


def _continued_fraction(terms, lam) -> complex:
    """F_0 of F_i = eps_i / (p_i(lam) - eps_i b_i^2 F_{i+1}), F past the end 0.

    Evaluated backward (Gautschi's stable direction for the minimal
    solution).  A zero denominator at an inner level i makes F_{i-1}
    exactly 0; a denominator within the scaled tolerance at level 0
    means lam is an eigenvalue of the truncation.
    """
    lam = complex(lam)
    f, i = 0j, len(terms) - 1
    while i >= 0:
        t = terms[i]
        p = complex(t.p.as_float()(lam))
        tail = t.epsilon * float(t.b_squared) * f if f else 0j
        den = p - tail
        if i == 0 and abs(den) <= 1e-13 * max(1.0, abs(p), abs(tail)):
            raise PoleAtLambda(f"lambda={lam} is an eigenvalue of the truncation")
        if den == 0:  # F_i is infinite, so F_{i-1} = 0
            f, i = 0j, i - 2
        else:
            f, i = t.epsilon / den, i - 1
    return f


# -- moments ----------------------------------------------------------

def moments_from_matrix(H: GJMatrix, G: GramMetric, count: int):
    """Exact moments s_i = [H^i e, e] for i < count from the truncation.

    The finite matrix reproduces the operator moments for i <= 2*n_J - 1
    (the certified range of a J-term expansion), so count may not exceed
    2*n_J.
    """
    from .moments import MomentSequence

    n_total = H.dim()
    if count > 2 * n_total:
        raise TruncationTooShallow(
            f"{H.n_blocks} blocks (dim {n_total}) certify only {2 * n_total} moments"
        )
    K = H.exact_scaled()
    g0 = G.blocks[0]
    k0 = len(g0)
    v = [Fraction(0)] * n_total
    v[0] = Fraction(1)
    out = []
    for _ in range(count):
        out.append(sum(g0[0][l] * v[l] for l in range(k0)))
        v = _matvec(K, v)
    return MomentSequence(tuple(out))


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

    def max_imag(self) -> float:
        return max(abs(z.imag) for z in self.boundary)


def numerical_range_bound(H: GJMatrix, trunc_blocks: int,
                          angles: int) -> NumericalRangeBound:
    """Support half-planes of the field of values of the float truncation.

    Plain l2 inner product (Hausdorff containment sigma(H) in the closure),
    not the indefinite metric.
    """
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
