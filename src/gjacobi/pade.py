"""Diagonal Pade approximants, moment matching and convergence experiments.

The j-th diagonal approximant is the rational function -Qhat_j/Phat_j of the
truncated continued fraction; its Laurent series at infinity reproduces the
moment series through index 2*n_j - 2 always and through 2*n_j - 2 + k_j for
data generated by the same expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InsufficientMoments, NotEnoughTerms, OutOfRange, PoleAtLambda
from .gjmatrix import m_truncation
from .moments import MomentSequence
from .pfraction import PFraction
from .poly import Polynomial, _clear, _mul

if TYPE_CHECKING:  # only annotations read it
    from .polyrec import OrthoSequences

COINCIDES = "coincides"
NOT_EXIST = "not_exist"
OUTSIDE = "outside"


@dataclass(frozen=True)
class PadeApproximant:
    """[n_j/n_j] approximant (-Qhat_j, Phat_j) with its step metadata."""

    numerator: Polynomial
    denominator: Polynomial
    order: int        # n_j = deg denominator
    block_size: int | None  # k_j of the next step, None past the last term
    j: int
    source: PFraction

    def __call__(self, lam):
        """-Qhat_j/Phat_j at lam as the truncated continued fraction, the
        m-function of H_[0,j-1]; PoleAtLambda at an eigenvalue of it."""
        return m_truncation(self.source, self.j - 1, lam)


def diagonal(seqs: OrthoSequences, j: int) -> PadeApproximant:
    """The [n_j/n_j] diagonal approximant -Qhat_j/Phat_j.

    Consecutive recurrence polynomials are coprime (see coprimality_check),
    so the pair is already in lowest terms.
    """
    if j < 1:
        raise OutOfRange("diagonal approximants start at j=1")
    seqs.check_range(j)
    num, den = -seqs.Qhat[j], seqs.Phat[j]
    pf = seqs.source
    k_next = pf[j].degree if j < len(pf) else None
    return PadeApproximant(numerator=num, denominator=den, order=den.degree,
                           block_size=k_next, j=j, source=pf)


def match_order(appr: PadeApproximant, s: MomentSequence) -> int:
    """Largest index i with all Laurent coefficients through i equal to s.

    With S = sum s_i lambda^-(i+1), num/den + S = g/den for
    g = num + den*S = sum g_e lambda^(n-1-e), n = deg den, and g_e reads
    only s_0..s_e.  Since den has degree n, the coefficients agree through i
    exactly when g_0 = ... = g_i = 0: the answer is one product, no division.
    Exact data is compared exactly; a float g_e counts as zero within 1e-9
    of the magnitudes summed into it.
    """
    need = 2 * appr.order + (appr.block_size or 1)
    if len(s) < need:
        raise InsufficientMoments(f"need {need} moments, have {len(s)}")
    den, num, m = appr.denominator, appr.numerator, len(s)
    n = den.degree
    if s.is_exact and den.is_exact and num.is_exact:
        # g * dd * nd * sd in integers, for den = D/dd, num = N/nd, s = S/sd
        (D, dd), (N, nd) = den.as_integer_ratio(), num.as_integer_ratio()
        S, sd = _clear(s.coeffs)
        top = [0] * (n - len(N)) + list(N[::-1]) + [0] * (m - n)
        g, dsd = _mul(D[::-1], S), dd * sd
        first = next((e for e in range(m) if dsd * top[e] + nd * g[e]), m)
    else:
        rden = den.coeffs[::-1]
        top = [0] * (n - num.degree - 1) + list(num.coeffs[::-1]) + [0] * (m - n)
        g = _mul(rden, s.coeffs)
        mag = _mul([abs(c) for c in rden], [abs(c) for c in s.coeffs])
        first = next((e for e in range(m) if abs(g[e] + top[e])
                      > 1e-9 * (mag[e] + abs(top[e]))), m)
    return first - 1


@dataclass(frozen=True)
class BlockCell:
    L: int
    M: int
    verdict: str


def block_table(n_j: int, k_j: int, L_max: int, M_max: int):
    """Existence/coincidence verdicts for the [L/M] cells of one block.

    coincides: L, M >= n_j and L + M <= 2*n_j + k_j - 1 (all equal the
    diagonal approximant); not_exist: L, M <= n_j + k_j - 1 and
    L + M >= 2*n_j + k_j; everything else is outside the block.
    """
    if k_j < 1:
        raise ValueError("block size must be >= 1")
    cells = []
    for L in range(L_max + 1):
        for M in range(M_max + 1):
            if L >= n_j and M >= n_j and L + M <= 2 * n_j + k_j - 1:
                v = COINCIDES
            elif L <= n_j + k_j - 1 and M <= n_j + k_j - 1 and L + M >= 2 * n_j + k_j:
                v = NOT_EXIST
            else:
                v = OUTSIDE
            cells.append(BlockCell(L, M, v))
    return cells


@dataclass(frozen=True)
class ConvergenceRow:
    j: int
    n_j: int
    value: complex | None  # None on a pole hit
    abs_error: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    ratio: float | None  # fitted geometric error ratio per unit n_j

    def to_csv(self):
        lines = ["j,n_j,value_re,value_im,abs_error"]
        for r in self.rows:
            if r.value is None:
                lines.append(f"{r.j},{r.n_j},pole,pole,")
            else:
                err = "" if r.abs_error is None else repr(r.abs_error)
                lines.append(f"{r.j},{r.n_j},{r.value.real!r},{r.value.imag!r},{err}")
        return "\n".join(lines) + "\n"


def convergence_run(pf: PFraction, lam, j_list, reference=None) -> ConvergenceTable:
    """Evaluate the diagonal approximants of pf at lam against a reference value.

    Row j is n_j and -Qhat_j/Phat_j at lam as the m-function of H_[0,j-1],
    read from the terms alone: no approximant or polynomial is built.  Pole
    hits are flagged per entry and skipped by the geometric-ratio fit, which
    least-squares the log errors over the last half of j_list.
    """
    j_hi = max(j_list, default=0)
    if j_hi > len(pf):
        raise NotEnoughTerms(f"need {j_hi} terms, P-fraction has {len(pf)}")
    ref = None if reference is None else complex(reference(complex(lam)))
    rows = []
    for j in j_list:
        n_j = pf.normal_index(j)
        try:
            val = m_truncation(pf, j - 1, lam)
        except PoleAtLambda:
            rows.append(ConvergenceRow(j, n_j, None, None))
            continue
        err = None if ref is None else abs(val - ref)
        rows.append(ConvergenceRow(j, n_j, val, err))
    ratio = _fit_ratio(rows)
    return ConvergenceTable(tuple(rows), ratio)


def _fit_ratio(rows):
    usable = [r for r in rows if r.abs_error is not None and r.abs_error > 0]
    usable = usable[len(usable) // 2:]
    if len(usable) < 2:
        return None
    xs = [r.n_j for r in usable]
    ys = [math.log(r.abs_error) for r in usable]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return None
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
    return math.exp(slope)
