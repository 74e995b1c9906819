"""Diagonal Pade approximants, moment matching and convergence experiments.

The j-th diagonal approximant is the rational function -Qhat_j/Phat_j of the
truncated continued fraction; its Laurent series at infinity reproduces the
moment series through index 2*n_j - 2 always and through 2*n_j - 2 + k_j for
data generated by the same expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientMoments, OutOfRange, PoleAtLambda
from .moments import MomentSequence
from .poly import Polynomial
from .polyrec import OrthoSequences
from .series import laurent_coeffs

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

    def __call__(self, lam):
        den = complex(self.denominator.as_float()(complex(lam)))
        scale = max(1.0, abs(lam)) ** self.order
        if abs(den) <= 1e-13 * scale:
            raise PoleAtLambda(f"lambda={lam} is a denominator root")
        return complex(self.numerator.as_float()(complex(lam))) / den


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
                           block_size=k_next, j=j)


def match_order(appr: PadeApproximant, s: MomentSequence) -> int:
    """Largest index i with all Laurent coefficients through i equal to s.

    Exact comparison for exact data; floats compared to 1e-9 relative.
    """
    need = 2 * appr.order + (appr.block_size or 1)
    if len(s) < need:
        raise InsufficientMoments(f"need {need} moments, have {len(s)}")
    c = laurent_coeffs(appr.numerator, appr.denominator, len(s))
    exact = s.is_exact and all(isinstance(v, (int, Fraction)) for v in c)
    last = -1
    for i in range(len(s)):
        if exact:
            ok = c[i] == -s[i]
        else:
            ok = abs(complex(c[i]) + complex(s[i])) <= 1e-9 * max(1.0, abs(complex(s[i])))
        if not ok:
            break
        last = i
    return last


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


def convergence_run(seqs: OrthoSequences, lam, j_list, reference=None) -> ConvergenceTable:
    """Evaluate the diagonal approximants at lam against a reference value.

    Pole hits are flagged per entry and skipped by the geometric-ratio fit,
    which least-squares the log errors over the last half of j_list.
    """
    ref = None if reference is None else complex(reference(complex(lam)))
    rows = []
    for j in j_list:
        appr = diagonal(seqs, j)
        n_j = appr.order
        try:
            val = appr(lam)
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
