"""Resolvent-point certificates and formal resolvent columns.

Both read one pair (P, W): the first-kind values P_j from the forward sweep
and the Weyl solution W_j = Q_j + m P_j from one backward sweep over the
terms they are given (`gjmatrix.weyl_sweep`), which also gives m.  The
column's coordinates are the kernel P_min(i,j) W_max(i,j), one product per
block.

A point lambda is numerically certified as a resolvent point when the decay
envelope |P_i(lambda) W_j(lambda)| <= C q^{n_j - n_i} (q < 1) fitted on the
early depths keeps holding on the deepest third, and the first-kind
polynomials show genuine exponential growth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

from .errors import BadIndex, OutOfRange, TruncationTooShallow
from .gjmatrix import GJMatrix, weyl_sweep
from .pfraction import PFraction
from .polyrec import normalized_values

CERTIFIED = "certified_decay"
INCONCLUSIVE = "inconclusive"
VIOLATED = "violated"
MIN_DEPTH = 4  # the least depth J of a resolvent certificate


@dataclass(frozen=True)
class Certificate:
    """Fitted decay envelope for |P_i W_j| with a three-way verdict."""

    lam: complex
    C: float
    q: float
    max_residual: float
    verdict: str
    limsup_root: float

    def to_json(self):
        return json.dumps({
            "lambda": [self.lam.real, self.lam.imag],
            "C": self.C,
            "q": self.q,
            "verdict": self.verdict,
            "limsup_root": self.limsup_root,
        })


def resolvent_certificate(pf: PFraction, lam, J) -> Certificate:
    """Fit C, q on depths up to 2J/3 and test the envelope on the rest.

    certified_decay: q < 1, the deep-third envelope holds, and
    limsup |P_j|^{1/n_j} > 1.  violated: q >= 1, or the envelope fails at
    every depth of the deep third.  Anything in between is inconclusive.
    m and W come from one backward sweep over every term of pf, which needs
    J + 9 terms (TruncationTooShallow otherwise) and raises PoleAtLambda at
    an eigenvalue of that truncation.

    The pairs (i, j) are handled as numpy blocks of rows, with the float
    operations of a loop over pairs, so the results are those of that loop
    to the bit: C is the largest |P_i||W_j| over i <= j <= 2J/3, and q the
    largest (|P_i||W_j| / C)^(1/(n_j - n_i)) over i < j, taken as one power
    of the largest product of each gap (the power and the division are
    monotone).  The bounds C q^k of the deep third come from one table.
    """
    import numpy as np

    if J < MIN_DEPTH:
        raise OutOfRange(f"need J >= {MIN_DEPTH}")
    lam = complex(lam)
    P, W = _weyl_values(pf, lam, J)
    n = list(accumulate((t.degree for t in pf.terms[:J]), initial=0))
    # Python's abs: numpy's complex abs differs from it in the last bit
    absP = [abs(v) for v in P]
    aP, aW, an = np.array(absP), np.array([abs(v) for v in W]), np.array(n)
    fit_hi = max(2, (2 * J) // 3)
    # overflow and inf * 0 give the inf and NaN that the float loop gives
    with np.errstate(over="ignore", invalid="ignore"):
        peak = 0.0
        best = np.zeros(n[fit_hi] + 1)  # the largest product of each gap n_j - n_i
        for T, K in _pair_blocks(aP, aW, an, 0, fit_hi + 1, fit_hi + 1):
            peak = max(peak, float(np.fmax.reduce(T[K >= 0])))
            up = K > 0
            np.fmax.at(best, K[up], T[up])
        # a NaN first product |P_0||W_0| makes C NaN, as max over the pairs does
        C = max(absP[0] * abs(W[0]), peak, 1e-300)
        q = 0.0
        for gap, t in enumerate(best.tolist()):
            if t > 0:
                q = max(q, (t / C) ** (1.0 / gap))
        bound = np.array([C * q ** k for k in range(n[J] + 1)] if q > 0
                         else [C] + [0.0] * n[J])  # k = n_j - n_i is 0 only at i = j
        limit = bound * (1.0 + 1e-6) + 1e-300
        max_res = 0.0
        fails = []
        for T, K in _pair_blocks(aP, aW, an, fit_hi + 1, J + 1, J + 1):
            keep = K >= 0
            k = np.where(keep, K, 0)
            top = float(np.fmax.reduce((T - bound[k])[keep]))
            if top > max_res:
                max_res = top
            fails += ((T > limit[k]) & keep).any(axis=1).tolist()
    tail = [j for j in range(J + 1) if j >= (2 * J) // 3 and absP[j] > 0 and n[j] > 0]
    limsup = max((absP[j] ** (1.0 / n[j]) for j in tail), default=0.0)
    if q >= 1.0 or (fails and all(fails)):
        verdict = VIOLATED
    elif (not any(fails) and limsup > 1.0 + 1e-9
          and q ** max(n[J], 1) <= 1e-2):
        # the last condition demands visible decay across the observed
        # depths; q barely below 1 is indistinguishable from no decay
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return Certificate(lam=lam, C=C, q=q, max_residual=max_res,
                       verdict=verdict, limsup_root=limsup)


PAIR_BLOCK = 1 << 18  # pairs per numpy block: bounds the memory at any depth


def _pair_blocks(aP, aW, n, lo, hi, width):
    """(T, K) per block of rows j in [lo, hi): T[r, i] = |P_i| |W_j| and
    K[r, i] = n_j - n_i for i < width, so i < j where K > 0 and i = j where
    K = 0 (every block has degree >= 1)."""
    step = max(1, PAIR_BLOCK // width)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        yield (aW[a:b, None] * aP[None, :width],
               n[a:b, None] - n[None, :width])


def _weyl_values(pf, lam, J):
    """(P_0..P_J, W_0..W_J): P from the forward sweep, W from one backward
    sweep over every term of pf.  The backward sweep starts at least 8
    terms past J, so the fraction needs J + 9 terms."""
    P, _ = normalized_values(pf, lam, J)
    if len(pf) < J + 9:
        raise TruncationTooShallow(f"Weyl values through depth {J} need "
                                   f"{J + 9} terms, the fraction has {len(pf)}")
    return P, weyl_sweep(pf.terms, lam, J)[1]


@dataclass(frozen=True)
class ResolventColumn:
    x: tuple       # coordinates over the truncation
    residual: float  # ||(H - lam) x - e_{j,k}|| over the truncation


def formal_resolvent_column(gj: GJMatrix, lam, j, k, trunc) -> ResolventColumn:
    """Column of the formal resolvent applied to the basis vector e_{j,k}.

    x(j,k) = e_{j,k-1} + lam e_{j,k-2} + ... + lam^k y, where block i of y
    is eps_i E_{p_i} applied to (K_i, lam K_i, ..., lam^{k_i-1} K_i) with
    the kernel K_i = P_min(i,j) W_max(i,j): one product per block, the same
    products |P_i W_j| that the certificate fits.  The residual of
    (H - lam) x = e_{j,k} is taken over the whole truncation, so it is
    dominated by the dropped coupling at the cut and decays as trunc grows
    at resolvent points.
    """
    import numpy as np

    if trunc > gj.n_blocks:
        raise TruncationTooShallow(f"only {gj.n_blocks} blocks available")
    if not 0 <= j < gj.n_blocks or k < 0 or k >= gj.blocks[j].size:
        raise BadIndex(f"(j,k)=({j},{k}) is not a basis index")
    if j > trunc - 2:
        raise TruncationTooShallow(
            f"index block {j} must lie at least one block inside trunc={trunc}"
        )
    lam = complex(lam)
    P, W = _weyl_values(gj.source, lam, trunc - 1)
    lk = lam ** k
    x = []
    for i, blk in enumerate(gj.blocks[:trunc]):
        v = [lk * P[min(i, j)] * W[max(i, j)] * lam ** l for l in range(blk.size)]
        eps = gj.source[i].epsilon
        x += [eps * sum(float(e) * c for e, c in zip(row, v)) for row in blk.E]
    at = gj.dim(j)  # the offset of block j
    for l in range(k):
        x[at + k - 1 - l] += lam ** l

    H = gj.dense_float(trunc).astype(complex)
    r = (H - lam * np.eye(len(x))) @ np.asarray(x)
    r[at + k] -= 1.0
    return ResolventColumn(x=tuple(x), residual=float(np.linalg.norm(r)))
