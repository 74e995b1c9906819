"""Associated polynomials of the three-term recurrence and exact identities.

All exact work lives in the monic-scaled sequences Phat_j, Qhat_j, which obey
uhat_{j+1} = p_j uhat_j - eps_{j-1} eps_j b_{j-1}^2 uhat_{j-1} and involve
only b^2.  On exact data a step runs on integer numerators: one product
of the block's numerators by uhat_j's, the scaled uhat_{j-1} subtracted over
the common denominator, one reduction per polynomial.  Float data keep the
Polynomial expression.  The normalized P_j, Q_j (each Phat_j, Qhat_j divided by
b_0...b_{j-1}) exist only as float values, computed by the recurrence sweep
of normalized_values without expanding any polynomial.  The periodic
monodromy is built from the exact pair Phat_s, Qhat_s (see periodic).
The exact Liouville-Ostrogradsky residual is one big-integer expression in
the Kronecker packings of poly, unpacked only when it is not zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NotEnoughTerms, OutOfRange
from .poly import (Polynomial, _mul, _pack, _product_bound, _slot_width,
                   _unpack, poly_gcd)

if TYPE_CHECKING:  # pfraction imports generate from this module
    from .pfraction import PFraction


@dataclass(frozen=True)
class OrthoSequences:
    """Monic-scaled first/second-kind polynomials with b^2 partial products."""

    Phat: tuple  # Phat[j] monic of degree n_j
    Qhat: tuple  # Qhat[j] of degree n_j - k_0
    b2_products: tuple  # b2_products[j] = prod_{i<j} b_i^2
    source: PFraction

    @property
    def j_max(self):
        return len(self.Phat) - 1

    def check_range(self, j):
        if not 0 <= j <= self.j_max:
            raise OutOfRange(f"j={j} outside generated range [0, {self.j_max}]")


def generate(pf: PFraction, j_max: int) -> OrthoSequences:
    """Run the three-term recurrence up to index j_max (exact)."""
    if len(pf) < j_max:
        raise NotEnoughTerms(f"need {j_max} terms, P-fraction has {len(pf)}")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    one = Polynomial.one()
    Phat = [one, pf[0].p]
    Qhat = [Polynomial.zero(), Polynomial((pf[0].epsilon,))]
    prods = [1, pf[0].b_squared]  # prods[j] = prod_{i<j} b_i^2; None if unknown
    for j in range(1, j_max):
        prev = pf[j - 1]
        cur = pf[j]
        c = prev.epsilon * cur.epsilon * prev.b_squared
        Phat.append(_step(cur.p, c, Phat[j], Phat[j - 1]))
        Qhat.append(_step(cur.p, c, Qhat[j], Qhat[j - 1]))
        b2 = cur.b_squared
        prods.append(None if b2 is None else prods[j] * b2)
    return OrthoSequences(tuple(Phat), tuple(Qhat), tuple(prods), pf)


def _step(p, c, u, u_prev):
    """p u - c u_prev for the nonzero u of a recurrence step.

    On exact data this is one integer expression over the common
    denominator D of the two products: with p = pn/pd, u = un/ud,
    u_prev = vn/vd and c = cn/cd, the numerator is
    (D/(pd ud)) pn un - cn (D/(cd vd)) vn, one `_mul` with the second
    term as its accumulator, reduced once.  Float data keep the Polynomial
    expression.
    """
    if not (isinstance(c, (int, Fraction)) and p.is_exact and u.is_exact
            and u_prev.is_exact):
        return p * u - c * u_prev
    (pn, pd), (un, ud), (vn, vd) = (w.as_integer_ratio() for w in (p, u, u_prev))
    cn, cd = c.as_integer_ratio()
    D = math.lcm(pd * ud, cd * vd)
    f, g = D // (pd * ud), cn * (D // (cd * vd))
    num = _mul([f * v for v in pn], un, [-g * v for v in vn])
    return Polynomial.from_integer_ratio(num, D)


def normalized_values(pf: PFraction, lam, J: int):
    """Lists (P_0..P_J, Q_0..Q_J) at lam by one forward sweep (float/complex).

    P_{j+1} = (p_j(lam) P_j - eps_{j-1} eps_j b_{j-1} P_{j-1}) / b_j, the
    same for Q, started from P_{-1} = 0, P_0 = 1, Q_{-1} = -1, Q_0 = 0 (with
    eps_{-1} b_{-1} = 1).  No polynomial is expanded, so the growing values
    keep their relative accuracy at any depth.
    """
    if not 0 <= J <= len(pf):
        raise OutOfRange(f"j={J} outside the term range [0, {len(pf)}]")
    lam = complex(lam)
    P, Q = [0j, 1 + 0j], [-1 + 0j, 0j]
    eps_prev, b_prev = 1, 1.0
    for j in range(J):
        term = pf[j]
        if term.b_squared is None:
            raise OutOfRange(f"normalization of index {j + 1} needs coupling b_{j}")
        b = term.b_float
        pj = complex(term.p.as_float()(lam))
        c = eps_prev * term.epsilon * b_prev
        P.append((pj * P[-1] - c * P[-2]) / b)
        Q.append((pj * Q[-1] - c * Q[-2]) / b)
        eps_prev, b_prev = term.epsilon, b
    return P[1:], Q[1:]


def lo_defect(seqs: OrthoSequences, j: int, lam) -> float:
    """|eps_j b_j (Q_{j+1} P_j - Q_j P_{j+1}) - 1| at lam (float), exact on exact
    data; on float data relative to max(1, b_j |Q_{j+1} P_j|, b_j |Q_j P_{j+1}|),
    since the rounding of those cancelling products sets the absolute value."""
    seqs.check_range(j + 1)
    term = seqs.source[j]
    if term.b_squared is None:
        raise OutOfRange(f"term {j} has no coupling b_j")
    # b_j (Q_{j+1}P_j - Q_jP_{j+1}) = (Qhat_{j+1}Phat_j - Qhat_jPhat_{j+1})
    # divided by prod_{i<j} b_i^2, so the whole combination is rational and
    # can be evaluated without float cancellation on exact data
    prods = seqs.b2_products[j]
    if isinstance(prods, (int, Fraction)):
        pairs = [p.eval_exact_pair(lam) for p in
                 (seqs.Phat[j], seqs.Qhat[j], seqs.Phat[j + 1], seqs.Qhat[j + 1])]
        if all(v is not None for v in pairs):
            (pr, pi), (qr, qi), (p1r, p1i), (q1r, q1i) = pairs
            wr = (q1r * pr - q1i * pi) - (qr * p1r - qi * p1i)
            wi = (q1r * pi + q1i * pr) - (qr * p1i + qi * p1r)
            dr = term.epsilon * wr / prods - 1
            di = term.epsilon * wi / prods
            return abs(complex(float(dr), float(di)))
    P, Q = normalized_values(seqs.source, lam, j + 1)
    b = term.b_float
    left, right = b * Q[j + 1] * P[j], b * Q[j] * P[j + 1]
    return abs(term.epsilon * (left - right) - 1.0) / max(1.0, abs(left), abs(right))


def lo_polynomial_residual(seqs: OrthoSequences, j: int) -> Polynomial:
    """eps_j (Qhat_{j+1} Phat_j - Qhat_j Phat_{j+1}) - prod_{i<j} b_i^2.

    Zero as an exact polynomial for every generated j (monic-scaled
    Liouville-Ostrogradsky identity).

    On exact data the two products and the constant go over one common
    denominator D, and the four numerator lists are packed (poly._pack) at
    one slot width whose half exceeds a bound on every coefficient of D
    times the residual: the two products' bounds plus |D pi_j|.  Packing is
    evaluation at x = 2^(8 width), so the residual numerator at that point
    is one integer expression.  It is zero exactly when the residual is:
    a polynomial whose integer coefficients are below half a slot in
    modulus is its own balanced base-2^(8 width) expansion, and those
    digits are unique, so it vanishes at 2^(8 width) only when every digit
    does.  A zero integer returns Polynomial.zero() without unpacking.
    Float sequences use the Polynomial expression.
    """
    seqs.check_range(j + 1)
    eps = seqs.source[j].epsilon
    Q1, P0, Q0, P1 = seqs.Qhat[j + 1], seqs.Phat[j], seqs.Qhat[j], seqs.Phat[j + 1]
    const = seqs.b2_products[j]
    if not (isinstance(const, (int, Fraction))
            and all(u.is_exact for u in (Q1, P0, Q0, P1))):
        return eps * (Q1 * P0 - Q0 * P1) - Polynomial((const,))
    (q1, dq1), (p0, dp0), (q0, dq0), (p1, dp1) = (
        u.as_integer_ratio() for u in (Q1, P0, Q0, P1))
    cn, cd = const.as_integer_ratio()
    D = math.lcm(dq1 * dp0, dq0 * dp1, cd)
    f1, f2, c = D // (dq1 * dp0), D // (dq0 * dp1), cn * (D // cd)
    width = _slot_width(f1 * _product_bound(q1, p0) + f2 * _product_bound(q0, p1) + abs(c))

    def product(a, b):  # an empty factor (Qhat_0) bounds nothing of its partner
        return _pack(a, width) * _pack(b, width) if a and b else 0

    packed = eps * (f1 * product(q1, p0) - f2 * product(q0, p1)) - c
    if not packed:
        return Polynomial.zero()
    n = max(len(q1) + len(p0), len(q0) + len(p1)) - 1
    return Polynomial.from_integer_ratio(_unpack(packed, width, n), D)


@dataclass(frozen=True)
class CoprimalityReport:
    j: int
    gcd_P: Polynomial  # gcd(Phat_j, Phat_{j+1})
    gcd_Q: Polynomial  # gcd(Qhat_j, Qhat_{j+1})
    gcd_PQ: Polynomial  # gcd(Phat_j, Qhat_j)

    @property
    def all_coprime(self):
        return all(g.degree == 0 for g in (self.gcd_P, self.gcd_Q, self.gcd_PQ))


def coprimality_check(seqs: OrthoSequences, j: int) -> CoprimalityReport:
    """Exact gcds behind the no-common-zeros clauses (all must be constant)."""
    if j < 1:
        raise OutOfRange("coprimality clauses need j >= 1")
    seqs.check_range(j + 1)
    return CoprimalityReport(
        j=j,
        gcd_P=poly_gcd(seqs.Phat[j], seqs.Phat[j + 1]),
        gcd_Q=poly_gcd(seqs.Qhat[j], seqs.Qhat[j + 1]),
        gcd_PQ=poly_gcd(seqs.Phat[j], seqs.Qhat[j]),
    )
