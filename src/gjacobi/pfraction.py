"""Expansion of a moment series into its P-fraction and back.

Each expansion step strips the polynomial part of -1/phi (a monic block
polynomial with a sign), rescales the remainder so the next tail is again
normalized, and accounts for the 2k moment coefficients the step consumed.
The tail is kept as a pair of series num/den, not as one expanded series, so
a step multiplies once instead of dividing the whole tail (Gragg, SIAM
Review 14, 1972): O(depth * k) per step, O(N^2) for the expansion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (AllZero, DegreeCapExceeded, EmptyPFraction,
                     InsufficientMoments, OpenCoupling, OutOfRange)
from .moments import MomentSequence, normalize, parse_scalar, _scalar_str
from .poly import Polynomial, _is_exact, _mul
from .polyrec import generate
from .series import laurent_coeffs, series_div

STATUS_OPEN = "open"
STATUS_TERMINATED = "terminated"
STATUS_EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class PFractionTerm:
    """One partial denominator: sign epsilon, coupling b^2 > 0, monic block p."""

    epsilon: int
    b_squared: object  # positive scalar, or None for a final term
    p: Polynomial

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.b_squared is not None and not self.b_squared > 0:
            raise ValueError("b_squared must be positive")
        if self.p.degree < 1 or not self.p.is_monic:
            raise ValueError("block polynomial must be monic of degree >= 1")

    @property
    def degree(self):
        return self.p.degree


@dataclass(frozen=True)
class PFraction:
    """Ordered P-fraction terms with a termination status.

    Every block is coupled to the next one, so only the last term may leave
    its coupling b^2 unknown (None).
    """

    terms: tuple
    status: str = STATUS_OPEN

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.status not in (STATUS_OPEN, STATUS_TERMINATED, STATUS_EXHAUSTED):
            raise ValueError(f"unknown status {self.status!r}")
        open_at = [j for j, t in enumerate(self.terms[:-1]) if t.b_squared is None]
        if open_at:
            raise OpenCoupling(f"term {open_at[0]} lacks b_squared; only the "
                               "last term may")

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, j):
        return self.terms[j]

    def block_degrees(self):
        return tuple(t.degree for t in self.terms)

    def normal_index(self, j):
        """n_j = k_0 + ... + k_{j-1}."""
        return sum(t.degree for t in self.terms[:j])

    # -- serialization -------------------------------------------------
    def to_json(self):
        terms = [
            {
                "epsilon": t.epsilon,
                "b_squared": None if t.b_squared is None else _scalar_str(t.b_squared),
                "p": [_scalar_str(c) for c in t.p.coeffs],
            }
            for t in self.terms
        ]
        return json.dumps({"terms": terms, "status": self.status})

    @classmethod
    def from_json(cls, text, exact_parse=False):
        data = json.loads(text)
        terms = []
        for t in data["terms"]:
            b2 = t.get("b_squared")
            eps = t["epsilon"]  # int() alone reads 1.5 and true as 1
            if isinstance(eps, bool) or isinstance(eps, float) and not eps.is_integer():
                raise ValueError(f"epsilon must be an integer, got {eps!r}")
            terms.append(PFractionTerm(
                epsilon=int(eps),
                b_squared=None if b2 is None else parse_scalar(b2, exact_parse),
                p=Polynomial([parse_scalar(c, exact_parse) for c in t["p"]]),
            ))
        pf = cls(tuple(terms), status=data.get("status", STATUS_OPEN))
        cap = data.get("degree_cap")  # checked, not kept
        if cap is not None and any(t.degree > cap for t in terms):
            raise ValueError("term degree exceeds degree_cap")
        return pf


def expand_step(num, den):
    """One P-fraction step on a tail held as the series quotient num/den.

    num and den are coefficient sequences, low to high, with den[0] != 0;
    the tail's depth is len(num), and num's zeros before its first nonzero
    entry are exact.  A normalized tail t is the pair (t.coeffs, (1,)).
    Returns (term, next_pair); next_pair is None when the depth leaves no
    coefficients for the remainder.  A term whose remainder vanishes
    through the known depth carries b_squared None and a zero remainder.
    """
    i0 = next((i for i, c in enumerate(num) if c), None)
    if i0 is None:
        raise AllZero("tail is identically zero")
    k = i0 + 1
    depth = len(num)
    if depth < 2 * k:
        raise InsufficientMoments(
            f"block degree {k} needs depth {2 * k}, have {depth}"
        )
    eps = 1 if num[i0] / den[0] > 0 else -1
    # -1/phi = lambda^k * V(1/lambda) with V = den/a, a(z) = sum num_{k-1+i} z^i
    a = num[i0:]
    v = series_div(den[:k + 1], a, k + 1)
    p = Polynomial([v[k - m] / v[0] for m in range(k + 1)])
    # R = den - (v_0 + ... + v_k z^k) a vanishes through z^k, and R/a is
    # the rest of V: the remainder is -r/a with r = R_{k+1}, R_{k+2}, ...
    va = _mul(v, a)
    d = list(den[k + 1:depth - k + 1])
    d += [0] * (depth - 2 * k - len(d))
    r = [dj - va[j] for j, dj in enumerate(d, k + 1)]
    if _is_exact(a) and _is_exact(den):
        nz = next((j for j, c in enumerate(r) if c), None)
    else:
        # R_j is zero within rounding of the magnitudes that cancelled in it
        mag = _mul([abs(c) for c in v], [abs(c) for c in a])
        nz = next((j for j, c in enumerate(r)
                   if abs(c) > 1e-12 * (abs(d[j]) + mag[k + 1 + j])), None)
    if nz is None:
        term = PFractionTerm(eps, None, p)
        next_pair = (tuple(-c for c in r), a[:len(r)]) if r else None
        return term, next_pair
    b2 = abs(r[nz] / a[0])
    # the next tail is -r/(b2 a); dividing r keeps |den[0]| at 1
    next_num = (0,) * nz + tuple(-c / b2 for c in r[nz:])
    return PFractionTerm(eps, b2, p), (next_num, a[:len(r)])


def expand(s: MomentSequence, max_terms: int, degree_cap: int) -> PFraction:
    """Expand a moment sequence into at most max_terms P-fraction terms."""
    tail = normalize(s)
    i0 = tail.first_nonzero()
    # entries the zero test drops become exact zeros of the first pair
    pair = ((0,) * i0 + tail.coeffs[i0:], (1,))
    terms = []
    status = STATUS_OPEN
    while len(terms) < max_terms:
        # never all zero here: normalize leaves a nonzero entry, an uncoupled
        # step ends the loop, and a coupled step's numerator keeps its
        # first nonzero remainder coefficient
        num = pair[0]
        k = next(i for i, c in enumerate(num) if c) + 1
        if k > degree_cap:
            raise DegreeCapExceeded(f"block degree {k} exceeds cap {degree_cap}")
        if len(num) < 2 * k:
            status = STATUS_EXHAUSTED
            break
        term, pair = expand_step(*pair)
        terms.append(term)
        if term.b_squared is None:
            # remainder vanished through the known depth
            rem_depth = 0 if pair is None else len(pair[0])
            status = STATUS_TERMINATED if rem_depth >= 2 else STATUS_EXHAUSTED
            break
    if not terms:
        raise AllZero("no expandable content in input")
    return PFraction(tuple(terms), status=status)


def to_moments(pf: PFraction, count: int) -> MomentSequence:
    """Laurent coefficients at infinity of Qhat_J/Phat_J, the composed fraction.

    Indices below 2*n_J (J terms, n_J = sum of block degrees) are certified;
    for a terminated fraction every coefficient is exact.  A j-term prefix
    already reproduces the series through index 2*n_j - 1, so only the
    shortest prefix with 2*n_j >= count is recurred.  Float data is run on
    its exact rational values and rounded once at the end: the expanded
    Phat_J, Qhat_J would lose their digits to cancellation in floats.
    """
    if len(pf) == 0:
        raise EmptyPFraction("P-fraction has no terms")
    if count < 1:
        raise OutOfRange("count must be >= 1")
    n_ends = accumulate(t.degree for t in pf.terms)  # n_1, n_2, ..., n_J
    J = next((j for j, n in enumerate(n_ends, 1) if 2 * n >= count), len(pf))
    terms = pf.terms[:J]
    exact = all(t.p.is_exact and isinstance(t.b_squared or 0, (int, Fraction))
                for t in terms)
    if not exact:
        terms = tuple(PFractionTerm(
            t.epsilon, None if t.b_squared is None else Fraction(t.b_squared),
            Polynomial.from_integer_ratio(*t.p.as_integer_ratio())) for t in terms)
    seqs = generate(PFraction(terms), J)
    moments = laurent_coeffs(seqs.Qhat[J], seqs.Phat[J], count)
    ring = Fraction if exact else float
    certified = None if pf.status == STATUS_TERMINATED else 2 * pf.normal_index(len(pf)) - 1
    return MomentSequence(tuple(ring(c) for c in moments), scale=ring(1),
                          certified_up_to=certified)
