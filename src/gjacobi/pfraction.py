"""Expansion of a moment series into its P-fraction and back.

Each expansion step strips the polynomial part of -1/phi (a monic block
polynomial with a sign), rescales the remainder so the next tail is again
normalized, and accounts for the 2k moment coefficients the step consumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (AllZero, DegreeCapExceeded, EmptyPFraction,
                     InsufficientMoments, OpenCoupling, OutOfRange)
from .moments import MomentSequence, normalize, parse_scalar, _scalar_str
from .poly import Polynomial
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


def expand_step(tail: MomentSequence):
    """One P-fraction step on a normalized tail.

    Returns (term, next_tail); next_tail is None when the input depth leaves
    no coefficients for the remainder.  A term whose remainder vanishes
    through the known depth carries b_squared None and a zero next_tail.
    """
    i0 = tail.first_nonzero()
    if i0 is None:
        raise AllZero("tail is identically zero")
    k = i0 + 1
    depth = len(tail)
    if depth < 2 * k:
        raise InsufficientMoments(
            f"block degree {k} needs depth {2 * k}, have {depth}"
        )
    eps = 1 if tail[i0] > 0 else -1
    # -1/phi = lambda^k * V(1/lambda) with V = 1/U, U(z) = sum s_{k-1+i} z^i
    v = series_div((1,), tail.coeffs[i0:], depth - i0)
    p = Polynomial([v[k - m] / v[0] for m in range(k + 1)])
    rem = [-v[k + 1 + j] for j in range(depth - 2 * k)]
    nz = next((j for j, c in enumerate(rem) if not _zeroish(c, tail)), None)
    if nz is None:
        term = PFractionTerm(eps, None, p)
        next_tail = MomentSequence(tuple(rem)) if rem else None
        return term, next_tail
    b2 = abs(rem[nz])
    term = PFractionTerm(eps, b2, p)
    next_tail = MomentSequence(tuple(c / b2 for c in rem))
    return term, next_tail


def _zeroish(c, tail):
    if tail.is_exact:
        return c == 0
    return abs(c) <= 1e-12


def expand(s: MomentSequence, max_terms: int, degree_cap: int) -> PFraction:
    """Expand a moment sequence into at most max_terms P-fraction terms."""
    tail = normalize(s)
    terms = []
    status = STATUS_OPEN
    while len(terms) < max_terms:
        # never None or all zero here: normalize leaves a nonzero entry, an
        # uncoupled step ends the loop, a coupled step's tail holds +-1, and
        # the relative zero test never drops a tail's largest entry
        k = tail.first_nonzero() + 1
        if k > degree_cap:
            raise DegreeCapExceeded(f"block degree {k} exceeds cap {degree_cap}")
        if len(tail) < 2 * k:
            status = STATUS_EXHAUSTED
            break
        term, tail = expand_step(tail)
        terms.append(term)
        if term.b_squared is None:
            # remainder vanished through the known depth
            rem_depth = 0 if tail is None else len(tail)
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
    from .polyrec import generate

    if len(pf) == 0:
        raise EmptyPFraction("P-fraction has no terms")
    if count < 1:
        raise OutOfRange("count must be >= 1")
    n_ends = accumulate(t.degree for t in pf.terms)  # n_1, n_2, ..., n_J
    J = next((j for j, n in enumerate(n_ends, 1) if 2 * n >= count), len(pf))
    terms = pf.terms[:J]
    exact = all(isinstance(c, (int, Fraction))
                for t in terms for c in (t.b_squared or 0, *t.p.coeffs))
    if not exact:
        terms = tuple(PFractionTerm(
            t.epsilon, None if t.b_squared is None else Fraction(t.b_squared),
            Polynomial([Fraction(c) for c in t.p.coeffs])) for t in terms)
    seqs = generate(PFraction(terms), J)
    moments = laurent_coeffs(seqs.Qhat[J], seqs.Phat[J], count)
    ring = Fraction if exact else float
    certified = None if pf.status == STATUS_TERMINATED else 2 * pf.normal_index(len(pf)) - 1
    return MomentSequence(tuple(ring(c) for c in moments), scale=ring(1),
                          certified_up_to=certified)
