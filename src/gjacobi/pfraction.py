"""Expansion of a moment series into its P-fraction and back.

Each expansion step strips the polynomial part of -1/phi (a monic block
polynomial with a sign), rescales the remainder so the next tail is again
normalized, and accounts for the 2k moment coefficients the step consumed.
The tail is kept as a pair of series num/den, not as one expanded series, so
a step multiplies once instead of dividing the whole tail (Gragg, SIAM
Review 14, 1972): O(depth * k) per step, O(N^2) for the expansion.  Exact
pairs are integer lists: the normalization fixes the pair's scale, so a
step divides only by the content of its remainder.

The way back reads the moments as s_i = [H^i e, e] of the generalized
Jacobi matrix: `to_moments` reads them off `gjmatrix._krylov`, the
iteration of the integer matrix D*K on a unit vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm, sqrt

from .errors import (AllZero, DegreeCapExceeded, EmptyPFraction,
                     InsufficientMoments, OpenCoupling, OutOfRange)
from .moments import (MomentSequence, normalize, parse_ratio, parse_scalar, _json_list,
                      _scalar_str)
from .poly import Polynomial, _clear, _mul

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

    # the float couplings, kept once per term: the terms of a periodic
    # input are one shared object, read at every depth
    @cached_property
    def b_squared_float(self):
        """float(b_squared); TypeError for a final term without coupling."""
        return float(self.b_squared)

    @cached_property
    def b_float(self):
        """The coupling b = sqrt(b^2) as a float."""
        return sqrt(self.b_squared_float)


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
        return cls.from_data(json.loads(text), exact_parse)

    @classmethod
    def from_data(cls, data, exact_parse=False):
        # a periodic input repeats a few terms many times: each distinct
        # term is parsed once and its PFractionTerm (immutable) is shared.
        # The key is the term's repr, which keeps 1, 1.0, "1" and true apart
        # (1 == 1.0 == True) and -0.0 apart from 0.0: terms with equal keys
        # parse alike, or both fail
        memo = {}
        terms = []
        for t in data["terms"]:
            key = repr(t)
            if key not in memo:
                memo[key] = _parse_term(t, exact_parse)
            terms.append(memo[key])
        pf = cls(tuple(terms), status=data.get("status", STATUS_OPEN))
        cap = data.get("degree_cap")  # checked, not kept
        if cap is not None and any(t.degree > cap for t in memo.values()):
            raise ValueError("term degree exceeds degree_cap")
        return pf


def _parse_term(t, exact_parse):
    b2 = t.get("b_squared")
    eps = t["epsilon"]  # int() alone reads 1.5 and true as 1
    if isinstance(eps, bool) or isinstance(eps, float) and not eps.is_integer():
        raise ValueError(f"epsilon must be an integer, got {eps!r}")
    return PFractionTerm(
        epsilon=int(eps),
        b_squared=None if b2 is None else parse_scalar(b2, exact_parse),
        p=_block([parse_ratio(c, exact_parse) for c in _json_list(t, "p")]),
    )


def _block(values):
    """Block polynomial of parse_ratio values: exact from the integer ratios,
    or, when any value is a float, the float polynomial of the scalars."""
    if float in map(type, values):
        return Polynomial([v if isinstance(v, float) else Fraction(*v) for v in values])
    den = lcm(*[d for _, d in values])
    return Polynomial.from_integer_ratio([n * (den // d) for n, d in values], den)


def expand_step(num, den):
    """One P-fraction step on a normalized tail held as a pair num/den.

    num and den are coefficient sequences, low to high, with den[0] != 0:
    integers for exact data, floats otherwise.  The pair holds the tail up
    to a positive factor, which the normalization fixes: the tail's first
    nonzero coefficient is +-1, so with num[i0] the first nonzero entry of
    num the tail is |den[0] / num[i0]| * num/den.  An exact normalized tail
    t is held by (the integer numerators of t.coeffs, (1,)), a float one by
    (t.coeffs, (1,)).  The tail's depth is len(num), and num's zeros before
    i0 are exact.  Returns (term, next_pair); next_pair is None when the
    depth leaves no coefficients for the remainder.  A term whose remainder
    vanishes through the known depth carries b_squared None and a zero
    remainder.
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
    a = num[i0:]
    a0, d0 = a[0], den[0]
    eps = 1 if (a0 > 0) == (d0 > 0) else -1
    # -1/phi = lambda^k * V(1/lambda) up to the tail's factor, V = den/a with
    # a(z) = sum num_{k-1+i} z^i.  Its first k+1 terms, u = a0^(k+1) V
    # through z^k, come from w_j = a0^(j+1) V_j by division-free recursion.
    pw = [a0 ** j for j in range(k + 2)]
    w = []
    for j in range(k + 1):
        acc = den[j] * pw[j] if j < len(den) else 0
        for i in range(1, j + 1):
            acc -= a[i] * w[j - i] * pw[i - 1]
        w.append(acc)
    top = pw[k + 1]
    u = [wj * pw[k - j] for j, wj in enumerate(w)]
    if isinstance(a0, int):
        # V's terms are small (the block's coefficients up to scale), so
        # u = top V narrows to V over the least denominator top
        g = gcd(top, *u)
        top, u = top // g, [c // g for c in u]
        p = Polynomial.from_integer_ratio(u[::-1], u[0])  # u[0] leads
    else:
        p = Polynomial(u[::-1]).monic()
    # top R = top den - u a vanishes through z^k, and R/a is the rest of V:
    # the remainder is -r/a with r = R_{k+1}, ..., R_{depth-k}; -u goes
    # first so that floats subtract one term of u at a time
    d = list(den[:depth - k + 1])
    d += [0] * (depth - k + 1 - len(d))
    top_den = [top * c for c in d]
    r = _mul([-c for c in u], a, top_den)[k + 1:depth - k + 1]
    if isinstance(a0, int):
        nz = next((j for j, c in enumerate(r) if c), None)
    else:
        # R_j is zero within rounding of the magnitudes that cancelled in it
        mag = _mul([abs(c) for c in u], [abs(c) for c in a],
                   [abs(c) for c in top_den])[k + 1:depth - k + 1]
        nz = next((j for j, c in enumerate(r) if abs(c) > 1e-12 * mag[j]), None)
    if nz is None:
        term = PFractionTerm(eps, None, p)
        next_pair = (tuple(-c for c in r), a[:len(r)]) if r else None
        return term, next_pair
    # the tail's factor is |d0 / a0|, so b2 = |r_nz / (top d0)|: exact for
    # integers, the float quotient for floats
    b2 = Fraction(abs(r[nz])) / abs(top * d0)
    # the next tail, -r/(b2 a), is |a0 / r_nz| * (-sign(top) r)/a; r's common
    # factor comes out: its content for integers, |r_nz| for floats, which
    # keeps the next a0 at +-1
    r = r[nz:]
    g = gcd(*r) if isinstance(a0, int) else abs(r[0])
    g = g if top < 0 else -g
    rest = [c // g for c in r] if isinstance(a0, int) else [c / g for c in r]
    return PFractionTerm(eps, b2, p), ((0,) * nz + tuple(rest), a[:nz + len(r)])


def expand(s: MomentSequence, max_terms: int, degree_cap: int) -> PFraction:
    """Expand a moment sequence into at most max_terms P-fraction terms."""
    if max_terms < 1:
        raise OutOfRange("max_terms must be >= 1")
    tail = normalize(s)
    i0 = tail.first_nonzero()
    # entries the zero test drops become exact zeros of the first pair; an
    # exact tail is held by its integer numerators, the pair's scale being
    # fixed by the normalization
    head = tail.coeffs[i0:]
    if tail.is_exact:
        head = _clear(head)[0]
    pair = ((0,) * i0 + tuple(head), (1,))
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
    """Moments s_i = [H^i e, e], i < count, of the truncation H_J.

    H_J is the generalized Jacobi matrix of a J-term prefix; its m-function
    is -Qhat_J/Phat_J, so these are the Laurent coefficients at infinity of
    Qhat_J/Phat_J at every index.  Indices below 2*n_J (J terms, n_J = sum
    of block degrees) are certified; for a terminated fraction every
    coefficient is exact.  A j-term prefix already reproduces the series
    through index 2*n_j - 1, so only the shortest prefix with
    2*n_j >= count is iterated.  The iteration v <- (D*K) v runs in
    integers (gjmatrix._krylov), and s_i = eps_0 * v_i[k_0 - 1] / D^i,
    since the first row of the metric block G_0 is eps_0 e_{k_0-1}.  Float
    data is run on its exact rational values and rounded once at the end.
    """
    from .gjmatrix import _krylov

    if len(pf) == 0:
        raise EmptyPFraction("P-fraction has no terms")
    if count < 1:
        raise OutOfRange("count must be >= 1")
    n_ends = accumulate(t.degree for t in pf.terms)  # n_1, n_2, ..., n_J
    J = next((j for j, n in enumerate(n_ends, 1) if 2 * n >= count), len(pf))
    terms = pf.terms[:J]
    exact = all(t.p.is_exact and isinstance(t.b_squared or 0, (int, Fraction))
                for t in terms)
    eps0, at = terms[0].epsilon, terms[0].degree - 1
    ring = Fraction if exact else float
    moments = []
    for v, den in _krylov(terms, count):
        c = eps0 * v[at]
        moments.append(Fraction(c, den) if exact else c / den)
    certified = None if pf.status == STATUS_TERMINATED else 2 * pf.normal_index(len(pf)) - 1
    return MomentSequence(tuple(moments), scale=ring(1), certified_up_to=certified)
