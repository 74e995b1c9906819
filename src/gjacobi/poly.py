"""Dense univariate polynomials over exact rationals or floats.

Coefficients are stored low-to-high with no trailing zeros.  The zero
polynomial has an empty coefficient tuple and degree -1.  Exact work uses
``fractions.Fraction`` coefficients; evaluation at complex points goes
through plain Python complex arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

KARATSUBA_CUTOFF = 64  # schoolbook below this degree


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable dense polynomial; supports +, -, *, exact divmod and gcd."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, Polynomial):
            coeffs = coeffs.coeffs
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((Fraction(1),))

    @classmethod
    def x(cls):
        return cls((Fraction(0), Fraction(1)))

    # -- basic queries ------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial((other,)) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero()
        return Polynomial(_mul(a, b))

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Polynomial.zero()
        return Polynomial(tuple(c * v for v in self.coeffs))

    def shift(self, k):
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Polynomial((0,) * k + self.coeffs)

    # -- division -----------------------------------------------------
    def divmod(self, other):
        """Quotient and remainder over the coefficient field."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        dc = other.coeffs
        dd = other.degree
        lead = dc[-1]
        q = [0] * max(len(num) - dd, 0)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if not c:
                continue
            f = c / lead
            q[i - dd] = f
            for k, d in enumerate(dc):
                num[i - dd + k] -= f * d
        return Polynomial(q), Polynomial(num[:dd])

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- evaluation ---------------------------------------------------
    def __call__(self, x):
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def as_float(self):
        return Polynomial(tuple(float(c) for c in self.coeffs))

    def eval_exact_pair(self, lam):
        """(re, im) of p(lam) as Fractions, or None when not exactly doable.

        Avoids the float Horner cancellation on large alternating
        coefficients; floats in lam are themselves exact rationals.
        """
        if not all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            return None
        lam = complex(lam)
        try:
            re, im = Fraction(lam.real), Fraction(lam.imag)
        except (OverflowError, ValueError):
            return None
        ar, ai = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            ar, ai = ar * re - ai * im + c, ar * im + ai * re
        return ar, ai

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(1 / Fraction(self.leading) if isinstance(self.leading, (int, Fraction)) else 1.0 / self.leading)


def _mul(a, b):
    if min(len(a), len(b)) <= KARATSUBA_CUTOFF:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out
    return _karatsuba(a, b)


def _karatsuba(a, b):
    n = max(len(a), len(b))
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _mul(a0, b0) if a0 and b0 else []
    z2 = _mul(a1, b1) if a1 and b1 else []
    sa = [x + y for x, y in _zip_pad(a0, a1)]
    sb = [x + y for x, y in _zip_pad(b0, b1)]
    z1 = _mul(sa, sb) if sa and sb else []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
    for i, c in enumerate(z1):
        out[i + h] += c
    for i, c in enumerate(z0):
        out[i + h] -= c
    for i, c in enumerate(z2):
        out[i + h] -= c
    for i, c in enumerate(z2):
        out[i + 2 * h] += c
    return out


def _zip_pad(a, b):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)


# -- exact gcd via subresultant PRS -----------------------------------

def _to_int_primitive(p: Polynomial):
    """Clear denominators and content; return integer coefficient list."""
    den = 1
    for c in p.coeffs:
        c = Fraction(c)
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = _int_gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two exact polynomials (subresultant remainder sequence)."""
    if a.is_zero:
        return b.monic() if b else b
    if b.is_zero:
        return a.monic()
    f = _to_int_primitive(a)
    g = _to_int_primitive(b)
    if len(f) < len(g):
        f, g = g, f
    # subresultant PRS (Cohen, Alg. 3.3.1) over the integers
    gg_prev, h = 1, 1
    while True:
        delta = (len(f) - 1) - (len(g) - 1)
        r = _int_prem(f, g)
        if not r:
            break
        div = gg_prev * h ** delta
        f, g = g, [c // div for c in r]
        gg_prev = f[-1]
        h = gg_prev ** delta // h ** (delta - 1) if delta >= 1 else h
    gg = 0
    for v in g:
        gg = _int_gcd(gg, abs(v))
    if gg > 1:
        g = [v // gg for v in g]
    return Polynomial([Fraction(c) for c in g]).monic()


def _int_prem(f, g):
    """Integer pseudo-remainder lc(g)^(df-dg+1) * f mod g (lists, low-to-high)."""
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return list(f)
    lg = g[-1]
    r = list(f)
    for i in range(df - dg, -1, -1):
        c = r[dg + i]
        r = [lg * v for v in r]
        for k, gv in enumerate(g):
            r[i + k] -= c * gv
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r
