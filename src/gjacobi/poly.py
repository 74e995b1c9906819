"""Dense univariate polynomials over exact rationals or floats.

Coefficients are stored low-to-high with no trailing zeros.  The zero
polynomial has an empty coefficient tuple and degree -1.  Exact polynomials
show ``fractions.Fraction`` (or int) coefficients, but their products, exact
evaluation and coprimality run on integers: each operand is cleared to
integer coefficients over one common denominator, so no gcd is paid per
coefficient operation.  Float polynomials use plain float/complex arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm

_P = (1 << 61) - 1  # Mersenne prime of poly_gcd's modular coprimality test


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable dense polynomial; supports +, -, * and gcd."""

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
        coefficients; floats in lam are themselves exact rationals.  With
        p = sum c_k x^k / den (c_k integers) and lam = (a + bi)/D (D the
        common power-of-two denominator of its parts), Horner runs on the
        integers sum c_k (a + bi)^k D^(n-k) and divides by D^n den once.
        """
        if not _is_exact(self.coeffs):
            return None
        lam = complex(lam)
        try:
            re, im = Fraction(lam.real), Fraction(lam.imag)
        except (OverflowError, ValueError):
            return None
        D = _int_lcm(re.denominator, im.denominator)
        a = re.numerator * (D // re.denominator)
        b = im.numerator * (D // im.denominator)
        ints, den = _clear(self.coeffs)
        ar = ai = 0
        dk = 1  # D^(n-k) at coefficient k; D^(n+1) after the loop
        for c in reversed(ints):
            ar, ai = ar * a - ai * b + c * dk, ar * b + ai * a
            dk *= D
        return Fraction(ar * D, den * dk), Fraction(ai * D, den * dk)

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(1 / Fraction(self.leading) if isinstance(self.leading, (int, Fraction)) else 1.0 / self.leading)


def _is_exact(coeffs):
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _clear(coeffs):
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of the
    denominators (floats are read as the rationals they are)."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = _int_lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _primitive(ints):
    """Integer coefficients divided by their content (gcd)."""
    g = _int_gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _mul(a, b):
    if _is_exact(a) and _is_exact(b):
        return _kronecker_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _kronecker_mul(a, b):
    """Exact product by one big-integer multiply (Kronecker substitution).

    Both operands are cleared to integers over one denominator and packed
    into one int each, a slot per coefficient.  A slot holds at least
    bitlen(max|a| max|b| min(len a, len b)) + 1 bits (rounded up to whole
    bytes), so every product coefficient fits its slot with its sign, and
    the product's slots read back as balanced signed digits.
    """
    ia, da = _clear(a)
    ib, db = _clear(b)
    bound = max(map(abs, ia)) * max(map(abs, ib)) * min(len(ia), len(ib))
    width = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
    n = len(ia) + len(ib) - 1
    raw = (_pack(ia, width) * _pack(ib, width)).to_bytes(
        n * width, "little", signed=True)
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    den = da * db
    out, borrow = [], 0
    for k in range(0, n * width, width):
        c = int.from_bytes(raw[k:k + width], "little") + borrow
        borrow = c >= half
        out.append(Fraction(c - full if borrow else c, den))
    return out


def _pack(ints, width):
    """sum ints[i] * 2^(8 width i) for integers that fit width signed bytes."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in ints)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# -- exact gcd: modular coprimality test, then subresultant PRS --------

def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two exact polynomials: Polynomial.one() when a gcd mod P
    already proves them coprime, else the subresultant remainder sequence."""
    if a.is_zero:
        return b.monic() if b else b
    if b.is_zero:
        return a.monic()
    f = _primitive(_clear(a.coeffs)[0])
    g = _primitive(_clear(b.coeffs)[0])
    # A rational common factor h of f and g is (Gauss) a primitive integer
    # factor whose leading coefficient divides lc(f); when P does not, h
    # keeps its degree mod P.  So a constant gcd mod P proves coprimality.
    if f[-1] % _P and g[-1] % _P and _gcd_degree_mod_p(f, g) == 0:
        return Polynomial.one()
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
    return Polynomial([Fraction(c) for c in _primitive(g)]).monic()


def _gcd_degree_mod_p(f, g):
    """Degree of gcd(f mod P, g mod P) by Euclid over GF(P); leading
    coefficients must be nonzero mod P."""
    f = [c % _P for c in f]
    g = [c % _P for c in g]
    while g:
        inv = pow(g[-1], -1, _P)
        g = [c * inv % _P for c in g]  # monic
        dg = len(g) - 1
        while len(f) > dg:
            q, s = f.pop(), len(f) - dg
            for k in range(dg):
                f[s + k] = (f[s + k] - q * g[k]) % _P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


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
