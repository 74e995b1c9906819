"""Dense univariate polynomials over exact rationals or floats.

Coefficients run low-to-high with no trailing zeros; the zero polynomial has
no coefficients and degree -1.  An exact polynomial is held as a tuple of
integer numerators over one positive denominator in lowest terms
(gcd(den, *num) == 1), so +, -, *, scaling, comparison, exact evaluation and
gcd run on integers with one gcd per result, not one per coefficient.
`coeffs` shows the coefficients as Fractions, and `as_float` the float
polynomial of the coefficients, each built on first read and then kept, so
a term evaluated at every depth converts its block to float once.  Float
polynomials keep their float (or complex) coefficients and plain
float arithmetic.  Every product of coefficient lists, here and in
`pfraction` and `pade`, is one `_mul`.  Long integer lists are multiplied
as Kronecker packings: `_pack` writes each coefficient v as the unsigned
slot v + half (half = 2^(8 width - 1)) and takes the bias, half in every
slot, off once; `_unpack` adds it back and reads each slot minus half, one
conversion per coefficient either way.  The exact Liouville-Ostrogradsky
residual of `polyrec` is evaluated on the same packings and slot widths.
`poly_gcd`'s modular coprimality test runs Euclid over GF(P) on numpy int64
arrays: P = 2^31 - 1, so residues below P have products below P^2 < 2^63,
and each reduction row is one vectorised subtract and reduce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd, lcm as _int_lcm

_P = (1 << 31) - 1  # Mersenne prime of poly_gcd's modular coprimality test; P^2 < 2^63
PACK_ABOVE = 10  # _mul packs integer operands longer than this (crossover 10-12)


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable dense polynomial; supports +, -, * and gcd."""

    # exact: _num integer numerators, _den > 0, _coeffs None until read;
    # float: _num and _den None, _coeffs the coefficients; _float is the
    # float view, None until as_float is first called
    __slots__ = ("_num", "_den", "_coeffs", "_float")

    def __init__(self, coeffs=()):
        coeffs = _trim(tuple(coeffs))
        num = den = None
        if _is_exact(coeffs):
            num, den = _clear(coeffs)  # in lowest terms already
            num, coeffs = tuple(num), None
        _set(self, num, den, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_integer_ratio(cls, num, den=1):
        """The exact polynomial sum num[k] x^k / den (den != 0)."""
        if not den:
            raise ValueError("denominator is zero")
        if den < 0:
            num, den = [-v for v in num], -den
        return _reduced(num, den)

    @classmethod
    def zero(cls):
        return _exact((), 1)

    @classmethod
    def one(cls):
        return _exact((1,), 1)

    @classmethod
    def x(cls):
        return _exact((0, 1), 1)

    # -- basic queries ------------------------------------------------
    @property
    def coeffs(self):
        c = self._coeffs
        if c is None:
            den = self._den
            c = tuple(Fraction(v, den) for v in self._num)
            object.__setattr__(self, "_coeffs", c)
        return c

    @property
    def is_exact(self):
        return self._num is not None

    def as_integer_ratio(self):
        """(integer numerators, positive denominator) in lowest terms; float
        coefficients are read as the rationals they are."""
        if self._num is not None:
            return self._num, self._den
        num, den = _clear(self._coeffs)
        return tuple(num), den

    @property
    def degree(self):
        return len(self._coeffs if self._num is None else self._num) - 1

    @property
    def is_zero(self):
        return self.degree < 0

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        if self._num is None:
            return bool(self._coeffs) and self._coeffs[-1] == 1
        return bool(self._num) and self._num[-1] == self._den

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self._num is not None and other._num is not None:
            return self._den == other._den and self._num == other._num
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)  # Fraction and float hash alike when equal

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self._num is None:
            return Polynomial(tuple(-c for c in self._coeffs))
        return _exact(tuple(-v for v in self._num), self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return Polynomial((other,)) - self

    def _combine(self, other, sign):
        """self + sign * other."""
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        if self._num is None or other._num is None:
            a, b = self.coeffs, (other if sign > 0 else -other).coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] += c
            return Polynomial(out)
        den = _int_lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        a, b = self._num, other._num
        out = [fa * v for v in a] + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] += fb * v
        return _reduced(out, den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        if self._num is None or other._num is None:
            return Polynomial(_mul(self.coeffs, other.coeffs))
        a, b = sorted((self._num, other._num), key=len)  # the fewer passes
        return _reduced(_mul(a, b), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Polynomial.zero()
        if self._num is None or not isinstance(c, (int, Fraction)):
            return Polynomial(tuple(c * v for v in self.coeffs))
        n, d = c.as_integer_ratio()
        return _reduced([n * v for v in self._num], self._den * d)

    # -- evaluation ---------------------------------------------------
    def __call__(self, x):
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def as_float(self):
        f = self._float
        if f is None:
            if self._num is None:
                f = Polynomial(tuple(float(c) for c in self._coeffs))
            else:
                den = self._den  # int / int is correctly rounded, as float(Fraction)
                f = Polynomial(tuple(v / den for v in self._num))
            object.__setattr__(self, "_float", f)
        return f

    def eval_exact_pair(self, lam):
        """(re, im) of p(lam) as Fractions, or None when not exactly doable.

        Avoids the float Horner cancellation on large alternating
        coefficients; floats in lam are themselves exact rationals.  With
        p = sum c_k x^k / den (c_k integers) and lam = (a + bi)/D (D the
        common power-of-two denominator of its parts), Horner runs on the
        integers sum c_k (a + bi)^k D^(n-k) and divides by D^n den once.
        """
        if self._num is None:
            return None
        lam = complex(lam)
        try:
            re, im = Fraction(lam.real), Fraction(lam.imag)
        except (OverflowError, ValueError):
            return None
        D = _int_lcm(re.denominator, im.denominator)
        a = re.numerator * (D // re.denominator)
        b = im.numerator * (D // im.denominator)
        ar = ai = 0
        dk = 1  # D^(n-k) at coefficient k; D^(n+1) after the loop
        for c in reversed(self._num):
            ar, ai = ar * a - ai * b + c * dk, ar * b + ai * a
            dk *= D
        den = self._den * dk
        return Fraction(ar * D, den), Fraction(ai * D, den)

    def monic(self):
        if self.is_zero:
            return self
        if self._num is None:
            return self.scale(1.0 / self.leading)
        lead = self._num[-1]  # p / leading == num / lead
        return _reduced(self._num if lead > 0 else [-v for v in self._num], abs(lead))


def _set(p, num, den, coeffs):
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_coeffs", coeffs)
    object.__setattr__(p, "_float", None)


def _exact(num, den):
    """Exact Polynomial of a trimmed numerator tuple over den, in lowest terms."""
    p = object.__new__(Polynomial)
    _set(p, num, den, None)
    return p


def _reduced(num, den):
    """Exact Polynomial sum num[k] x^k / den (den > 0), trimmed and reduced."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    g = _int_gcd(den, *num[:n]) if den != 1 else 1
    if g > 1:
        return _exact(tuple(v // g for v in num[:n]), den // g)
    return _exact(tuple(num[:n]), den)


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


def _mul(a, b, acc=()):
    """acc + a * b for nonempty coefficient sequences a and b, as a list of
    length max(len(acc), len(a) + len(b) - 1).

    Integer operands both longer than PACK_ABOVE are packed into one int
    each, at the _slot_width of their _product_bound, and multiplied once
    (Kronecker substitution): every product coefficient fits its slot with
    its sign, so _unpack reads the slots back.
    Otherwise each nonzero term of a, in order, makes one pass over b: the
    schoolbook's summation order for floats, and few passes for a short a.
    """
    n = len(a) + len(b) - 1
    if len(a) > PACK_ABOVE < len(b) and all(type(c) is int for s in (a, b) for c in s):
        width = _slot_width(_product_bound(a, b))
        out = _unpack(_pack(a, width) * _pack(b, width), width, n)
        return [u + v for u, v in zip_longest(out, acc, fillvalue=0)] if acc else out
    out = list(acc)
    out += [0] * (n - len(out))
    m = len(b)
    for i, ca in enumerate(a):
        if ca:
            out[i:i + m] = [c + ca * cb for c, cb in zip(out[i:i + m], b)]
    return out


# Kronecker packing: a list of integers packs to its value at
# x = 2^(8 width), so sums and products of packings are the packings of the
# sums and products of the lists; it unpacks while every coefficient stays
# below half = 2^(8 width - 1) in modulus, the slot v + half in [0, 2 half).

def _product_bound(a, b):
    """max|a| max|b| min(len a, len b), a bound on the moduli of the
    coefficients of a * b (0 when either list is empty)."""
    if not a or not b:
        return 0
    return max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))


def _slot_width(bound):
    """Bytes per slot for coefficients of modulus at most bound: the least
    whole bytes with bound < half."""
    return bound.bit_length() // 8 + 1


def _bias(width, n):
    """sum half 2^(8 width i) over n slots."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _pack(ints, width):
    """sum ints[i] 2^(8 width i) for integers of modulus below half: one
    unsigned slot ints[i] + half each, less the bias."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(v + half).to_bytes(width, "little") for v in ints])
    return int.from_bytes(raw, "little") - _bias(width, len(ints))


def _unpack(packed, width, n):
    """The n coefficients of packed = sum v_i 2^(8 width i), i < n, each of
    modulus below half: packed + bias has the unsigned slots v_i + half."""
    half = 1 << (8 * width - 1)
    raw = (packed + _bias(width, n)).to_bytes(n * width, "little")
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, n * width, width)]


# -- exact gcd: modular coprimality test, then subresultant PRS --------

def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic exact gcd over the rationals (float coefficients are read as the
    rationals they are): Polynomial.one() when a gcd mod P already proves
    them coprime, else the subresultant remainder sequence."""
    f, g = a.as_integer_ratio()[0], b.as_integer_ratio()[0]
    if not f or not g:
        return Polynomial.from_integer_ratio(f or g).monic()
    f, g = _primitive(f), _primitive(g)
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
    return Polynomial.from_integer_ratio(_primitive(g)).monic()


def _gcd_degree_mod_p(f, g):
    """Degree of gcd(f mod P, g mod P) by Euclid over GF(P); leading
    coefficients must be nonzero mod P.

    The residues are int64 arrays with entries in [0, P), so q g < P^2 <
    2^63 and each reduction row is one vectorised subtract and reduce.
    """
    import numpy as np

    f = np.array([c % _P for c in f], dtype=np.int64)
    g = np.array([c % _P for c in g], dtype=np.int64)
    while len(g):
        g = g * pow(g.item(-1), -1, _P) % _P  # monic
        dg = len(g) - 1
        n = len(f)
        while n > dg:  # one row: f -= f[n - 1] x^(n - 1 - dg) g, clearing f[n - 1]
            row = f[n - 1 - dg:n]
            row -= row.item(-1) * g
            row %= _P
            n -= 1
            while n and not f.item(n - 1):
                n -= 1
        f, g = g, f[:n]
    return len(f) - 1


def _int_prem(f, g):
    """Integer pseudo-remainder lc(g)^(df-dg+1) * f mod g, df >= dg (lists, low-to-high)."""
    df, dg = len(f) - 1, len(g) - 1
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
