"""Truncated power series helpers (coefficient lists, low-to-high).

Used for Laurent expansions at infinity after the substitution z = 1/lambda.
All routines work over any coefficient field (Fraction or float/complex).
"""

from __future__ import annotations


def series_mul(a, b, n):
    """First n coefficients of the product of two truncated series."""
    out = [0] * n
    for i, ca in enumerate(a[:n]):
        if not ca:
            continue
        for j, cb in enumerate(b[: n - i]):
            out[i + j] += ca * cb
    return out


def series_inv(c, n):
    """First n coefficients of 1/c by long division; needs c[0] != 0.

    y_k = -(c_1 y_{k-1} + ... + c_k y_0) / c_0, O(n^2) in all.
    """
    if not c or not c[0]:
        raise ZeroDivisionError("series has no reciprocal: constant term is zero")
    inv0 = 1 / c[0]
    y = [inv0]
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(c) - 1) + 1):
            if c[i]:
                acc += c[i] * y[k - i]
        y.append(-acc * inv0)
    return y[:n]


def laurent_coeffs(num, den, count):
    """Coefficients c_i of num/den = sum c_i lambda^{-(i+1)} at infinity.

    num and den are Polynomials with deg num < deg den; exact over
    Fractions, works for floats too.
    """
    n = den.degree
    if num.degree >= n:
        raise ValueError("series at infinity needs deg num < deg den")
    lc = den.coeffs[-1]
    dz = [den.coeffs[n - i] / lc for i in range(n + 1)]       # reversed, monic in z
    nz = [0] * n
    for m, c in enumerate(num.coeffs):
        nz[n - 1 - m] = c / lc
    return series_mul(nz, series_inv(dz, count), count)
