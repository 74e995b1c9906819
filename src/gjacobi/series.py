"""Truncated power series helpers (coefficient lists, low-to-high).

Used for Laurent expansions at infinity after the substitution z = 1/lambda.
All routines work over any coefficient field (Fraction or float/complex).
Callers: `series_div` gives the k+1 leading coefficients of an expansion
step (`pfraction.expand_step`) and a companion block's E^-1
(`gjmatrix.companion`); `laurent_coeffs` gives the moments of a P-fraction
(`pfraction.to_moments`).
"""

from __future__ import annotations


def series_div(num, den, n):
    """First n coefficients of num/den by long division; needs den[0] != 0.

    y_k = -(den_1 y_{k-1} + ... + den_k y_0 - num_k) / den_0, O(n^2) in all.
    """
    if not den or not den[0]:
        raise ZeroDivisionError("series has no quotient: constant term of den is zero")
    inv0 = 1 / den[0]
    y = []
    for k in range(n):
        acc = 0
        for i in range(1, min(k, len(den) - 1) + 1):
            if den[i]:
                acc += den[i] * y[k - i]
        if k < len(num) and num[k]:
            acc -= num[k]
        y.append(-acc * inv0)
    return y


def laurent_coeffs(num, den, count):
    """Coefficients c_i of num/den = sum c_i lambda^{-(i+1)} at infinity.

    num and den are Polynomials with deg num < deg den; exact over
    Fractions, works for floats too.  With z = 1/lambda this is the power
    series of the reversed coefficients, z^(n-1) num(1/z) / z^n den(1/z).
    """
    n = den.degree
    if num.degree >= n:
        raise ValueError("series at infinity needs deg num < deg den")
    nz = [0] * (n - 1 - num.degree) + list(reversed(num.coeffs))
    return series_div(nz, den.coeffs[::-1], count)
