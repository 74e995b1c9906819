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
