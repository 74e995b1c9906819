"""Reference routines the tests compare the program against.

Plain coefficient-list arithmetic over Fractions (or floats), written for
clarity: long division of series, where the program iterates integer
matrices and integer remainder pairs, and the schoolbook product, where the
program packs long integer operands into one big-integer multiply.  The
spectrum CSV is written one cell at a time, where the program formats each
distinct value of a column once.  The resolvent certificate loops over the
pairs (i, j) in Python, where the program works on numpy blocks of them.
The Liouville-Ostrogradsky residual is built from Polynomial products, where
the program evaluates it as one packed integer, and so is every step of the
recurrence, where the program runs exact steps on integer numerators.  The
gcd degree mod P runs Euclid on lists of Python integers, where the program
reduces numpy int64 rows.
"""

from fractions import Fraction
from itertools import accumulate

from gjacobi.errors import AllZero, InsufficientMoments
from gjacobi.gjmatrix import weyl_sweep
from gjacobi.moments import normalize
from gjacobi.periodic import LABELS
from gjacobi.pfraction import PFraction, PFractionTerm
from gjacobi import poly
from gjacobi.poly import Polynomial
from gjacobi.polyrec import OrthoSequences, generate, normalized_values
from gjacobi.spectral import CERTIFIED, INCONCLUSIVE, VIOLATED, Certificate


def series_div(num, den, n):
    """First n coefficients of num/den by long division; needs den[0] != 0.

    y_k = -(den_1 y_{k-1} + ... + den_k y_0 - num_k) / den_0.
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

    num and den are Polynomials with deg num < deg den.  With z = 1/lambda
    this is the power series of the reversed coefficients,
    z^(n-1) num(1/z) / z^n den(1/z).
    """
    n = den.degree
    if num.degree >= n:
        raise ValueError("series at infinity needs deg num < deg den")
    nz = [0] * (n - 1 - num.degree) + list(reversed(num.coeffs))
    return series_div(nz, den.coeffs[::-1], count)


def schoolbook(a, b):
    """Schoolbook product of two coefficient sequences: the reference
    convolution, exact on integers and Fractions, and for floats the
    summation order poly._mul keeps."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def fraction_expand_step(num, den):
    """One expansion step on a tail that is exactly the series num/den,
    in Fraction arithmetic (exact data only): the polynomial part of
    -1/tail by series division, the remainder rescaled to a normalized tail.
    """
    i0 = next((i for i, c in enumerate(num) if c), None)
    if i0 is None:
        raise AllZero("tail is identically zero")
    k = i0 + 1
    depth = len(num)
    if depth < 2 * k:
        raise InsufficientMoments(f"block degree {k} needs depth {2 * k}, have {depth}")
    eps = 1 if num[i0] / den[0] > 0 else -1
    a = num[i0:]
    v = series_div(den[:k + 1], a, k + 1)
    p = Polynomial([v[k - m] / v[0] for m in range(k + 1)])
    va = schoolbook(v, a)
    d = list(den[k + 1:depth - k + 1])
    d += [0] * (depth - 2 * k - len(d))
    r = [dj - va[j] for j, dj in enumerate(d, k + 1)]
    nz = next((j for j, c in enumerate(r) if c), None)
    if nz is None:
        return PFractionTerm(eps, None, p), ((tuple(-c for c in r), a[:len(r)]) if r else None)
    b2 = abs(r[nz] / a[0])
    next_num = (0,) * nz + tuple(-c / b2 for c in r[nz:])
    return PFractionTerm(eps, b2, p), (next_num, a[:len(r)])


def fraction_expand(s, max_terms):
    """The expansion loop of `expand` on fraction_expand_step, without its
    degree cap."""
    tail = normalize(s)
    i0 = tail.first_nonzero()
    pair = ((0,) * i0 + tail.coeffs[i0:], (1,))
    terms, status = [], "open"
    while len(terms) < max_terms:
        num = pair[0]
        k = next(i for i, c in enumerate(num) if c) + 1
        if len(num) < 2 * k:
            status = "exhausted"
            break
        term, pair = fraction_expand_step(*pair)
        terms.append(term)
        if term.b_squared is None:
            rem_depth = 0 if pair is None else len(pair[0])
            status = "terminated" if rem_depth >= 2 else "exhausted"
            break
    return PFraction(tuple(terms), status=status)


def laurent_moments(pf, count):
    """Laurent coefficients of Qhat_J/Phat_J, J = len(pf), by series division
    of the recurrence polynomials, as Fractions."""
    J = len(pf)
    seqs = generate(pf, J)
    return tuple(Fraction(c) for c in laurent_coeffs(seqs.Qhat[J], seqs.Phat[J], count))


def scan_csv(sc):
    """SpectrumScan.to_csv cell by cell: one repr per float of every row."""
    lines = ["re,im,label,trace_re,trace_im,w1_abs,w2_abs"]
    for r in range(sc.ny):
        for c in range(sc.nx):
            z = sc.points[r, c]
            t = sc.trace_values[r, c]
            lines.append(
                f"{float(z.real)!r},{float(z.imag)!r},{LABELS[sc.labels[r, c]]},"
                f"{float(t.real)!r},{float(t.imag)!r},"
                f"{float(sc.w1_abs[r, c])!r},{float(sc.w2_abs[r, c])!r}"
            )
    return "\n".join(lines) + "\n"


def certificate_loops(pf, lam, J):
    """spectral.resolvent_certificate pair by pair: the O(J^2) loops over
    i <= j that fit C and q on the depths up to 2J/3 and test the envelope
    on the rest, with W from the backward sweep over every term of pf."""
    lam = complex(lam)
    P, _ = normalized_values(pf, lam, J)
    _, W, _ = weyl_sweep(pf.terms, lam, J)
    n = list(accumulate((t.degree for t in pf.terms[:J]), initial=0))
    fit_hi = max(2, (2 * J) // 3)
    C = max(abs(P[i]) * abs(W[j])
            for j in range(fit_hi + 1) for i in range(j + 1))
    C = max(C, 1e-300)
    q = 0.0
    for j in range(fit_hi + 1):
        for i in range(j):
            t = abs(P[i]) * abs(W[j])
            gap = n[j] - n[i]
            if t > 0 and gap > 0:
                q = max(q, (t / C) ** (1.0 / gap))
    max_res = 0.0
    fails = []
    for j in range(fit_hi + 1, J + 1):
        bad = False
        for i in range(j + 1):
            t = abs(P[i]) * abs(W[j])
            bound = C * q ** (n[j] - n[i]) if q > 0 else (C if i == j else 0.0)
            max_res = max(max_res, t - bound)
            if t > bound * (1.0 + 1e-6) + 1e-300:
                bad = True
        fails.append(bad)
    tail = [j for j in range(J + 1) if j >= (2 * J) // 3 and abs(P[j]) > 0 and n[j] > 0]
    limsup = max((abs(P[j]) ** (1.0 / n[j]) for j in tail), default=0.0)
    if q >= 1.0 or (fails and all(fails)):
        verdict = VIOLATED
    elif not any(fails) and limsup > 1.0 + 1e-9 and q ** max(n[J], 1) <= 1e-2:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return Certificate(lam=lam, C=C, q=q, max_residual=max_res,
                       verdict=verdict, limsup_root=limsup)


def lo_residual_products(seqs, j):
    """polyrec.lo_polynomial_residual as Polynomial products and
    differences: eps_j (Qhat_{j+1} Phat_j - Qhat_j Phat_{j+1}) - prod_{i<j} b_i^2."""
    eps = seqs.source[j].epsilon
    wron = seqs.Qhat[j + 1] * seqs.Phat[j] - seqs.Qhat[j] * seqs.Phat[j + 1]
    return eps * wron - Polynomial((seqs.b2_products[j],))


def generate_products(pf, j_max):
    """polyrec.generate with every step the Polynomial expression
    p_j uhat_j - eps_{j-1} eps_j b_{j-1}^2 uhat_{j-1}."""
    Phat = [Polynomial.one(), pf[0].p]
    Qhat = [Polynomial.zero(), Polynomial((pf[0].epsilon,))]
    prods = [1, pf[0].b_squared]
    for j in range(1, j_max):
        prev, cur = pf[j - 1], pf[j]
        c = prev.epsilon * cur.epsilon * prev.b_squared
        Phat.append(cur.p * Phat[j] - c * Phat[j - 1])
        Qhat.append(cur.p * Qhat[j] - c * Qhat[j - 1])
        b2 = cur.b_squared
        prods.append(None if b2 is None else prods[j] * b2)
    return OrthoSequences(tuple(Phat), tuple(Qhat), tuple(prods), pf)


def gcd_degree_mod_p(f, g):
    """poly._gcd_degree_mod_p by Euclid over GF(P), P = poly._P, on lists of
    Python integers; leading coefficients must be nonzero mod P."""
    P = poly._P
    f = [c % P for c in f]
    g = [c % P for c in g]
    while g:
        inv = pow(g[-1], -1, P)
        g = [c * inv % P for c in g]  # monic
        dg = len(g) - 1
        while len(f) > dg:
            q, s = f.pop(), len(f) - dg
            for k in range(dg):
                f[s + k] = (f[s + k] - q * g[k]) % P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1
