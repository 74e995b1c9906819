"""End-to-end acceptance checks for the whole pipeline.

Each test covers one advertised guarantee and prints a single PASS/FAIL line
(run with -s to see them on success).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from oracles import laurent_moments
from test_pade import _hankel_pade_oracle
from gjacobi import gjmatrix as gm
from gjacobi import pade, periodic, polyrec, spectral
from gjacobi.moments import MomentSequence
from gjacobi.pfraction import PFraction, PFractionTerm, expand, to_moments
from gjacobi.poly import Polynomial, poly_gcd

F = Fraction
x = Polynomial.x()

M3 = (-3 + math.sqrt(5)) / 2


def _verdict(num, desc, ok):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_1_periodic_spectrum_scan():
    # 1-periodic block p = lambda^2, b = 1/2: spectrum [-1,1] U [-i,i],
    # empty point spectrum, resolved on a 400x400 grid in under 10 s
    t0 = time.perf_counter()
    pg = periodic.PeriodicGJM((PFractionTerm(1, F(1, 4), x * x),))
    sc = periodic.scan(pg, (-2, 2, -2, 2), 400, 400, 1e-3)
    elapsed = time.perf_counter() - t0

    def dist_to_target(z):
        d_real = math.hypot(max(abs(z.real) - 1.0, 0.0), abs(z.imag))
        d_imag = math.hypot(abs(z.real), max(abs(z.imag) - 1.0, 0.0))
        return min(d_real, d_imag)

    e_points = sc.points[sc.labels == periodic.CODE_E]
    forward = max(dist_to_target(z) for z in e_points)
    targets = ([complex(v, 0) for v in np.linspace(-1, 1, 201)]
               + [complex(0, v) for v in np.linspace(-1, 1, 201)])
    reverse = max(min(abs(z - w) for w in e_points) for z in targets)
    _verdict(1, "periodic spectrum scan",
             forward <= 0.02 and reverse <= 0.02
             and len(sc.ep_points) == 0 and elapsed < 10.0)


def test_criterion_2_wronskian_identity():
    # eps_j (Qhat_{j+1} Phat_j - Qhat_j Phat_{j+1}) = prod b_i^2 exactly,
    # and the normalized float form stays within 1e-10 of 1
    rng = random.Random(2024)
    ok = True
    for _ in range(50):
        pf = random_pfraction(rng, 21)
        seqs = polyrec.generate(pf, 21)
        ok = ok and all(polyrec.lo_polynomial_residual(seqs, j).is_zero
                        for j in range(21))
        for _ in range(10):
            r = rng.uniform(0, 4)
            phi = rng.uniform(0, 2 * math.pi)
            lam = complex(r * math.cos(phi), r * math.sin(phi))
            ok = ok and polyrec.lo_defect(seqs, 20, lam) <= 1e-10
        if not ok:
            break
    _verdict(2, "Wronskian identity exact and float", ok)


def test_criterion_3_charpoly_oracle():
    # characteristic polynomials of leading/shifted truncations reproduce the
    # recurrence polynomials exactly, in under 5 s
    t0 = time.perf_counter()
    rng = random.Random(33)
    ok = True
    for _ in range(25):
        pf = random_pfraction(rng, 9)
        H = gm.assemble(pf)
        seqs = polyrec.generate(pf, 9)
        eps0 = pf[0].epsilon
        for j in range(9):
            ok = ok and gm.truncation_charpoly(H, 0, j) == seqs.Phat[j + 1]
            if j >= 1:
                ok = ok and (gm.truncation_charpoly(H, 1, j)
                             == eps0 * seqs.Qhat[j + 1])
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _verdict(3, "truncation charpoly oracle", ok and elapsed < 5.0)


def test_criterion_4_pade_matching():
    # every diagonal approximant matches the moment series through index
    # 2 n_j - 2 + k_j at least, and agrees with an independent Hankel solver
    rng = random.Random(44)
    ok = True
    cases = [random_pfraction(rng, 11, max_degree=2) for _ in range(3)]
    cases.append(catalan_pfraction(11))
    for pf in cases:
        seqs = polyrec.generate(pf, 10)
        n10 = pf.normal_index(10)
        k10 = pf[10].degree if len(pf) > 10 else pf[9].degree
        s = to_moments(pf, 2 * n10 + k10 + 2)
        for j in range(1, 11):
            appr = pade.diagonal(seqs, j)
            ok = ok and pade.match_order(appr, s) >= 2 * appr.order - 2 + appr.block_size
            oracle = _hankel_pade_oracle(list(s.coeffs), appr.order)
            ok = ok and oracle is not None
            if oracle:
                num_o, den_o = oracle
                ok = ok and den_o == appr.denominator and num_o == appr.numerator
        if not ok:
            break
    _verdict(4, "Pade moment matching with Hankel oracle", ok)


def test_criterion_5_convergence_rate():
    # geometric convergence of the convergents to the closed-form function at
    # lambda = 3, with the documented [2/2] error
    pf = catalan_pfraction(14)
    seqs = polyrec.generate(pf, 13)
    ref = lambda lam: (-lam + np.sqrt(complex(lam) ** 2 - 4)) / 2
    tab = pade.convergence_run(pf, 3.0, list(range(4, 13)), ref)
    ratio_ok = tab.ratio is not None and 0.12 <= tab.ratio <= 0.18
    appr2 = pade.diagonal(seqs, 2)
    err22 = abs(complex(appr2(3.0)) - M3)
    _verdict(5, "convergence rate at lambda=3",
             ratio_ok and abs(err22 - 0.00697) <= 1e-4)


def test_criterion_6_resolvent_certificates():
    pf = catalan_pfraction(60)
    c_res = spectral.resolvent_certificate(pf, 3.0, 40)
    c_spec = spectral.resolvent_certificate(pf, 0.5, 40)
    pf64 = example64_pfraction(60)
    c_64 = spectral.resolvent_certificate(pf64, 1 + 1j, 40)
    _verdict(6, "resolvent certificates",
             c_res.verdict == "certified_decay" and 0.35 <= c_res.q <= 0.42
             and c_spec.verdict != "certified_decay"
             and c_64.verdict == "certified_decay")


def test_criterion_7_round_trips():
    # moments -> expansion -> matrix -> moments is the identity on the
    # certified range, and expansion inverts series reconstruction termwise;
    # to_moments and the matrix share one iteration, so the moments are
    # checked against the Laurent series of generate's Qhat_J/Phat_J
    rng = random.Random(77)
    ok = True
    for _ in range(25):
        pf = random_pfraction(rng, 4, last_open=True)
        n_last = pf.normal_index(len(pf))
        s = to_moments(pf, 2 * n_last + 2)
        ok = ok and s.coeffs == laurent_moments(pf, 2 * n_last + 2)
        pf2 = expand(s, len(pf) + 2, 3)
        ok = ok and pf2.terms == pf.terms
        H = gm.assemble(pf2)
        count = s.certified_up_to if s.certified_up_to is not None else len(s.coeffs)
        count = min(count, 2 * H.dim(H.n_blocks))
        got = gm.moments_from_matrix(H, H.gram(), count)
        ok = ok and got.coeffs == s.coeffs[:len(got.coeffs)]
        if not ok:
            break
    _verdict(7, "round trips in both directions", ok)


def test_criterion_8_structural_identities():
    rng = random.Random(88)
    ok = True
    # companion symmetrizer identity, exact, for degrees up to 8
    for k in range(1, 9):
        p = Polynomial([F(rng.randint(-4, 4), rng.choice([1, 2]))
                        for _ in range(k)] + [F(1)])
        blk = gm.companion(p)
        C = np.array(blk.C, dtype=object)
        E = np.array(blk.E, dtype=object)
        ok = ok and (C @ E == E @ C.T).all()
    # unimodular monodromy and pairwise coprimality
    for _ in range(10):
        pf = random_pfraction(rng, 6)
        (a, b), (c, d) = periodic.PeriodicGJM(pf.terms).T
        defect = max((abs(complex(v))
                      for v in (a * d - b * c - Polynomial.one()).coeffs), default=0.0)
        ok = ok and defect <= 1e-8
        seqs = polyrec.generate(pf, 6)
        ok = ok and all(polyrec.coprimality_check(seqs, j).all_coprime
                        for j in range(1, 6))
        if not ok:
            break
    _verdict(8, "structural identities", ok)


def test_criterion_9_numerical_range():
    H = gm.assemble(catalan_pfraction(12))
    nr10 = gm.numerical_range_bound(H, 10, 64)
    support_ok = nr10.support_at(0.0) <= 2 * math.cos(math.pi / 11) + 1e-6
    monotone_ok = all(
        gm.numerical_range_bound(H, n, 64).contains(
            gm.numerical_range_bound(H, n - 1, 64), tol=1e-9)
        for n in range(3, 11))
    _verdict(9, "numerical range bound", support_ok and monotone_ok)
