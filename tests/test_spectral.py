import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from oracles import certificate_loops
from gjacobi import gjmatrix as gm
from gjacobi import polyrec, spectral
from gjacobi.errors import BadIndex, OutOfRange, PoleAtLambda, TruncationTooShallow

F = Fraction

GOLDEN_SMALL = (3 - math.sqrt(5)) / 2   # decaying multiplier at lambda = 3
M3 = (-3 + math.sqrt(5)) / 2            # closed-form Weyl value at lambda = 3


def _catalan_pf(depth):
    return catalan_pfraction(depth + 20)


def test_weyl_sweep_initial_value_and_decay():
    pf = _catalan_pf(10)
    m, W, residual = gm.weyl_sweep(pf.terms, 3.0, 8)
    assert W[0] == m == pytest.approx(M3, rel=1e-15)
    for j in range(8):
        assert W[j + 1] / W[j] == pytest.approx(GOLDEN_SMALL, rel=1e-12)
    assert residual <= 1e-14


def _wronskian_defect(pf, lam, J):
    """The largest |eps_j b_j (W_{j+1} P_j - W_j P_{j+1}) - 1| over j < J,
    relative to the larger of 1 and its two products."""
    _, W, _ = gm.weyl_sweep(pf.terms, lam, J)
    P, _ = polyrec.normalized_values(pf, lam, J)
    worst = 0.0
    for j in range(J):
        b = pf[j].b_float
        a1, a2 = b * W[j + 1] * P[j], b * W[j] * P[j + 1]
        worst = max(worst, abs(pf[j].epsilon * (a1 - a2) - 1) / max(1.0, abs(a1), abs(a2)))
    return worst


def test_weyl_wronskian():
    assert _wronskian_defect(_catalan_pf(10), 3.0, 9) <= 1e-14


def test_weyl_sweep_on_random_fractions():
    # W = Q + m P for the sweep's own m, so the Wronskian with P is 1 at any
    # lambda; the relative recurrence residual stays at rounding level
    rng = random.Random(22)
    for _ in range(40):
        pf = random_pfraction(rng, rng.randint(10, 60))
        J = rng.randint(1, len(pf) - 1)
        lam = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.1, 3))
        m, W, residual = gm.weyl_sweep(pf.terms, lam, J)
        assert W[0] == m and len(W) == J + 1
        assert residual <= 1e-14
        assert _wronskian_defect(pf, lam, J) <= 1e-12


def test_weyl_sweep_through_zero_denominators():
    # p(0) = 0 at every level of catalan: with the last index 49 odd, F is
    # infinite at the odd levels and 0 at the even ones, so m = 0 and each
    # odd W_j is one forward step from W_{j-2}
    m, W, residual = gm.weyl_sweep(catalan_pfraction(50).terms, 0.0, 40)
    assert m == 0
    assert W == [(0, 1, 0, -1)[j % 4] for j in range(41)]
    assert residual == 0
    # with the last index 50 even, 0 is an eigenvalue of the truncation
    with pytest.raises(PoleAtLambda):
        gm.weyl_sweep(catalan_pfraction(51).terms, 0.0, 40)
    with pytest.raises(OutOfRange):
        gm.weyl_sweep(catalan_pfraction(5).terms, 3.0, 5)


def test_point_spectrum_probe():
    # the growth of P, which point_spectrum_test used to probe, is the
    # certificate's limsup |P_j|^{1/n_j} over the deep third
    pf = _catalan_pf(30)
    assert spectral.resolvent_certificate(pf, 3.0, 30).limsup_root > 1.0 + 1e-9
    assert spectral.resolvent_certificate(pf, 0.0, 30).limsup_root <= 1.0 + 1e-9
    with pytest.raises(OutOfRange):
        spectral.resolvent_certificate(pf, 3.0, 1)


def test_point_spectrum_example64_resolvent_point():
    pf = example64_pfraction(50)
    assert spectral.resolvent_certificate(pf, 1 + 1j, 30).limsup_root > 1.0 + 1e-9


def test_certificate_catalan_resolvent():
    pf = _catalan_pf(40)
    cert = spectral.resolvent_certificate(pf, 3.0, 40)
    assert cert.verdict == "certified_decay"
    assert 0.35 <= cert.q <= 0.42
    assert cert.limsup_root > 1.0
    data = json.loads(cert.to_json())
    assert data["lambda"] == [3.0, 0.0]
    assert data["verdict"] == "certified_decay"


def test_certificate_spectrum_point_not_certified():
    pf = _catalan_pf(40)
    cert = spectral.resolvent_certificate(pf, 0.5, 40)
    assert cert.verdict in ("violated", "inconclusive")
    # at lambda = 0 the sweep over 50 terms passes its zero denominators
    # (W = 0, 1, 0, -1, ...), and P = 1, 0, -1, 0, ... does not grow
    cert = spectral.resolvent_certificate(catalan_pfraction(50), 0.0, 40)
    assert cert.verdict == "violated"
    assert cert.limsup_root <= 1.0 + 1e-9


def test_certificate_catalan_depth_120():
    # as `certify --depth 120` does: the sweep over the depth-480
    # truncation; the deep P_j reach 1e50, so they must keep their relative
    # accuracy
    cert = spectral.resolvent_certificate(catalan_pfraction(481), 3.0, 120)
    assert cert.verdict == "certified_decay"
    assert 0.35 <= cert.q <= 0.42


def test_certificate_example64():
    cert = spectral.resolvent_certificate(example64_pfraction(60), 1 + 1j, 40)
    assert cert.verdict == "certified_decay"
    assert cert.limsup_root > 1.0


def test_certificate_refuses_a_fraction_too_short():
    # the backward sweep must start at least 8 terms past J
    with pytest.raises(TruncationTooShallow,
                       match="need 49 terms, the fraction has 45"):
        spectral.resolvent_certificate(catalan_pfraction(45), 3.0, 40)
    cert = spectral.resolvent_certificate(catalan_pfraction(49), 3.0, 40)
    assert cert.verdict == "certified_decay"
    assert cert.q == pytest.approx(GOLDEN_SMALL)


def test_certificate_ignores_an_open_last_term():
    from gjacobi.pfraction import PFraction, PFractionTerm
    coupled = catalan_pfraction(17)
    last = coupled[16]
    open_ = PFraction(coupled.terms[:16] + (PFractionTerm(1, None, last.p),))
    want = spectral.resolvent_certificate(coupled, 3.0, 4)
    assert want.C == 0.4458247200066014
    assert spectral.resolvent_certificate(open_, 3.0, 4) == want


CERTIFICATE_FIELDS = ("lam", "C", "q", "max_residual", "verdict", "limsup_root")


def _assert_matches_the_pair_loops(pf, lam, J):
    got = spectral.resolvent_certificate(pf, lam, J)
    want = certificate_loops(pf, lam, J)
    for field in CERTIFICATE_FIELDS:
        assert repr(getattr(got, field)) == repr(getattr(want, field)), (field, J, lam)
    return got.verdict


@pytest.mark.parametrize("seed, pair_block", [(1, None), (2, 7)])
def test_certificate_matches_the_pair_loops(seed, pair_block, monkeypatch):
    # every field to the bit, on random fractions at depths 4-40; |lambda|
    # up to 1e60 makes P overflow to inf and |P_i||W_j| to inf and NaN, and
    # a PAIR_BLOCK of 7 splits the pairs into many blocks
    if pair_block is not None:
        monkeypatch.setattr(spectral, "PAIR_BLOCK", pair_block)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(150):
        J = rng.randint(4, 40)
        pf = random_pfraction(rng, J + rng.randint(9, 16))
        scale = rng.choice([0.5, 2.0, 4.0, 1e3, 1e60])
        lam = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        try:
            verdicts.add(_assert_matches_the_pair_loops(pf, lam, J))
        except PoleAtLambda:
            continue
    assert verdicts == {"certified_decay", "inconclusive", "violated"}


def test_certificate_matches_the_pair_loops_at_depth_120():
    for pf, lam in ((catalan_pfraction(481), 3.0), (catalan_pfraction(481), 0.5),
                    (example64_pfraction(481), 1 + 1j)):
        _assert_matches_the_pair_loops(pf, lam, 120)
    # a NaN m-value (Horner overflows to inf - inf at |lambda| ~ 1e200)
    # makes every W_j NaN, and the pair loops' C NaN
    lam = complex(1e200, 1e200)
    m = gm.m_truncation(example64_pfraction(60), 59, lam)
    assert math.isnan(m.real)
    _assert_matches_the_pair_loops(example64_pfraction(60), lam, 40)


def test_resolvent_column_residuals():
    pf = catalan_pfraction(45)
    H = gm.assemble(pf)
    r00 = spectral.formal_resolvent_column(H, 3.0, 0, 0, 24)
    assert r00.residual <= 1e-9
    r20 = spectral.formal_resolvent_column(H, 3.0, 2, 0, 24)
    assert r20.residual <= 1e-9
    # x(0,0) = xi + m pi reduces to the plain Weyl coordinates in block 0
    assert r00.x[0] == pytest.approx(M3)


def test_resolvent_column_composite_block():
    from gjacobi.pfraction import PFraction, PFractionTerm
    from gjacobi.poly import Polynomial
    x = Polynomial.x()
    terms = (PFractionTerm(1, F(1), x * x),) + tuple(
        PFractionTerm(1, F(1), x) for _ in range(49))
    pf = PFraction(terms)
    H = gm.assemble(pf)
    rc = spectral.formal_resolvent_column(H, 2 + 1j, 0, 1, 32)
    assert rc.residual <= 1e-9


def test_resolvent_column_residual_shrinks_with_depth():
    pf = catalan_pfraction(40)
    H = gm.assemble(pf)
    res = [spectral.formal_resolvent_column(H, 3.0, 1, 0, t).residual
           for t in (8, 16, 24)]
    assert res[0] > res[1] > res[2]


def test_resolvent_column_deep_index():
    # block i < j holds P_i W_j, the product of a value that grows with i and
    # one that decays with j: any cancellation between terms of that size
    # shows in the residual at these depths
    rng = random.Random(5)
    cases = [(catalan_pfraction(200), 3.0), (catalan_pfraction(200), 2.5),
             (example64_pfraction(200), 1 + 1j)]
    for _ in range(3):
        pf = random_pfraction(rng, 200)
        cases.append((pf, complex(rng.uniform(-2, 2), rng.uniform(0.5, 3))))
    for pf, lam in cases:
        H = gm.assemble(pf)
        for j, trunc in ((20, 60), (60, 120), (100, 160)):
            rc = spectral.formal_resolvent_column(H, lam, j, 0, trunc)
            assert rc.residual <= 1e-12, (lam, j, trunc, rc.residual)


def test_resolvent_column_errors():
    pf = catalan_pfraction(10)
    H = gm.assemble(pf)
    with pytest.raises(BadIndex):
        spectral.formal_resolvent_column(H, 3.0, 0, 5, 8)
    with pytest.raises(TruncationTooShallow):
        spectral.formal_resolvent_column(H, 3.0, 7, 0, 8)
    with pytest.raises(TruncationTooShallow):
        spectral.formal_resolvent_column(H, 3.0, 0, 0, 99)


def test_resolvent_column_refuses_a_fraction_too_short():
    # trunc 8 reads Weyl values through depth 7, which need 16 terms
    H = gm.assemble(catalan_pfraction(10))
    with pytest.raises(TruncationTooShallow, match="need 16 terms"):
        spectral.formal_resolvent_column(H, 3.0, 0, 0, 8)
