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


def test_weyl_solution_initial_value_and_decay():
    pf = _catalan_pf(10)
    wd = spectral.weyl_solution(pf, 3.0, M3, 8)
    assert wd.W[0] == pytest.approx(M3)
    for j in range(5):
        assert wd.W[j + 1] / wd.W[j] == pytest.approx(GOLDEN_SMALL, rel=1e-6)
    assert wd.max_recurrence_residual <= 1e-10


def test_weyl_solution_wrong_m_grows():
    pf = _catalan_pf(12)
    wd = spectral.weyl_solution(pf, 3.0, 0.0, 12)
    growth = abs(wd.W[12]) / abs(wd.W[6])
    assert growth > ((3 + math.sqrt(5)) / 2) ** 5


def test_weyl_wronskian():
    pf = _catalan_pf(10)
    wd = spectral.weyl_solution(pf, 3.0, M3, 9)
    P, _ = polyrec.normalized_values(pf, 3.0, 9)
    for j in range(8):
        b = math.sqrt(float(pf[j].b_squared))
        pj, pj1 = P[j], P[j + 1]
        wron = pf[j].epsilon * b * (wd.W[j + 1] * pj - wd.W[j] * pj1)
        assert abs(wron - 1.0) <= 1e-10


def test_point_spectrum_probe():
    pf = _catalan_pf(30)
    assert spectral.point_spectrum_test(pf, 3.0, 30) == "divergent"
    assert spectral.point_spectrum_test(pf, 0.0, 30) == "bounded_so_far"
    with pytest.raises(OutOfRange):
        spectral.point_spectrum_test(pf, 3.0, 1)


def test_point_spectrum_example64_resolvent_point():
    pf = example64_pfraction(50)
    assert spectral.point_spectrum_test(pf, 1 + 1j, 30) == "divergent"


def test_certificate_catalan_resolvent():
    pf = _catalan_pf(40)
    cert = spectral.resolvent_certificate(pf, 3.0, M3, 40)
    assert cert.verdict == "certified_decay"
    assert 0.35 <= cert.q <= 0.42
    assert cert.limsup_root > 1.0
    data = json.loads(cert.to_json())
    assert data["lambda"] == [3.0, 0.0]
    assert data["verdict"] == "certified_decay"


def test_certificate_spectrum_point_not_certified():
    pf = _catalan_pf(40)
    m = gm.m_truncation(catalan_pfraction(61), 60, 0.5)
    cert = spectral.resolvent_certificate(pf, 0.5, m, 40)
    assert cert.verdict in ("violated", "inconclusive")
    # at lambda = 0 the backward sweep over 50 terms starts at L = 49 and
    # ends at u_0 = 0 exactly, so the direct Weyl values stand
    cert = spectral.resolvent_certificate(catalan_pfraction(50), 0.0, 1j, 40)
    assert cert.verdict in ("violated", "inconclusive")


def test_certificate_catalan_depth_120():
    # as `certify --depth 120` does: m from the depth-480 truncation; the
    # deep P_j reach 1e50, so they must keep their relative accuracy
    deep = catalan_pfraction(482)
    m = gm.m_truncation(deep, 480, 3.0)
    cert = spectral.resolvent_certificate(deep, 3.0, m, 120)
    assert cert.verdict == "certified_decay"
    assert 0.35 <= cert.q <= 0.42


def test_certificate_example64():
    pf = example64_pfraction(60)
    m = gm.m_truncation(pf, 55, 1 + 1j)
    cert = spectral.resolvent_certificate(pf, 1 + 1j, m, 40)
    assert cert.verdict == "certified_decay"
    assert cert.limsup_root > 1.0


def test_certificate_refuses_a_fraction_too_short():
    # the backward sweep starts 8 terms past J; with fewer the direct
    # Q_j + m P_j cancel at depth and read "violated" (C = 3.3e5)
    with pytest.raises(TruncationTooShallow,
                       match="need 49 terms, the fraction has 45"):
        spectral.resolvent_certificate(catalan_pfraction(45), 3.0, M3, 40)
    cert = spectral.resolvent_certificate(catalan_pfraction(49), 3.0, M3, 40)
    assert cert.verdict == "certified_decay"
    assert cert.q == pytest.approx(GOLDEN_SMALL)


def test_certificate_ignores_an_open_last_term():
    from gjacobi.pfraction import PFraction, PFractionTerm
    coupled = catalan_pfraction(17)
    last = coupled[16]
    open_ = PFraction(coupled.terms[:16] + (PFractionTerm(1, None, last.p),))
    want = spectral.resolvent_certificate(coupled, 3.0, M3, 4)
    assert want.C == 0.4458247200066036
    assert spectral.resolvent_certificate(open_, 3.0, M3, 4) == want


def test_certificate_violated_for_the_wrong_m():
    # m = 0 leaves W = Q, which grows at lambda = 3: the envelope fitted on
    # the early depths fails at every depth of the deep third
    cert = spectral.resolvent_certificate(catalan_pfraction(60), 3.0, 0.0, 40)
    assert cert.verdict == "violated"


CERTIFICATE_FIELDS = ("lam", "C", "q", "max_residual", "verdict", "limsup_root")


def _assert_matches_the_pair_loops(pf, lam, m, J):
    got = spectral.resolvent_certificate(pf, lam, m, J)
    want = certificate_loops(pf, lam, m, J)
    for field in CERTIFICATE_FIELDS:
        assert repr(getattr(got, field)) == repr(getattr(want, field)), (field, J, lam, m)
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
        if rng.random() < 0.8:
            try:
                m = gm.m_truncation(pf, len(pf) - 1, lam)
            except PoleAtLambda:
                continue
        else:
            m = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        verdicts.add(_assert_matches_the_pair_loops(pf, lam, m, J))
    assert verdicts == {"certified_decay", "inconclusive", "violated"}


def test_certificate_matches_the_pair_loops_at_depth_120():
    for pf, lam in ((catalan_pfraction(482), 3.0), (catalan_pfraction(482), 0.5),
                    (example64_pfraction(482), 1 + 1j)):
        m = gm.m_truncation(pf, 480, lam)
        _assert_matches_the_pair_loops(pf, lam, m, 120)
    # a NaN m-value (Horner overflows to inf - inf at |lambda| ~ 1e200)
    # makes every W_j NaN, and the pair loops' C NaN
    lam = complex(1e200, 1e200)
    m = gm.m_truncation(example64_pfraction(60), 59, lam)
    assert math.isnan(m.real)
    _assert_matches_the_pair_loops(example64_pfraction(60), lam, m, 40)


def test_resolvent_column_residuals():
    pf = catalan_pfraction(45)
    H = gm.assemble(pf)
    r00 = spectral.formal_resolvent_column(H, 3.0, M3, 0, 0, 24)
    assert r00.residual <= 1e-9
    r20 = spectral.formal_resolvent_column(H, 3.0, M3, 2, 0, 24)
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
    m = gm.m_truncation(pf, 45, 2 + 1j)
    rc = spectral.formal_resolvent_column(H, 2 + 1j, m, 0, 1, 32)
    assert rc.residual <= 1e-9


def test_resolvent_column_residual_shrinks_with_depth():
    pf = catalan_pfraction(40)
    H = gm.assemble(pf)
    res = [spectral.formal_resolvent_column(H, 3.0, M3, 1, 0, t).residual
           for t in (8, 16, 24)]
    assert res[0] > res[1] > res[2]


def test_resolvent_column_errors():
    pf = catalan_pfraction(10)
    H = gm.assemble(pf)
    with pytest.raises(BadIndex):
        spectral.formal_resolvent_column(H, 3.0, M3, 0, 5, 8)
    with pytest.raises(TruncationTooShallow):
        spectral.formal_resolvent_column(H, 3.0, M3, 7, 0, 8)
    with pytest.raises(TruncationTooShallow):
        spectral.formal_resolvent_column(H, 3.0, M3, 0, 0, 99)


def test_resolvent_column_refuses_a_fraction_too_short():
    # trunc 8 reads Weyl values through depth 7, which need 16 terms
    H = gm.assemble(catalan_pfraction(10))
    with pytest.raises(TruncationTooShallow, match="need 16 terms"):
        spectral.formal_resolvent_column(H, 3.0, M3, 0, 0, 8)
