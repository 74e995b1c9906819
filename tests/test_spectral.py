import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalan_pfraction, example64_pfraction, random_pfraction
from gjacobi import gjmatrix as gm
from gjacobi import polyrec, spectral
from gjacobi.errors import BadIndex, OutOfRange, TruncationTooShallow

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
    pf = PFraction(terms, degree_cap=2)
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
