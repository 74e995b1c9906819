import dataclasses
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import catalan_pfraction, random_pfraction
from oracles import scan_csv
from gjacobi import periodic, polyrec
from gjacobi.errors import BadRange, EmptyPFraction, OpenCoupling
from gjacobi.pfraction import PFractionTerm
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def _catalan_period():
    return periodic.PeriodicGJM((PFractionTerm(1, F(1), x),))


def _chebyshev_squared_period():
    # single block of degree 2 with quarter coupling: spectrum is a real
    # segment union an imaginary segment, no eigenvalues
    return periodic.PeriodicGJM((PFractionTerm(1, F(1, 4), x * x),))


def _eigenvalue_period():
    # period two with mismatched couplings; the transfer matrix at 0 favors
    # the decaying column, producing the eigenvalue E_p = {0}
    return periodic.PeriodicGJM((PFractionTerm(1, F(1, 4), x),
                                 PFractionTerm(1, F(1), x)))


def test_periodic_validation():
    with pytest.raises(EmptyPFraction):
        periodic.PeriodicGJM(())
    with pytest.raises(OpenCoupling):
        periodic.PeriodicGJM((PFractionTerm(1, None, x),))
    pg = _eigenvalue_period()
    assert pg.period == 2
    unrolled = pg.unroll(5)
    assert len(unrolled) == 5
    assert unrolled[2].b_squared == F(1, 4)
    assert unrolled[3].b_squared == F(1)


def test_equality_and_repr_are_those_of_the_period_data():
    pg = _eigenvalue_period()
    assert pg == _eigenvalue_period() and hash(pg) == hash(_eigenvalue_period())
    assert pg != _catalan_period()
    assert repr(pg) == f"PeriodicGJM(terms={pg.terms!r})"

def test_monodromy_catalan():
    pg = _catalan_period()
    (a, b), (c, d) = pg.T
    assert a == Polynomial.zero() and b == Polynomial((-1,))
    assert c == Polynomial.one() and d == x
    assert pg.trace == x
    assert pg.period == 1


def test_monodromy_degree_two_block():
    pg = _chebyshev_squared_period()
    v11, v12, v21, v22 = pg.entry_values(1.0)
    assert v11 == pytest.approx(0.0)
    assert v12 == pytest.approx(-2.0)
    assert v21 == pytest.approx(0.5)
    assert v22 == pytest.approx(2.0)
    assert complex(pg.trace(1.0)) == pytest.approx(2.0)
    assert complex(pg.trace(0.5j)) == pytest.approx(-0.5)


def test_monodromy_trace_identity(rng):
    # trace T = P_s - eps_{s-1} b_{s-1} Q_{s-1} for the unrolled fraction
    pg = _eigenvalue_period()
    pf = pg.unroll(4)
    s = pg.period
    b = math.sqrt(float(pf[s - 1].b_squared))
    eps = pf[s - 1].epsilon
    for _ in range(6):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        P, Q = polyrec.normalized_values(pf, lam, s)
        ps, qs1 = P[s], Q[s - 1]
        want = ps - eps * b * qs1
        assert complex(pg.trace(lam)) == pytest.approx(want, rel=1e-10)


def test_transfer_matrix_entries_match_polynomials():
    pf = catalan_pfraction(5)
    for j in range(3):
        pg = periodic.PeriodicGJM(pf.terms[:j + 1])
        (w11, w12), (w21, w22) = pg.T
        b = math.sqrt(float(pf[j].b_squared))
        lam = 1.7
        P, Q = polyrec.normalized_values(pf, lam, j + 1)
        pj, qj, pj1, qj1 = P[j], Q[j], P[j + 1], Q[j + 1]
        assert w11(lam) == pytest.approx(-pf[j].epsilon * b * qj.real)
        assert w12(lam) == pytest.approx(-qj1.real)
        assert w21(lam) == pytest.approx(pf[j].epsilon * b * pj.real)
        assert w22(lam) == pytest.approx(pj1.real)


def test_monodromy_is_the_normalized_pair_with_unit_determinant():
    # Random(9) draws a period of 8 terms whose entries have coefficients
    # up to 4e4, so rounding shows most there
    rng = random.Random(9)
    pfs = [random_pfraction(rng, rng.randint(1, 8), 3)]
    rng = random.Random(10)
    pfs += [random_pfraction(rng, rng.randint(1, 8), 3) for _ in range(30)]
    assert len(pfs[0]) == 8
    for pf in pfs:
        s = len(pf)
        pg = periodic.PeriodicGJM(pf.terms)
        eps = pf[s - 1].epsilon
        b = math.sqrt(float(pf[s - 1].b_squared))
        for _ in range(3):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            P, Q = polyrec.normalized_values(pf, lam, s)
            v11, v12, v21, v22 = pg.entry_values(lam)
            assert v11 == pytest.approx(-eps * b * Q[s - 1], rel=1e-10)
            assert v12 == pytest.approx(-Q[s], rel=1e-10)
            assert v21 == pytest.approx(eps * b * P[s - 1], rel=1e-10)
            assert v22 == pytest.approx(P[s], rel=1e-10)
            size = max(1.0, abs(v11), abs(v12), abs(v21), abs(v22))
            assert abs(v11 * v22 - v12 * v21 - 1.0) <= 1e-12 * size ** 2


def test_multipliers_product_and_sum(rng):
    pg = _chebyshev_squared_period()
    for _ in range(8):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w1, w2 = periodic.multipliers(pg, lam)
        t = complex(pg.trace(lam))
        assert abs(w1 * w2 - 1.0) <= 1e-12
        assert abs(w1 + w2 - t) <= 1e-10 * max(1.0, abs(t))
        assert abs(w1) >= abs(w2) - 1e-12


def test_multipliers_match_scan_moduli():
    pg = _eigenvalue_period()
    sc = periodic.scan(pg, (-3, 3, -3, 3), 7, 7, 1e-3)
    for r in range(7):
        for c in range(7):
            w1, w2 = periodic.multipliers(pg, sc.points[r, c])
            assert abs(w1) == pytest.approx(sc.w1_abs[r, c], rel=1e-12)
            assert abs(w2) == pytest.approx(sc.w2_abs[r, c], rel=1e-12)


def test_classify_examples():
    pg = _chebyshev_squared_period()
    # trace 2 lambda^2: real segment and imaginary segment, nothing else
    assert periodic.classify(pg, 0.5, 1e-6) == "E"
    assert periodic.classify(pg, 0.5j, 1e-6) == "E"
    assert periodic.classify(pg, 1 + 1j, 1e-6) == "resolvent"
    assert periodic.classify(pg, 1.5, 1e-6) == "resolvent"
    # off the axis the trace 2 lambda^2 has imaginary part 2 Im(lambda): E
    # only while that stays within tol
    assert periodic.classify(pg, 0.5 + 1e-7j, 1e-6) == "E"
    assert periodic.classify(pg, 0.5 + 1e-5j, 1e-6) == "resolvent"
    cat = _catalan_period()
    assert periodic.classify(cat, 1.0, 1e-6) == "E"
    assert periodic.classify(cat, 3.0, 1e-6) == "resolvent"
    with pytest.raises(ValueError):
        periodic.classify(cat, 1.0, 0.0)


def test_classify_eigenvalue_point():
    pg = _eigenvalue_period()
    assert periodic.classify(pg, 0.0, 1e-8) == "E_p"
    assert periodic.classify(pg, 2 + 2j, 1e-8) == "resolvent"


def test_scan_labels_and_unimodular_multipliers():
    pg = _chebyshev_squared_period()
    sc = periodic.scan(pg, (-2, 2, -2, 2), 81, 81, 1e-3)
    labels = set(np.unique(sc.labels))
    assert labels == {"E", "resolvent"}
    assert sc.ep_points == ()
    # on strictly classified multiplier-set points both multipliers are
    # unimodular
    for r in range(0, 81, 8):
        for c in range(0, 81, 8):
            z = sc.points[r, c]
            if periodic.classify(pg, z, 1e-9) == "E":
                assert abs(sc.w1_abs[r, c] - 1.0) <= 1e-6
                assert abs(sc.w2_abs[r, c] - 1.0) <= 1e-6


def test_scan_conjugate_symmetry():
    pg = _chebyshev_squared_period()
    sc = periodic.scan(pg, (-2, 2, -2, 2), 41, 41, 1e-3)
    flipped = sc.labels[::-1, :]
    assert (sc.labels == flipped).all()


def test_scan_finds_eigenvalue():
    pg = _eigenvalue_period()
    sc = periodic.scan(pg, (-3, 3, -3, 3), 61, 61, 1e-3)
    assert len(sc.ep_points) == 1
    assert abs(sc.ep_points[0]) <= 1e-9
    summary = json.loads(sc.summary_json())
    assert summary["ep_points"] == [[0.0, 0.0]]
    assert summary["grid"] == [61, 61]
    assert set(summary["label_counts"]) <= {"E", "E_p", "resolvent"}
    # a region right of the root 0 of P_1 skips it
    assert periodic.scan(pg, (0.5, 3, -3, 3), 11, 11, 1e-3).ep_points == ()


def test_scan_labels_the_cell_nearest_an_off_grid_eigenvalue():
    # p_0 = lambda - 13/1000 moves the eigenvalue to 0.013, between the grid
    # columns 0.0 and 0.05; the cell at 0 is the nearest
    pg = periodic.PeriodicGJM((PFractionTerm(1, F(1, 4), x - F(13, 1000)),
                               PFractionTerm(1, F(1), x)))
    sc = periodic.scan(pg, (-1, 1, -1, 1), 41, 41, 1e-3)
    assert len(sc.ep_points) == 1
    assert sc.ep_points[0] == pytest.approx(0.013, abs=1e-12)
    rows, cols = np.nonzero(sc.labels == "E_p")
    assert (rows.tolist(), cols.tolist()) == ([20], [20])
    assert sc.points[20, 20] == 0
    assert json.loads(sc.summary_json())["label_counts"]["E_p"] == 1
    assert periodic.classify(pg, 0.013, 1e-3) == "E_p"
    # tol is a distance to the eigenvalue
    assert periodic.classify(pg, 0.013 + 5e-4j, 1e-3) == "E_p"
    assert periodic.classify(pg, 0.013 + 2e-3j, 1e-3) == "resolvent"


def _nearest_cell(sc, z):
    """(row, col) of the grid point nearest z, checked to lie within half a
    cell (plus the region's tol margin) of z on each axis."""
    xs, ys = sc.points[0, :].real, sc.points[:, 0].imag
    row, col = int(np.abs(ys - z.imag).argmin()), int(np.abs(xs - z.real).argmin())
    assert abs(xs[col] - z.real) <= (xs[1] - xs[0]) / 2 + sc.tol
    assert abs(ys[row] - z.imag) <= (ys[1] - ys[0]) / 2 + sc.tol
    return row, col


def test_scan_ep_cells_are_the_cells_nearest_ep_points():
    rng = random.Random(26)
    region = (-3, 3, -2.5, 2.5)
    found = 0
    for _ in range(60):
        pg = periodic.PeriodicGJM(random_pfraction(rng, rng.randint(1, 4), 3).terms)
        sc = periodic.scan(pg, region, rng.randint(2, 40), rng.randint(2, 40), 1e-3)
        found += len(sc.ep_points)
        cells = {_nearest_cell(sc, z) for z in sc.ep_points}
        assert int((sc.labels == "E_p").sum()) == len(cells)
        for row, col in cells:
            assert sc.labels[row, col] == "E_p"
        for z in sc.ep_points:
            assert periodic.classify(pg, z, 1e-3) == "E_p"
        csv_labels = [line.split(",")[2] for line in scan_csv(sc).splitlines()[1:]]
        counts = json.loads(sc.summary_json())["label_counts"]
        assert counts == {k: csv_labels.count(k) for k in set(csv_labels)}
    assert found > 0


def test_scan_leaves_multiplier_ties_out_of_ep():
    # at the roots 1 -+ i sqrt(2) of P_1 = x^2 - 2x + 3 both multipliers are
    # unimodular (|w11| = |w22| = 1 up to rounding), so the points lie on E
    pg = periodic.PeriodicGJM((PFractionTerm(-1, F(1, 4), x * x - 2 * x + 3),
                               PFractionTerm(-1, F(1, 4), x + 1)))
    sc = periodic.scan(pg, (-3, 3, -3, 3), 21, 21, 1e-3)
    assert sc.ep_points == ()


def test_scan_ep_points_closed_under_conjugation():
    # real coefficients: a conjugate pair of roots is kept or dropped together
    rng = random.Random(2)
    region = (-6, 6, -6, 6)
    found = 0
    for _ in range(200):
        pg = periodic.PeriodicGJM(random_pfraction(rng, rng.randint(1, 8), 3).terms)
        ep = periodic.scan(pg, region, 2, 2, 1e-3).ep_points
        found += len(ep)
        for z in ep:
            assert min(abs(w - z.conjugate()) for w in ep) <= 1e-9 * max(1.0, abs(z))
    assert found > 0


def test_scan_csv_format():
    pg = _catalan_period()
    sc = periodic.scan(pg, (-1, 1, -1, 1), 5, 5, 1e-3)
    csv = sc.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "re,im,label,trace_re,trace_im,w1_abs,w2_abs"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0


@pytest.mark.parametrize("seed", range(8))
def test_scan_csv_matches_the_cell_by_cell_writer(seed):
    rng = random.Random(seed)
    pg = periodic.PeriodicGJM(random_pfraction(rng, rng.randint(1, 4), 3).terms)
    sc = periodic.scan(pg, (-3, 3, -2.5, 2.5), rng.randint(2, 40),
                       rng.randint(2, 40), 1e-3)
    assert sc.to_csv() == scan_csv(sc)


def _first_rows(sc, n):
    """The scan cut to its first n cells of row 0 (a 1 x n grid)."""
    return dataclasses.replace(
        sc, nx=n, ny=1, points=sc.points[:1, :n], labels=sc.labels[:1, :n],
        trace_values=sc.trace_values[:1, :n], w1_abs=sc.w1_abs[:1, :n],
        w2_abs=sc.w2_abs[:1, :n])


def test_scan_csv_grids_off_the_block_size(monkeypatch):
    pg = _eigenvalue_period()
    for nx, ny in ((2, 2), (7, 5)):
        sc = periodic.scan(pg, (-2, 2, -2, 2), nx, ny, 1e-3)
        assert sc.to_csv() == scan_csv(sc)
    block = periodic.CSV_BLOCK
    wide = periodic.scan(pg, (-2, 2, -2, 2), block + 1, 2, 1e-3)
    one_more = _first_rows(wide, block + 1)
    assert one_more.to_csv() == scan_csv(one_more)
    assert one_more.to_csv().count("\n") == block + 2
    # many blocks and a short last one
    monkeypatch.setattr(periodic, "CSV_BLOCK", 4)
    sc = periodic.scan(pg, (-2, 2, -2, 2), 7, 5, 1e-3)
    assert sc.to_csv() == scan_csv(sc)


def test_write_csv_streams_the_header_then_one_block_per_write(monkeypatch):
    monkeypatch.setattr(periodic, "CSV_BLOCK", 4)
    sc = periodic.scan(_eigenvalue_period(), (-2, 2, -2, 2), 7, 5, 1e-3)
    writes = []
    sc.write_csv(SimpleNamespace(write=writes.append))
    text = scan_csv(sc)
    assert "".join(writes) == text
    lines = text.splitlines(keepends=True)
    assert writes == [lines[0]] + ["".join(lines[i:i + 4]) for i in range(1, len(lines), 4)]


def test_scan_csv_special_floats():
    nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000002],
                            dtype=np.uint64).view(np.float64)
    values = np.array([-0.0, 0.0, nan_a, nan_b, np.inf, -np.inf, 5e-324,
                       1e16, 1e-5, 0.1, 0.1, -0.0, 1e16, 0.0, 2.5, nan_a])
    shape = (4, 4)
    re = values.reshape(shape)
    im = np.roll(values, 3).reshape(shape)
    points = np.empty(shape, dtype=complex)
    points.real, points.imag = re, im   # re + 1j * im would turn inf into nan
    trace = np.empty(shape, dtype=complex)
    trace.real, trace.imag = im, re
    labels = np.array([periodic.LABEL_E, periodic.LABEL_EP,
                       periodic.LABEL_RESOLVENT, periodic.LABEL_E] * 4).reshape(shape)
    sc = periodic.SpectrumScan(
        region=(-1, 1, -1, 1), nx=4, ny=4, tol=1e-3, points=points, labels=labels,
        trace_values=trace, w1_abs=np.abs(re), w2_abs=np.roll(values, 7).reshape(shape),
        ep_points=())
    csv = sc.to_csv()
    assert csv == scan_csv(sc)
    first = csv.split("\n")[1].split(",")
    assert first[:3] == ["-0.0", "0.0", "E"] and first[5] == "0.0"
    for text in ("nan", "inf", "-inf", "5e-324", "1e+16", "1e-05", "0.1"):
        assert f",{text}," in csv or csv.startswith(f"{text},")


def test_scan_rejects_degenerate_grid():
    pg = _catalan_period()
    with pytest.raises(BadRange):
        periodic.scan(pg, (-1, 1, -1, 1), 1, 5, 1e-3)
