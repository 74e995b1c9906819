import json
import random

import pytest

from conftest import random_pfraction
from gjacobi.cli import main
from gjacobi.moments import MomentSequence
from gjacobi.pfraction import PFraction, to_moments


CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132, 0]


@pytest.fixture
def catalan_file(tmp_path):
    path = tmp_path / "catalan.json"
    path.write_text(json.dumps({"moments": [str(v) for v in CATALAN]}))
    return str(path)


@pytest.fixture
def pfraction_file(tmp_path, catalan_file):
    path = tmp_path / "pf.json"
    assert main(["--out", str(path), "expand", catalan_file]) == 0
    return str(path)


def test_expand_writes_pfraction(catalan_file, tmp_path, capsys):
    out = tmp_path / "pf.json"
    assert main(["--out", str(out), "expand", catalan_file]) == 0
    pf = PFraction.from_json(out.read_text())
    assert len(pf) == 7
    assert all(t.epsilon == 1 and t.b_squared == 1 for t in pf.terms[:6])
    err = capsys.readouterr().err
    assert "normal indices" in err and "block degrees" in err


def test_expand_rejects_all_zero(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"moments": ["0", "0", "0"]}))
    assert main(["expand", str(path)]) == 3


def test_expand_rejects_pfraction_input(pfraction_file):
    assert main(["expand", pfraction_file]) == 2


def test_parse_failures(tmp_path, catalan_file):
    missing = str(tmp_path / "nope.json")
    assert main(["expand", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["expand", str(bad)]) == 2
    assert main(["pade", catalan_file, "--lambda", "oops"]) == 2
    assert main(["pade", catalan_file, "--lambda", "3,0", "--orders", "0..3"]) == 2


def test_malformed_shapes_are_parse_errors(tmp_path):
    for i, data in enumerate(({"moments": 5}, {"terms": [1]}, "moments")):
        path = tmp_path / f"shape{i}.json"
        path.write_text(json.dumps(data))
        assert main(["expand", str(path)]) == 2


def test_pade_refuses_orders_past_the_data(tmp_path):
    # 12 moments of a non-periodic fraction determine only 6 terms; orders
    # up to 10 must not be served from a made-up continuation
    s = to_moments(random_pfraction(random.Random(5), 12, 1), 12)
    path = tmp_path / "short.json"
    path.write_text(s.to_json())
    assert main(["pade", str(path), "--lambda", "3,0", "--orders", "1..10"]) == 3


def test_pade_convergence_table(catalan_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["--out", str(out), "pade", catalan_file,
                 "--lambda", "3,0", "--orders", "1..6",
                 "--reference", "sqrt-catalan"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "j,n_j,value_re,value_im,abs_error"
    assert len(lines) == 7
    errs = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    err = capsys.readouterr().err
    assert "match_order" in err and "fitted error ratio" in err


def test_pade_all_poles_exit_code(tmp_path):
    # moments of 1/(lambda^2 - 1): every diagonal approximant has a pole at 1
    path = tmp_path / "sec.json"
    path.write_text(json.dumps({"moments": ["0", "1", "0", "1", "0", "1"]}))
    assert main(["pade", str(path), "--lambda", "1,0", "--orders", "1"]) == 4


def test_spectrum_scan(pfraction_file, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["--out", str(out), "--tol", "1e-3", "spectrum",
                 pfraction_file, "--period", "1",
                 "--region=-2,2,-2,2", "--grid", "40"])
    assert code == 0
    assert out.read_text().startswith("re,im,label")
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["ep_points"] == []
    assert "E" in summary["label_counts"]


def test_spectrum_bad_period(pfraction_file):
    assert main(["spectrum", pfraction_file, "--period", "4"]) == 5


def test_certify_resolvent_and_spectrum_points(catalan_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["--out", str(out), "certify", catalan_file,
                 "--lambda", "3,0", "--depth", "40"])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "certified_decay"
    assert 0.3 <= cert["q"] <= 0.45
    code = main(["--out", str(out), "certify", catalan_file,
                 "--lambda", "0.5,0", "--depth", "40"])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] in ("inconclusive", "violated")


def test_moments_round_trip(pfraction_file, tmp_path, capsys):
    out = tmp_path / "mom.json"
    assert main(["--out", str(out), "moments", pfraction_file,
                 "--count", "12"]) == 0
    s = MomentSequence.from_json(out.read_text())
    assert [float(v) for v in s.coeffs] == [float(v) for v in CATALAN[:12]]
    assert "certified through" in capsys.readouterr().err


def test_moments_refuses_interior_term_without_coupling(tmp_path):
    term = {"epsilon": 1, "b_squared": "1", "p": ["0", "1"]}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(
        {"terms": [term, dict(term, b_squared=None), term]}))
    assert main(["moments", str(path), "--count", "6"]) == 3


def test_moments_rejects_moment_input(catalan_file):
    assert main(["moments", catalan_file]) == 2


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out


def test_tol_validation(catalan_file):
    assert main(["--tol", "-1", "expand", catalan_file]) == 2
