import json
import os
import random
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalan_pfraction, random_pfraction
from oracles import scan_csv
from gjacobi import periodic
from gjacobi.cli import build_parser, main
from gjacobi.moments import MomentSequence
from gjacobi.pfraction import PFraction, to_moments


CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132, 0]


@pytest.fixture
def catalan_file(tmp_path):
    path = tmp_path / "catalan.json"
    path.write_text(json.dumps({"moments": [str(v) for v in CATALAN]}))
    return str(path)


@pytest.fixture
def float_catalan_file(tmp_path):
    path = tmp_path / "catalan_float.json"
    path.write_text(json.dumps({"moments": [f"{v}.0" for v in CATALAN]}))
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


def test_expand_rejects_all_zero(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"moments": ["0", "0", "0"]}))
    assert main(["expand", str(path)]) == 3
    path.write_text(json.dumps({"moments": ["0", "1"]}))  # too short for its block
    assert main(["expand", str(path)]) == 3
    assert capsys.readouterr().err.endswith("error: no expandable content in input\n")


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
    # an exact exponent past MAX_EXACT_EXPONENT is refused, not built
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"moments": ["1", "0", "1e99999999"]}))
    assert main(["expand", str(huge)]) == 2
    huge.write_text(json.dumps({"terms": [{"epsilon": 1, "b_squared": "2e-99999999",
                                           "p": ["0E800000", "1"]}]}))
    assert main(["moments", str(huge)]) == 2


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


def test_pade_fits_no_ratio_to_a_single_order(catalan_file, capsys):
    # the fit reads the later half of the orders, here 3 and 3: no spread in n_j
    assert main(["pade", catalan_file, "--lambda", "3,0", "--orders", "1,2,3,3",
                 "--reference", "sqrt-catalan"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5
    assert "match_order" in err and "fitted error ratio" not in err


def test_pade_matches_moments_scaled_off_one(tmp_path, capsys):
    # 2 x catalan: expand divides by 2, so the orders are catalan's and the
    # table says which series it is for
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"moments": [str(2 * v) for v in CATALAN[:9]]}))
    assert main(["pade", str(path), "--lambda=3,0", "--orders", "1..3"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["the table is for the moments divided by 2",
                                "j=1 n_j=1 match_order=1",
                                "j=2 n_j=2 match_order=3",
                                "j=3 n_j=3 match_order=5"]
    assert out.splitlines()[1:] == ["1,1,-0.3333333333333333,-0.0,",
                                    "2,2,-0.375,-0.0,",
                                    "3,3,-0.38095238095238093,-0.0,"]
    # scale 1 says nothing more
    path.write_text(json.dumps({"moments": [str(v) for v in CATALAN[:9]]}))
    assert main(["pade", str(path), "--lambda=3,0", "--orders", "1..3"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == "j=1 n_j=1 match_order=1"


def test_pade_skips_the_match_line_of_an_order_past_the_moments(tmp_path, capsys):
    # order 4 needs 9 moments: its row is in the table, its match line is not
    path = tmp_path / "m8.json"
    path.write_text(json.dumps({"moments": [str(v) for v in CATALAN[:8]]}))
    assert main(["pade", str(path), "--lambda=3,0", "--orders", "1..4"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["j=1 n_j=1 match_order=1",
                                "j=2 n_j=2 match_order=3",
                                "j=3 n_j=3 match_order=5"]
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1", "2", "3", "4"]


def test_pade_at_large_lambda(catalan_file, tmp_path):
    # |lambda|^n_j overflows a float long before the continued fraction does
    out = tmp_path / "big.csv"
    assert main(["--out", str(out), "pade", catalan_file,
                 "--lambda", "1e160,0", "--orders", "1..6"]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 6
    for row in rows:
        value = complex(float(row[2]), float(row[3]))
        assert abs(value + 1e-160) <= 1e-12 * 1e-160


@pytest.mark.parametrize("argv", [
    ["certify", "{pf}", "--lambda", "nan,0"],
    ["pade", "{moments}", "--lambda", "3,inf"],
    ["spectrum", "{pf}", "--period", "1", "--region=nan,1,0,1"],
    ["spectrum", "{pf}", "--period", "1", "--region=-inf,1,0,1"],
    ["--tol", "inf", "spectrum", "{pf}", "--period", "1", "--grid", "3"],
    ["--tol", "nan", "expand", "{moments}"],
])
def test_non_finite_arguments_are_parse_errors(catalan_file, pfraction_file, argv):
    files = {"pf": pfraction_file, "moments": catalan_file}
    assert main([a.format(**files) for a in argv]) == 2


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "{pf}", "--period", "1", "--region=-1,1,0"], "expected 'xmin,xmax,ymin,ymax'"),
    (["spectrum", "{pf}", "--period", "1", "--region=1,-1,0,1"], "must be increasing"),
    # finite bounds whose width overflows would give a NaN grid
    (["spectrum", "{pf}", "--period", "1", "--region=-1e308,1e308,-1,1", "--grid", "3"],
     "region width overflows"),
    (["pade", "{moments}", "--lambda=3,0", "--orders", "1,x"], "bad order list"),
    (["expand", "{keyless}"], "needs a 'moments' or 'terms' key"),
    (["spectrum", "{moments}", "--period", "1"], "needs a pfraction input"),
    # argument errors come before data errors: the 4 terms do not repeat
    # with period 2, period 3 does not divide 4, and 9 moments give 4 terms,
    # too few for order 40
    (["spectrum", "{four}", "--period", "2", "--region=1,2,3"], "expected 'xmin,xmax,ymin,ymax'"),
    (["spectrum", "{four}", "--period", "3", "--grid", "x"], "expected 'n' or 'nx,ny'"),
    (["pade", "{nine}", "--lambda=3,0", "--orders", "1..40", "--reference", "nope"],
     "unknown reference 'nope'"),
], ids=["region-arity", "region-order", "region-width", "orders", "keyless",
        "spectrum-moments", "region-before-period", "grid-before-period", "reference-before-expand"])
def test_argument_refusals_are_parse_errors(catalan_file, pfraction_file, tmp_path,
                                            capsys, argv, message):
    files = {"pf": pfraction_file, "moments": catalan_file}
    for name, data in (("keyless", {"coefficients": ["1"]}),
                       ("nine", {"moments": [str(v) for v in CATALAN[:9]]}),
                       ("four", {"terms": [
                           {"epsilon": 1, "b_squared": "1", "p": ["0", "1"]},
                           {"epsilon": -1, "b_squared": "2", "p": ["1", "1"]},
                           {"epsilon": 1, "b_squared": "3", "p": ["0", "1"]},
                           {"epsilon": 1, "b_squared": "1", "p": ["2", "1"]}]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    assert main([a.format(**files) for a in argv]) == 2
    assert message in capsys.readouterr().err


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


def test_spectrum_csv_over_a_region_from_minus_zero(pfraction_file, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["--out", str(out), "spectrum", pfraction_file, "--period", "1",
                 "--region=-0,2,-2,2", "--grid", "9,7"]) == 0
    with open(pfraction_file) as fh:
        pg = periodic.PeriodicGJM(PFraction.from_json(fh.read()).terms[:1])
    sc = periodic.scan(pg, (-0.0, 2.0, -2.0, 2.0), 9, 7, 1e-3)
    text = out.read_text()
    assert text == scan_csv(sc)
    assert text.split("\n")[1].startswith("0.0,-2.0,")   # linspace adds -0.0 + 0.0
    summary = capsys.readouterr().out
    assert (tmp_path / "scan.csv.summary.json").read_text() + "\n" == summary


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("Commands:\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln) for ln in block.splitlines() if ln.startswith("gjacobi ")]
    assert len(commands) == 6
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert args.func is not None


def test_spectrum_bad_period(pfraction_file):
    assert main(["spectrum", pfraction_file, "--period", "4"]) == 5


def test_spectrum_refuses_terms_that_do_not_repeat(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"terms": [
        {"epsilon": 1, "b_squared": "1/4", "p": ["0", "0", "1"]},
        {"epsilon": -1, "b_squared": "3", "p": ["5", "1"]}]}))
    assert main(["spectrum", str(path), "--period", "1", "--grid", "3"]) == 5
    assert main(["spectrum", str(path), "--period", "2", "--grid", "3"]) == 0


@pytest.mark.parametrize("grid", ["abc", "3,x", "3,4,5"])
def test_spectrum_bad_grid_is_a_parse_error(pfraction_file, grid):
    assert main(["spectrum", pfraction_file, "--period", "1",
                 "--grid", grid]) == 2


@pytest.mark.parametrize("terms, argv", [
    ([], ["spectrum", "--period", "1"]),
    # certify needs 4*depth+1 terms and is given none, or one open term
    ([], ["certify", "--lambda", "3,0", "--depth", "5"]),
    ([{"epsilon": 1, "b_squared": None, "p": ["0", "1"]}],
     ["certify", "--lambda", "3,0", "--depth", "5"]),
], ids=["spectrum", "certify", "certify-open"])
def test_spectrum_refuses_empty_fraction(tmp_path, terms, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"terms": terms}))
    assert main([argv[0], str(path), *argv[1:]]) == 3


def test_certify_resolvent_and_spectrum_points(tmp_path):
    pf_file = tmp_path / "catalan161.json"
    pf_file.write_text(catalan_pfraction(161).to_json())   # 4*40+1 terms
    out = tmp_path / "cert.json"
    code = main(["--out", str(out), "certify", str(pf_file),
                 "--lambda", "3,0", "--depth", "40"])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "certified_decay"
    assert 0.3 <= cert["q"] <= 0.45
    code = main(["--out", str(out), "certify", str(pf_file),
                 "--lambda", "0.5,0", "--depth", "40"])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] in ("inconclusive", "violated")


def test_certify_refuses_too_few_terms(catalan_file, tmp_path, capsys):
    # no term is invented: 14 moments give 7 terms, a periodic-looking
    # input is not repeated, and neither is a random non-periodic one
    assert main(["certify", catalan_file, "--lambda", "3,0", "--depth", "40"]) == 3
    assert "needs 161 terms, the input gives 7" in capsys.readouterr().err
    path = tmp_path / "random7.json"
    path.write_text(random_pfraction(random.Random(3), 7).to_json())
    assert main(["certify", str(path), "--lambda", "3,0", "--depth", "10"]) == 3


@pytest.mark.parametrize("depth", ["-1", "0", "3"])
def test_certify_names_the_least_depth(tmp_path, capsys, depth):
    # the depth is checked before 4*depth indexes the terms
    path = tmp_path / "catalan162.json"
    path.write_text(catalan_pfraction(162).to_json())
    assert main(["certify", str(path), "--lambda", "3,0", "--depth", depth]) == 3
    assert capsys.readouterr().err == "error: need J >= 4\n"


def test_pade_names_an_empty_order_range(catalan_file, capsys):
    assert main(["pade", catalan_file, "--lambda", "3,0", "--orders", "5..2"]) == 2
    assert capsys.readouterr().err == "error: empty order range '5..2'\n"


def test_certify_expands_moments_to_the_terms_it_reads(tmp_path, capsys):
    # depth 4 reads 17 terms; 2*n_18 + 2 moments determine all of them
    pf = random_pfraction(random.Random(11), 19)
    moments = tmp_path / "m.json"
    moments.write_text(to_moments(pf, 2 * pf.normal_index(18) + 2).to_json())
    prefix = tmp_path / "pf17.json"
    prefix.write_text(PFraction(pf.terms[:17]).to_json())
    outputs = []
    for path in (moments, prefix):
        assert main(["certify", str(path), "--lambda=1.5,1", "--depth", "4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_moments_round_trip(pfraction_file, tmp_path, capsys):
    out = tmp_path / "mom.json"
    assert main(["--out", str(out), "moments", pfraction_file,
                 "--count", "12"]) == 0
    s = MomentSequence.from_json(out.read_text())
    assert [float(v) for v in s.coeffs] == [float(v) for v in CATALAN[:12]]
    assert "certified through" in capsys.readouterr().err


def test_moments_of_a_terminated_fraction_are_all_exact(tmp_path, capsys):
    path = tmp_path / "term.json"
    data = json.loads(catalan_pfraction(3).to_json())
    data["terms"][-1]["b_squared"] = None
    path.write_text(json.dumps({**data, "status": "terminated"}))
    assert main(["moments", str(path), "--count", "10"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["moments"][:4] == ["1", "0", "1", "0"]
    assert "certified through" not in err


@pytest.mark.parametrize("argv", [
    ["moments", "--count", "6"],
    ["spectrum", "--period", "1", "--grid", "3"],
], ids=["moments", "spectrum"])
def test_unwritable_out_is_a_parse_error(pfraction_file, tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "x")
    assert main(["--out", out, argv[0], pfraction_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_spectrum_out_on_a_full_device_is_a_parse_error(pfraction_file, monkeypatch, capsys):
    # blocks of 4 rows fill the file buffer and fail with ENOSPC mid-stream
    monkeypatch.setattr(periodic, "CSV_BLOCK", 4)
    assert main(["--out", "/dev/full", "spectrum", pfraction_file, "--period", "1",
                 "--grid", "40"]) == 2
    captured = capsys.readouterr()
    assert "cannot write /dev/full" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("epsilon, code", [
    (1.5, 2), (-1.2, 2), (True, 2), (1, 0), (-1, 0), ("1", 0), ("-1", 0),
])
def test_epsilon_must_be_an_integer(tmp_path, epsilon, code):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({"terms": [
        {"epsilon": epsilon, "b_squared": "1", "p": ["0", "1"]}]}))
    assert main(["moments", str(path), "--count", "2"]) == code


@pytest.mark.parametrize("cap, code", [(1, 2), (2, 0), (None, 0)])
def test_json_degree_cap_is_checked(tmp_path, cap, code):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"terms": [
        {"epsilon": 1, "b_squared": "1/4", "p": ["0", "0", "1"]}],
        "degree_cap": cap}))
    assert main(["moments", str(path), "--count", "4"]) == code


@pytest.mark.parametrize("n_terms, open_at, argv", [
    (3, 1, ["moments", "--count", "6"]),
    (3, 1, ["pade", "--lambda", "3,0", "--orders", "1..3"]),
    # 20 >= 4*depth+1 terms: certify reads them as given
    (20, 1, ["certify", "--lambda", "3,0", "--depth", "4"]),
    # 9 = 4*depth+1 terms, so certify reaches its own depth check
    (9, None, ["certify", "--lambda", "3,0", "--depth", "2"]),
    (7, None, ["spectrum", "--period", "1", "--grid", "1"]),
], ids=["moments", "pade", "certify", "certify-depth", "spectrum-grid"])
def test_moments_refuses_interior_term_without_coupling(tmp_path, n_terms,
                                                        open_at, argv):
    # every library error is exit 3, whichever command meets it
    term = {"epsilon": 1, "b_squared": "1", "p": ["0", "1"]}
    terms = [dict(term, b_squared=None) if j == open_at else term
             for j in range(n_terms)]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"terms": terms}))
    assert main([argv[0], str(path), *argv[1:]]) == 3


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_no_cli_run_on_random_pfractions_is_an_internal_error(
        tmp_path_factory, seed, data):
    rng = random.Random(seed)
    n = data.draw(st.integers(1, 8), label="n_terms")
    pf = random_pfraction(rng, n, 3, last_open=data.draw(st.booleans()))
    terms = json.loads(pf.to_json())["terms"]
    if n > 1 and data.draw(st.booleans(), label="gap"):
        terms[data.draw(st.integers(0, n - 2), label="open_at")]["b_squared"] = None
    path = tmp_path_factory.mktemp("rnd") / "pf.json"
    path.write_text(json.dumps({"terms": terms}))
    halves = st.integers(-8, 8).map(lambda v: v / 2)
    lam = st.builds("--lambda={},{}".format, halves, halves)

    def num(lo, hi):
        return st.integers(lo, hi).map(str)

    argv = data.draw(st.one_of(
        st.tuples(st.just("moments"), st.just("--count"), num(0, 3 * n)),
        st.tuples(st.just("pade"), lam, st.just("--orders"),
                  num(1, n + 2).map("1..{}".format)),
        st.tuples(st.just("certify"), lam, st.just("--depth"), num(1, 8)),
        st.tuples(st.just("spectrum"), st.just("--period"), num(1, n),
                  st.just("--grid"), num(1, 6)),
    ), label="argv")
    assert main([argv[0], str(path), *argv[1:]]) in (0, 3, 4, 5)


def test_moments_rejects_moment_input(catalan_file):
    assert main(["moments", catalan_file]) == 2


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out


def test_seed_flag_is_gone(pfraction_file):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "spectrum", pfraction_file, "--period", "1"])
    assert exc.value.code == 2


def test_exact_flag_is_gone(catalan_file):
    # exact parsing is the default; only --float changes it
    with pytest.raises(SystemExit) as exc:
        main(["--exact", "expand", catalan_file])
    assert exc.value.code == 2


def test_float_flag(float_catalan_file, tmp_path, capsys):
    assert main(["--float", "expand", float_catalan_file]) == 0
    assert '"b_squared": "1.0"' in capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main(["--float", "--out", str(out), "pade", float_catalan_file,
                 "--lambda=3,0", "--orders", "1..6"]) == 0
    assert len(out.read_text().strip().split("\n")) == 7


@pytest.mark.parametrize("argv, data", [
    (["--float", "expand"], {"moments": ["1", "0", "1e400", "0", "2"]}),
    (["--float", "moments"], {"terms": [
        {"epsilon": 1, "b_squared": "1e400", "p": ["0", "1"]},
        {"epsilon": 1, "b_squared": None, "p": ["0", "1"]}]}),
], ids=["expand", "moments"])
def test_float_overflow_is_a_parse_error(tmp_path, capsys, argv, data):
    # a decimal past the float range is refused, not read as inf
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "overflows a float" in err


def test_repeated_calls_share_no_options(float_catalan_file, tmp_path, capsys):
    # one parser serves every call in a process: no option may carry over
    out = tmp_path / "pf.json"
    assert main(["--float", "--out", str(out), "expand", float_catalan_file]) == 0
    assert '"b_squared": "1.0"' in out.read_text()
    capsys.readouterr()
    assert main(["expand", float_catalan_file]) == 0
    assert '"b_squared": "1"' in capsys.readouterr().out


def test_tol_validation(catalan_file, capsys):
    assert main(["--tol", "-1", "expand", catalan_file]) == 2
    assert capsys.readouterr() == ("", "error: --tol must be positive and finite\n")
