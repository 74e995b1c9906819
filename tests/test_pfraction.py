import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalan_pfraction, random_pfraction
from oracles import fraction_expand, laurent_moments, series_div
from gjacobi import gjmatrix as gm
from gjacobi.errors import (AllZero, DegreeCapExceeded, EmptyPFraction,
                            InsufficientMoments, OpenCoupling)
from gjacobi.moments import MomentSequence, parse_scalar
from gjacobi.pfraction import (PFraction, PFractionTerm, expand, expand_step,
                               to_moments)
from gjacobi.poly import Polynomial

F = Fraction
x = Polynomial.x()


def _naive_reciprocal(c, n):
    """Schoolbook coefficient recursion for 1/c, independent of series_div."""
    inv = [1 / c[0]]
    for i in range(1, n):
        acc = 0 * c[0]
        for k in range(1, min(i, len(c) - 1) + 1):
            acc += c[k] * inv[i - k]
        inv.append(-acc / c[0])
    return inv


def test_expand_catalan():
    s = MomentSequence(tuple(F(v) for v in (1, 0, 1, 0, 2, 0, 5, 0)))
    pf = expand(s, 10, 3)
    assert pf.block_degrees() == (1, 1, 1, 1)
    for t in pf.terms[:3]:
        assert t.epsilon == 1 and t.b_squared == 1 and t.p == x


def test_expand_degenerate_composite():
    # first Hankel determinant vanishes, first block has degree 2
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 0, 1, 0)))
    pf = expand(s, 10, 3)
    assert pf.block_degrees() == (2, 1)
    assert pf[0].p == x * x and pf[0].epsilon == 1 and pf[0].b_squared == 1
    assert pf[1].p == x


def test_expand_step_consumes_2k_coefficients():
    s = (0, 1, 0, 0, 1, 0, 0, 1)
    term, (tail, _) = expand_step(s, (1,))
    assert term.degree == 2
    assert len(tail) == len(s) - 2 * term.degree


def test_expand_negative_leading_sign():
    s = MomentSequence(tuple(F(v) for v in (-1, 0, -1, 0)))
    pf = expand(s, 4, 2)
    assert pf[0].epsilon == -1


def test_expand_terminated_vs_exhausted():
    # 0,1,0,1,... is the series of 1/(lambda^2 - 1): a single closed term
    s = MomentSequence(tuple(F(v) for v in (0, 1, 0, 1, 0, 1)))
    pf = expand(s, 5, 3)
    assert pf.status == "terminated"
    assert len(pf) == 1 and pf[0].p == x * x - 1 and pf[0].b_squared is None
    # too-short input stops with status exhausted
    s2 = MomentSequence(tuple(F(v) for v in (1, 0, 1)))
    pf2 = expand(s2, 5, 3)
    assert pf2.status == "exhausted"


def test_expand_errors():
    with pytest.raises(AllZero):
        expand(MomentSequence((F(0), F(0))), 4, 3)
    with pytest.raises(DegreeCapExceeded):
        expand(MomentSequence(tuple(F(v) for v in (0, 0, 1, 0, 0, 0))), 4, 2)
    with pytest.raises(InsufficientMoments):
        expand_step((0, 1, 0), (1,))


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: PFractionTerm(2, F(1), x), ValueError, "epsilon",
                 id="epsilon-two"),
    pytest.param(lambda: PFraction((), status="x"), ValueError, "unknown status",
                 id="unknown-status"),
    pytest.param(lambda: expand_step((0, 0), (1,)), AllZero, "identically zero",
                 id="step-on-a-zero-tail"),
    # s_1 opens a block of degree 2, which needs 4 moments: no term fits
    pytest.param(lambda: expand(MomentSequence((F(0), F(1))), 4, 3),
                 AllZero, "no expandable content", id="expand-no-whole-block"),
    pytest.param(lambda: to_moments(PFraction(()), 1), EmptyPFraction, "no terms",
                 id="moments-of-no-terms"),
])
def test_argument_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_expand_step_reciprocal_matches_naive_oracle():
    s = (1, 2, -1, 3, 0, 1)
    term, (num, den) = expand_step(s, (1,))
    v = _naive_reciprocal([F(c) for c in s], len(s))
    # k = 1: p = eps * v_1..v_0? block is (v_0-scaled); check remainder line
    assert term.p.coeffs[-1] == 1
    rem = [-v[2 + j] for j in range(len(s) - 2)]
    first = next(r for r in rem if r != 0)
    assert term.b_squared == abs(first)
    # the next pair's series, times the factor |den[0] / num[i0]| that
    # normalizes it, is the remainder rescaled by b^2
    factor = abs(F(den[0], next(c for c in num if c)))
    got = series_div([F(c) for c in num], [F(c) for c in den], len(rem))
    assert [factor * c for c in got] == [r / term.b_squared for r in rem]


def test_to_moments_roundtrip_certified_prefix(rng):
    for _ in range(10):
        pf = random_pfraction(rng, rng.randint(1, 4))
        n_J = pf.normal_index(len(pf))
        s = to_moments(pf, 2 * n_J)
        assert s.certified_up_to == 2 * n_J - 1
        back = expand(s, len(pf) + 2, 3)
        for got, want in zip(back.terms, pf.terms):
            assert got.epsilon == want.epsilon
            assert got.p == want.p
        # all couplings except possibly the last are recovered
        for got, want in zip(back.terms[:-1], pf.terms[:-1]):
            assert got.b_squared == want.b_squared


def test_to_moments_terminated_roundtrip(rng):
    for _ in range(10):
        pf = random_pfraction(rng, rng.randint(1, 4), last_open=True)
        n_J = pf.normal_index(len(pf))
        s = to_moments(pf, 2 * n_J + 2)
        back = expand(s, len(pf) + 2, 3)
        assert back.status == "terminated"
        assert back.terms == pf.terms


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_terms=st.integers(1, 8),
       tenth=st.integers(0, 9))
def test_expand_recovers_the_generating_terms(seed, n_terms, tenth):
    # 2*n_J + 2 moments give back every term; the last coupling is not in
    # the moments of the J-term fraction, so it comes back open
    pf = random_pfraction(random.Random(seed), n_terms, last_open=tenth < 3)
    back = expand(to_moments(pf, 2 * pf.normal_index(len(pf)) + 2), len(pf) + 2, 3)
    last = pf.terms[-1]
    assert back.terms == pf.terms[:-1] + (PFractionTerm(last.epsilon, None, last.p),)
    assert back.status == "terminated"


def test_to_moments_matches_matrix_moments(rng):
    # to_moments and [H^i e, e] of the assembled matrix against the Laurent
    # series of generate's Qhat_J/Phat_J, for every count up to 2*n_J: small
    # counts iterate only a short prefix
    for i in range(12):
        pf = random_pfraction(rng, rng.randint(1, 9), last_open=i % 3 == 0)
        n_J = pf.normal_index(len(pf))
        H = gm.assemble(pf)
        want = laurent_moments(pf, 2 * n_J)
        assert gm.moments_from_matrix(H, H.gram(), 2 * n_J).coeffs == want
        for c in range(1, 2 * n_J + 1):
            assert to_moments(pf, c).coeffs == want[:c]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_terms=st.integers(1, 12),
       kind=st.sampled_from(["open", "last_open", "terminated"]),
       zeros=st.integers(0, 2))
def test_integer_pipeline_matches_fraction_oracles(seed, n_terms, kind, zeros):
    # to_moments against the Laurent series of Qhat_J/Phat_J at every count
    # through 2*n_J + 4, and expand against the Fraction expansion step, on
    # open, last-open and terminated fractions and on moments shifted by
    # leading zeros
    pf = random_pfraction(random.Random(seed), n_terms, last_open=kind != "open")
    if kind == "terminated":
        pf = PFraction(pf.terms, status="terminated")
    n_J = pf.normal_index(len(pf))
    want = laurent_moments(pf, 2 * n_J + 4 + 2 * zeros)
    for c in range(1, 2 * n_J + 5):
        assert to_moments(pf, c).coeffs == want[:c]
    # each leading zero raises the first block's degree, and its depth
    count = 2 * n_J + (4 if kind == "terminated" else 0) + 2 * zeros
    s = MomentSequence((0,) * zeros + want[:count])
    got, ref = expand(s, len(pf) + 2, 12), fraction_expand(s, len(pf) + 2)
    assert got.terms == ref.terms and got.status == ref.status


def test_to_moments_float_data_rounds_exact_values():
    exact = catalan_pfraction(80)
    data = exact.to_json().replace('"1"', '"1.0"').replace('"0"', '"0.0"')
    s = to_moments(PFraction.from_json(data), 160)
    assert s.coeffs == tuple(float(v) for v in to_moments(exact, 160).coeffs)
    assert s.scale == 1.0 and isinstance(s.scale, float)


def _expand_float_moments(b0_squared, extra):
    """Float moments (2*n_J + extra) of a 4-term fraction with first
    coupling b0_squared, expanded back."""
    spec = [(1, b0_squared, x), (-1, 1.0, x * x - 1), (1, 2.0, x), (1, None, x)]
    pf = PFraction(tuple(PFractionTerm(e, b2, p.as_float()) for e, b2, p in spec))
    s = to_moments(pf, 2 * pf.normal_index(len(pf)) + extra)
    assert not s.is_exact
    return expand(s, 10, 6)


def test_expand_float_moments_with_a_small_coupling():
    # float moments of a 4-term fraction with one small coupling: the
    # remainder's rounding noise must not be read as a further term
    back = _expand_float_moments(1e-6, 4)
    assert back.block_degrees() == (1, 2, 1, 1)
    assert back.status == "terminated"
    assert [t.epsilon for t in back.terms] == [1, -1, 1, 1]
    assert back[0].b_squared == pytest.approx(1e-6, rel=1e-9)
    assert back[1].b_squared == pytest.approx(1.0, rel=1e-9)
    assert back[2].b_squared == pytest.approx(2.0, rel=1e-9)


def test_expand_float_moments_with_a_coupling_below_1e_12():
    # the zero test scales with the magnitudes that cancel in the
    # remainder, so a coupling of 1e-13 is not taken for zero
    for extra in (2, 4):
        back = _expand_float_moments(1e-13, extra)
        assert back.block_degrees() == (1, 2, 1, 1)
        assert back.status == "terminated"
        assert [t.epsilon for t in back.terms] == [1, -1, 1, 1]
        assert back[0].b_squared == pytest.approx(1e-13, rel=1e-9)
        assert back[1].b_squared == pytest.approx(1.0, rel=1e-9)
        assert back[2].b_squared == pytest.approx(2.0, rel=1e-9)


def test_json_roundtrip():
    pf = PFraction((PFractionTerm(1, F(1, 4), x * x),
                    PFractionTerm(-1, None, x)), status="open")
    back = PFraction.from_json(pf.to_json(), exact_parse=True)
    assert back.terms == pf.terms
    assert back.status == "open"


def _unreduced(c, rng):
    """Text of the Fraction c as an unreduced ratio, an integer or with a sign."""
    m = rng.choice([1, 2, 3, 6])
    text = rng.choice([f"{c.numerator * m}/{c.denominator * m}",
                       f" {c.numerator}/{c.denominator}\t"])
    if c.denominator == 1 and rng.random() < 0.5:
        text = f"+{c.numerator}" if c >= 0 else str(c.numerator)
    return text


@pytest.mark.parametrize("seed", range(6))
def test_json_blocks_equal_the_polynomials_of_their_scalars(seed):
    rng = random.Random(seed)
    pf = random_pfraction(rng, 12, 4)
    data = json.loads(pf.to_json())
    for t in data["terms"]:
        t["p"] = [_unreduced(F(c), rng) for c in t["p"]]
    text = json.dumps(data)
    for exact_parse in (False, True):
        back = PFraction.from_json(text, exact_parse=exact_parse)
        assert back.terms == pf.terms
        for got, t in zip(back.terms, data["terms"]):
            want = Polynomial([parse_scalar(c, exact_parse) for c in t["p"]])
            assert (got.p._num, got.p._den) == (want._num, want._den)


def test_json_blocks_with_decimals_stay_float():
    text = json.dumps({"terms": [{"epsilon": 1, "b_squared": "1",
                                  "p": ["0.5", "-1/2", "1"]}]})
    block = PFraction.from_json(text).terms[0].p
    want = Polynomial([0.5, F(-1, 2), F(1)])
    assert block._num is None and block.coeffs == want.coeffs
    assert [type(c) for c in block.coeffs] == [float, F, F]
    exact = PFraction.from_json(text, exact_parse=True).terms[0].p
    assert exact == Polynomial([F(1, 2), F(-1, 2), F(1)])


def test_json_block_refusals():
    def parse(p):
        return PFraction.from_json(json.dumps(
            {"terms": [{"epsilon": 1, "b_squared": "1", "p": p}]}))
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(3, 0\)$"):
        parse(["3/0", "1"])
    with pytest.raises(ValueError, match="monic"):
        parse(["0", "2/1"])
    with pytest.raises(ValueError, match="monic"):
        parse([])
    with pytest.raises(ValueError):
        parse(["1_0/x", "1"])
    assert parse(["1_0", "3/3"]).terms[0].p == Polynomial([F(10), F(1)])


PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError, OpenCoupling)


def _parsed(terms, exact_parse):
    """repr of the parsed terms, or the type of what the parse raises (==
    does not see the ring: Fraction(1) == 1.0)."""
    try:
        return repr(PFraction.from_data({"terms": terms}, exact_parse).terms)
    except PARSE_ERRORS as exc:
        return type(exc)


def _parsed_alone(terms, exact_parse):
    """_parsed with every term parsed by itself: the first failure, else the
    fraction of the terms so parsed."""
    alone = []
    for t in terms:
        try:
            alone += PFraction.from_data({"terms": [t]}, exact_parse).terms
        except PARSE_ERRORS as exc:
            return type(exc)
    try:
        return repr(PFraction(tuple(alone)).terms)
    except OpenCoupling:
        return OpenCoupling


# values of epsilon, b_squared and p that parse (per field), and the values
# equal to them under == that may not
GOOD = {"epsilon": [1, 1.0, "1", -1, "-1", -1.0],
        "b_squared": [1, 1.0, "1", "1.0", "1/2", 0.5, None],
        "p": [1, 1.0, "1", "1/2", -0.0, 0.0, "0", "-0.0", 0]}
ONES = [1, 1.0, "1", True, False, "1.0", -1, 1.5, -0.0, 0.0, "0", None]
# values equal under == (and in hash) that parse differently or fail
TWINS = [[1, 1.0, True], [0, 0.0, -0.0, False], [-1, -1.0]]


def _twin(t, rng):
    """t with one value replaced by an equal value of another type or sign
    (t itself when it has none, or is not a dict of the three fields)."""
    if not (isinstance(t, dict) and {"epsilon", "b_squared"} <= t.keys()
            and isinstance(t.get("p"), list)):
        return t
    values = [("epsilon", None), ("b_squared", None)] + [("p", i) for i in range(len(t["p"]))]
    rng.shuffle(values)
    for field, i in values:
        v = t[field] if i is None else t[field][i]
        for group in TWINS:
            if any(type(v) is type(w) and repr(v) == repr(w) for w in group):
                other = rng.choice([w for w in group if repr(w) != repr(v)])
                twin = {**t, "p": list(t["p"])}
                if i is None:
                    twin[field] = other
                else:
                    twin["p"][i] = other
                return twin
    return t


def test_repeated_terms_parse_as_each_term_alone():
    # from_data parses each distinct term once; its key must keep apart the
    # values 1 == 1.0 == True and -0.0 == 0.0, which parse differently or
    # fail, so that a bad term repeating a good-looking one is still refused
    rng = random.Random(19)

    def value(field):
        return rng.choice(GOOD[field] if rng.random() < 0.9 else ONES)

    pool = [{"epsilon": value("epsilon"), "b_squared": value("b_squared"),
             "p": [value("p") for _ in range(rng.randint(0, 2))]
             + [rng.choice([1, 1.0, "1", True, "1/1"])]} for _ in range(40)]
    pool += [{"b_squared": "1", "p": ["1"]}, {"epsilon": 1, "p": "01"},
             {"epsilon": 1, "b_squared": "1", "p": [["0"], "1"]}, ["1"]]
    outcomes = set()
    for _ in range(600):
        terms = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        terms += [rng.choice(terms) for _ in range(rng.randint(0, 3))]
        terms += [_twin(rng.choice(terms), rng) for _ in range(rng.randint(0, 3))]
        rng.shuffle(terms)
        for exact_parse in (False, True):
            want = _parsed_alone(terms, exact_parse)
            assert _parsed(terms, exact_parse) == want, terms
            outcomes.add(want if isinstance(want, type) else str)
    assert {str, ValueError, OpenCoupling} <= outcomes


def test_repeated_term_memo_keeps_the_ring_and_the_refusals():
    good = {"epsilon": 1, "b_squared": "1", "p": ["0", "1"]}
    mixed = [good, {"epsilon": 1.0, "b_squared": 1, "p": [0, 1]},
             {"epsilon": "1", "b_squared": 1.0, "p": [0.0, 1.0]},
             {"epsilon": 1, "b_squared": "1", "p": [-0.0, 1]}]
    pf = PFraction.from_data({"terms": mixed})
    assert [type(t.b_squared) for t in pf.terms] == [F, F, float, F]
    assert [type(t.p.coeffs[0]) for t in pf.terms] == [F, F, float, float]
    assert repr(pf.terms[3].p.coeffs[0]) == "-0.0"
    zeros = PFraction.from_data({"terms": [mixed[2], {**mixed[2], "p": [-0.0, 1.0]}]})
    assert [repr(t.p.coeffs[0]) for t in zeros.terms] == ["0.0", "-0.0"]
    assert all(type(t.b_squared) is F for t in
               PFraction.from_data({"terms": mixed}, exact_parse=True).terms)
    for bad in ({**good, "epsilon": True}, {**good, "epsilon": 1.5},
                {**good, "b_squared": True}, {**good, "b_squared": "0"},
                {**good, "p": ["0", "2"]}, {**good, "p": [False, "1"]}):
        with pytest.raises(ValueError):
            PFraction.from_data({"terms": [good, good, bad, good]})
    with pytest.raises(KeyError):
        PFraction.from_data({"terms": [good, {"b_squared": "1", "p": ["0", "1"]}]})


def test_interior_open_coupling_rejected():
    coupled, open_ = PFractionTerm(1, F(1), x), PFractionTerm(1, None, x)
    with pytest.raises(OpenCoupling):
        PFraction((coupled, open_, coupled))
    last_open = PFraction((coupled, coupled, open_))
    data = json.loads(last_open.to_json())
    data["terms"][1]["b_squared"] = None
    with pytest.raises(OpenCoupling):
        PFraction.from_json(json.dumps(data))
    assert PFraction.from_json(last_open.to_json()).terms == last_open.terms


def test_normal_index():
    pf = catalan_pfraction(4)
    assert pf.normal_index(3) == 3
