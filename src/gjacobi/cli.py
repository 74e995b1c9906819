"""Command-line pipeline: moments -> P-fraction -> matrix -> Pade/spectral/
periodic outputs.

Exit codes: 0 success, 1 internal error, 2 input parse failure,
3 insufficient or degenerate moment data, 4 pole at every requested order,
5 period does not divide the term count.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gjmatrix, pade, periodic, polyrec, spectral
from .errors import (AllZero, DegreeCapExceeded, GJacobiError,
                     InsufficientMoments, PoleAtLambda)
from .moments import MomentSequence, normal_indices
from .pfraction import PFraction, expand, to_moments
from .poly import Polynomial

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DATA = 3
EXIT_POLE = 4
EXIT_PERIOD = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_complex(text):
    try:
        re, im = (float(v) for v in text.split(","))
    except ValueError:
        raise CliError(EXIT_PARSE, f"expected 're,im', got {text!r}")
    return complex(re, im)


def _parse_region(text):
    try:
        vals = [float(v) for v in text.split(",")]
        xmin, xmax, ymin, ymax = vals
    except ValueError:
        raise CliError(EXIT_PARSE, f"expected 'xmin,xmax,ymin,ymax', got {text!r}")
    if xmax <= xmin or ymax <= ymin:
        raise CliError(EXIT_PARSE, "region bounds must be increasing")
    return xmin, xmax, ymin, ymax


def _parse_orders(text):
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            out = list(range(lo, hi + 1))
        else:
            out = [int(v) for v in text.split(",")]
    except ValueError:
        raise CliError(EXIT_PARSE, f"bad order list {text!r}")
    if not out or any(j < 1 for j in out):
        raise CliError(EXIT_PARSE, "orders must be positive")
    return out


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")


def _load_input(path, exact):
    """Either a MomentSequence or a PFraction, keyed on the JSON shape."""
    data = _load_json(path)
    text = json.dumps(data)
    try:
        if "moments" in data:
            return MomentSequence.from_json(text, exact_parse=exact)
        if "terms" in data:
            return PFraction.from_json(text, exact_parse=exact)
    except (ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise CliError(EXIT_PARSE, f"malformed input: {exc}")
    raise CliError(EXIT_PARSE, "input needs a 'moments' or 'terms' key")


def _as_pfraction(obj, max_terms, degree_cap):
    if isinstance(obj, PFraction):
        return obj
    try:
        return expand(obj, max_terms, degree_cap)
    except (InsufficientMoments, DegreeCapExceeded, AllZero) as exc:
        raise CliError(EXIT_DATA, str(exc))


def _extend_cyclic(pf, n_terms):
    """Repeat the coefficient pattern so certify can reach its surrogate depth."""
    if len(pf) >= n_terms:
        return pf
    if pf.status == "terminated":
        raise CliError(EXIT_DATA,
                       "cannot extend a terminated fraction to the requested depth")
    pattern = pf.terms
    if pattern and pattern[-1].b_squared is None:
        pattern = pattern[:-1]  # coupling unknown, not absent; drop from pattern
    if not pattern or any(t.b_squared is None for t in pattern):
        raise CliError(EXIT_DATA, "too few coupled terms to extend cyclically")
    terms = tuple(pattern[i % len(pattern)] for i in range(n_terms))
    return PFraction(terms, status=pf.status, degree_cap=pf.degree_cap)


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


REFERENCES = {
    # Weyl function of the constant-coefficient single-step data (the branch
    # decaying at infinity)
    "sqrt-catalan": lambda lam: (-lam + (lam * lam - 4) ** 0.5) / 2
    if abs(-lam + (lam * lam - 4) ** 0.5) <= abs(-lam - (lam * lam - 4) ** 0.5)
    else (-lam - (lam * lam - 4) ** 0.5) / 2,
}


def cmd_expand(args):
    obj = _load_input(args.input, args.exact)
    if isinstance(obj, PFraction):
        raise CliError(EXIT_PARSE, "expand needs a moments input")
    pf = _as_pfraction(obj, args.max_terms, args.degree_cap)
    degrees = pf.block_degrees()
    indices = [pf.normal_index(j + 1) for j in range(len(pf))]
    print(f"normal indices n_j: {indices}", file=sys.stderr)
    print(f"block degrees k_j: {list(degrees)}", file=sys.stderr)
    _write(args, pf.to_json())
    return EXIT_OK


def cmd_pade(args):
    obj = _load_input(args.input, args.exact)
    orders = _parse_orders(args.orders)
    lam = _parse_complex(args.lam)
    j_hi = max(orders)
    pf = _as_pfraction(obj, j_hi + 1, args.degree_cap)
    if len(pf) < j_hi:
        raise CliError(EXIT_DATA, f"only {len(pf)} terms, need {j_hi}")
    seqs = polyrec.generate(pf, j_hi)
    reference = REFERENCES.get(args.reference) if args.reference else None
    if args.reference and reference is None:
        raise CliError(EXIT_PARSE, f"unknown reference {args.reference!r}")
    table = pade.convergence_run(seqs, lam, orders, reference)
    if all(r.value is None for r in table.rows):
        raise CliError(EXIT_POLE, "every requested order has a pole at lambda")
    if isinstance(obj, MomentSequence):
        for j in orders:
            appr = pade.diagonal(seqs, j)
            try:
                mo = pade.match_order(appr, obj)
            except InsufficientMoments:
                continue
            print(f"j={j} n_j={appr.order} match_order={mo}", file=sys.stderr)
    if table.ratio is not None:
        print(f"fitted error ratio: {table.ratio}", file=sys.stderr)
    _write(args, table.to_csv())
    return EXIT_OK


def cmd_spectrum(args):
    obj = _load_input(args.input, args.exact)
    if not isinstance(obj, PFraction):
        raise CliError(EXIT_PARSE, "spectrum needs a pfraction input")
    s = args.period
    if s < 1 or len(obj) % s != 0:
        raise CliError(EXIT_PERIOD,
                       f"period {s} does not divide term count {len(obj)}")
    if any(t.b_squared is None for t in obj.terms[:s]):
        raise CliError(EXIT_DATA, "periodic data needs couplings on all terms")
    pg = periodic.PeriodicGJM(obj.terms[:s])
    mono = periodic.monodromy(pg)
    region = _parse_region(args.region)
    grid = args.grid.split(",")
    nx = int(grid[0])
    ny = int(grid[1]) if len(grid) > 1 else nx
    sc = periodic.scan(mono, pg, region, nx, ny, args.tol, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(sc.to_csv())
        with open(args.out + ".summary.json", "w") as fh:
            fh.write(sc.summary_json())
    print(sc.summary_json())
    return EXIT_OK


def cmd_certify(args):
    obj = _load_input(args.input, args.exact)
    lam = _parse_complex(args.lam)
    J = args.depth
    pf = _as_pfraction(obj, J + 1, args.degree_cap)
    deep = 4 * J  # deep-truncation surrogate for the operator m-function
    pf = _extend_cyclic(pf, deep + 2)
    try:
        m_value = gjmatrix.m_truncation(pf, deep, lam)
    except PoleAtLambda as exc:
        raise CliError(EXIT_POLE, str(exc))
    cert = spectral.resolvent_certificate(pf, lam, m_value, J)
    _write(args, cert.to_json())
    return EXIT_OK


def cmd_moments(args):
    obj = _load_input(args.input, args.exact)
    if not isinstance(obj, PFraction):
        raise CliError(EXIT_PARSE, "moments needs a pfraction input")
    try:
        s = to_moments(obj, args.count)
    except (ValueError, GJacobiError) as exc:
        raise CliError(EXIT_DATA, str(exc))
    if s.certified_up_to is not None:
        print(f"certified through index {s.certified_up_to}", file=sys.stderr)
    _write(args, s.to_json())
    return EXIT_OK


def cmd_selftest(args):
    checks = []
    x = Polynomial.x()
    from .pfraction import PFractionTerm

    cat = PFraction(tuple(PFractionTerm(1, Fraction(1), x) for _ in range(12)),
                    degree_cap=1)
    seqs = polyrec.generate(cat, 10)
    checks.append(("liouville-ostrogradsky",
                   all(polyrec.lo_polynomial_residual(seqs, j).is_zero
                       for j in range(9))))
    s = to_moments(cat, 12)
    pf2 = expand(s, 12, 3)
    checks.append(("round-trip", pf2.terms[:5] == cat.terms[:5]))
    ni = normal_indices(s, 6)
    checks.append(("normal-indices", ni.indices == (1, 2, 3, 4, 5, 6)))
    per = periodic.PeriodicGJM((PFractionTerm(1, Fraction(1, 4), x * x),))
    mono = periodic.monodromy(per)
    checks.append(("monodromy-trace", mono.trace.coeffs == (0.0, 0.0, 2.0)))
    ok = True
    for name, passed in checks:
        print(f"{name}: {'ok' if passed else 'FAIL'}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_INTERNAL


def build_parser():
    p = argparse.ArgumentParser(prog="gjacobi", description=__doc__)
    ring = p.add_mutually_exclusive_group()
    ring.add_argument("--exact", dest="exact", action="store_true", default=True,
                      help="parse scalars as exact rationals (default)")
    ring.add_argument("--float", dest="exact", action="store_false",
                      help="parse scalars as floats")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="moments JSON -> P-fraction JSON")
    sp.add_argument("input")
    sp.add_argument("--max-terms", type=int, default=16)
    sp.add_argument("--degree-cap", type=int, default=6)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("pade", help="diagonal approximant convergence table")
    sp.add_argument("input")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--orders", default="1..8")
    sp.add_argument("--reference", default=None)
    sp.add_argument("--degree-cap", type=int, default=6)
    sp.set_defaults(func=cmd_pade)

    sp = sub.add_parser("spectrum", help="periodic spectrum grid scan")
    sp.add_argument("input")
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--region", default="-2,2,-2,2")
    sp.add_argument("--grid", default="200")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("certify", help="resolvent-point decay certificate")
    sp.add_argument("input")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--depth", type=int, default=40)
    sp.add_argument("--degree-cap", type=int, default=6)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("moments", help="P-fraction JSON -> moments JSON")
    sp.add_argument("input")
    sp.add_argument("--count", type=int, default=16)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("selftest", help="quick internal consistency checks")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (InsufficientMoments, DegreeCapExceeded, AllZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PoleAtLambda as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLE
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
