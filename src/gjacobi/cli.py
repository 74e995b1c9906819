"""Command-line pipeline: moments -> P-fraction -> matrix -> Pade/spectral/
periodic outputs.

certify reads the 4*depth+1 terms of H_[0,4*depth] and invents none.

Exit codes: 0 success, 1 internal error (a bug), 2 input parse failure or
an unwritable --out, 3 any other library error (insufficient, degenerate or out-of-range data),
4 pole at lambda, 5 the terms do not repeat with the period.  Arguments
are parsed before any computation, so exit 2 comes before 3 and 5.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import accumulate

from . import pade, periodic, polyrec, spectral
from .errors import GJacobiError, InsufficientMoments, OutOfRange, PoleAtLambda
from .moments import MomentSequence, normal_indices, normalize
from .pfraction import PFraction, PFractionTerm, expand, to_moments
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
    if not (math.isfinite(re) and math.isfinite(im)):
        raise CliError(EXIT_PARSE, f"lambda must be finite, got {text!r}")
    return complex(re, im)


def _parse_region(text):
    try:
        vals = [float(v) for v in text.split(",")]
        xmin, xmax, ymin, ymax = vals
    except ValueError:
        raise CliError(EXIT_PARSE, f"expected 'xmin,xmax,ymin,ymax', got {text!r}")
    if not all(map(math.isfinite, vals)):
        raise CliError(EXIT_PARSE, f"region bounds must be finite, got {text!r}")
    if xmax <= xmin or ymax <= ymin:
        raise CliError(EXIT_PARSE, "region bounds must be increasing")
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise CliError(EXIT_PARSE, f"region width overflows a float, got {text!r}")
    return xmin, xmax, ymin, ymax


def _parse_grid(text):
    try:
        dims = [int(v) for v in text.split(",")]
        nx, ny = dims * 2 if len(dims) == 1 else dims
    except ValueError:
        raise CliError(EXIT_PARSE, f"expected 'n' or 'nx,ny', got {text!r}")
    return nx, ny


def _parse_orders(text):
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            out = list(range(lo, hi + 1))
        else:
            out = [int(v) for v in text.split(",")]
    except ValueError:
        raise CliError(EXIT_PARSE, f"bad order list {text!r}")
    if not out:
        raise CliError(EXIT_PARSE, f"empty order range {text!r}")
    if any(j < 1 for j in out):
        raise CliError(EXIT_PARSE, "orders must be positive")
    return out


def _load_input(path, exact):
    """Either a MomentSequence or a PFraction, keyed on the JSON shape."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        if "moments" in data:
            return MomentSequence.from_data(data, exact_parse=exact)
        if "terms" in data:
            return PFraction.from_data(data, exact_parse=exact)
    except (ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise CliError(EXIT_PARSE, f"malformed input: {exc}")
    raise CliError(EXIT_PARSE, "input needs a 'moments' or 'terms' key")


def _as_pfraction(obj, max_terms, degree_cap):
    return obj if isinstance(obj, PFraction) else expand(obj, max_terms, degree_cap)


def _write(path, text):
    if path:
        _write_file(path, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_file(path, write):
    """Open path for text and call write(fh) on it; OSError exits 2."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}")


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
    indices = list(accumulate(degrees))
    print(f"normal indices n_j: {indices}", file=sys.stderr)
    print(f"block degrees k_j: {list(degrees)}", file=sys.stderr)
    _write(args.out, pf.to_json())
    return EXIT_OK


def cmd_pade(args):
    obj = _load_input(args.input, args.exact)
    orders = _parse_orders(args.orders)
    lam = _parse_complex(args.lam)
    reference = REFERENCES.get(args.reference) if args.reference else None
    if args.reference and reference is None:
        raise CliError(EXIT_PARSE, f"unknown reference {args.reference!r}")
    j_hi = max(orders)
    pf = _as_pfraction(obj, j_hi + 1, args.degree_cap)
    seqs = polyrec.generate(pf, j_hi)
    table = pade.convergence_run(seqs, lam, orders, reference)
    if all(r.value is None for r in table.rows):
        raise CliError(EXIT_POLE, "every requested order has a pole at lambda")
    if isinstance(obj, MomentSequence):
        series = normalize(obj)  # what expand expanded
        if series.scale != 1:
            print("the table is for the moments divided by", series.scale, file=sys.stderr)
        for j in orders:
            appr = pade.diagonal(seqs, j)
            try:
                mo = pade.match_order(appr, series)
            except InsufficientMoments:
                continue
            print(f"j={j} n_j={appr.order} match_order={mo}", file=sys.stderr)
    if table.ratio is not None:
        print(f"fitted error ratio: {table.ratio}", file=sys.stderr)
    _write(args.out, table.to_csv())
    return EXIT_OK


def cmd_spectrum(args):
    obj = _load_input(args.input, args.exact)
    if not isinstance(obj, PFraction):
        raise CliError(EXIT_PARSE, "spectrum needs a pfraction input")
    region = _parse_region(args.region)
    nx, ny = _parse_grid(args.grid)
    s = args.period
    if s < 1 or len(obj) % s != 0:
        raise CliError(EXIT_PERIOD,
                       f"period {s} does not divide term count {len(obj)}")
    pattern = obj.terms[:s]
    for j, t in enumerate(obj.terms[s:], s):
        ref = pattern[j % s]  # only the last term may be open
        if ((t.epsilon, t.p) != (ref.epsilon, ref.p)
                or t.b_squared not in (None, ref.b_squared)):
            raise CliError(EXIT_PERIOD,
                           f"term {j} differs from term {j % s}: not {s}-periodic")
    sc = periodic.scan(periodic.PeriodicGJM(pattern), region, nx, ny, args.tol)
    summary = sc.summary_json()
    if args.out:
        _write_file(args.out, sc.write_csv)
        _write(args.out + ".summary.json", summary)
    print(summary)
    return EXIT_OK


def cmd_certify(args):
    obj = _load_input(args.input, args.exact)
    lam = _parse_complex(args.lam)
    J = args.depth
    if J < spectral.MIN_DEPTH:  # before 4J indexes anything
        raise OutOfRange(f"need J >= {spectral.MIN_DEPTH}")
    deep = 4 * J  # m and W are those of the truncation H_[0,4J]
    pf = _as_pfraction(obj, deep + 1, args.degree_cap)
    if len(pf) < deep + 1:
        raise CliError(EXIT_DATA, f"certify --depth {J} needs {deep + 1} terms, "
                                  f"the input gives {len(pf)}")
    cert = spectral.resolvent_certificate(PFraction(pf.terms[:deep + 1]), lam, J)
    _write(args.out, cert.to_json())
    return EXIT_OK


def cmd_moments(args):
    obj = _load_input(args.input, args.exact)
    if not isinstance(obj, PFraction):
        raise CliError(EXIT_PARSE, "moments needs a pfraction input")
    s = to_moments(obj, args.count)
    if s.certified_up_to is not None:
        print(f"certified through index {s.certified_up_to}", file=sys.stderr)
    _write(args.out, s.to_json())
    return EXIT_OK


def cmd_selftest(args):
    checks = []
    x = Polynomial.x()
    cat = PFraction(tuple(PFractionTerm(1, Fraction(1), x) for _ in range(12)))
    seqs = polyrec.generate(cat, 10)
    checks.append(("liouville-ostrogradsky",
                   all(polyrec.lo_polynomial_residual(seqs, j).is_zero
                       for j in range(9))))
    s = to_moments(cat, 12)
    pf2 = expand(s, 12, 3)
    checks.append(("round-trip", pf2.terms[:5] == cat.terms[:5]))
    ni = normal_indices(s, 6)
    checks.append(("normal-indices", ni == (1, 2, 3, 4, 5, 6)))
    per = periodic.PeriodicGJM((PFractionTerm(1, Fraction(1, 4), x * x),))
    checks.append(("monodromy-trace", per.trace.coeffs == (0.0, 0.0, 2.0)))
    ok = True
    for name, passed in checks:
        print(f"{name}: {'ok' if passed else 'FAIL'}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_INTERNAL


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="gjacobi", description=__doc__)
    p.add_argument("--float", dest="exact", action="store_false",
                   help="parse decimal scalars as floats (default: exact rationals)")
    p.add_argument("--tol", type=float, default=1e-3)
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
    try:
        if not 0 < args.tol < math.inf:
            raise CliError(EXIT_PARSE, "--tol must be positive and finite")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GJacobiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLE if isinstance(exc, PoleAtLambda) else EXIT_DATA
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
