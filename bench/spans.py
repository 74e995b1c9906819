"""Span recorder for the benchmark's traced run.

install() wraps every public function of every loaded gjacobi module (of
gjacobi.cli only main), at its module attribute and at every `from ...
import` binding of it, plus Polynomial.__mul__/__rmul__ (span "poly.mul")
and SpectrumScan.to_csv (span "periodic.to_csv").  Spans are
(name, start, end, parent, job) rows kept in memory; the wrappers also count
the work sizes named in WORK below.  uninstall() puts the originals back, so
untraced runs execute the program untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter


def _bits(c):
    if hasattr(c, "denominator"):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return 0


def _series_mul_products(a, b, n):
    return sum(min(len(b), n - i) for i in range(min(len(a), n)))


def _poly_mul(poly_module):
    def measure(args, result):
        a = args[0].coeffs
        if not isinstance(args[1], poly_module.Polynomial):
            return {"coeff_products": len(a)}
        b = args[1].coeffs
        cutoff = getattr(poly_module, "KARATSUBA_CUTOFF", None)
        karatsuba = cutoff is not None and min(len(a), len(b)) > cutoff
        return {"coeff_products": len(a) * len(b), "poly_products": 1,
                "karatsuba": int(karatsuba)}
    return measure


def _generate(args, result):
    last = result.Phat[-1].coeffs + result.Qhat[-1].coeffs
    return {"terms": result.j_max, "max_coeff_bits": max(map(_bits, last), default=0)}


# span name -> work measured from the positional arguments and the result
WORK = {
    "series.series_inv": lambda args, r: {"coeffs": args[1]},
    "series.series_mul": lambda args, r: {"coeff_products": _series_mul_products(*args)},
    "polyrec.generate": _generate,
    "pade.diagonal": lambda args, r: {
        "gcd_nontrivial": int(r.order < args[0].Phat[args[1]].degree)},
    "periodic.scan": lambda args, r: {"points": r.nx * r.ny},
    "periodic.to_csv": lambda args, r: {"bytes": len(r)},
}
MAX_KINDS = {"max_coeff_bits"}


class Recorder:
    """Spans and work counters of the traced jobs."""

    def __init__(self):
        self.spans = []
        self.work = Counter()
        self.maxima = {}
        self.job = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                self._count(name, measure(args, result))
            return result
        return traced

    def _count(self, name, work):
        for kind, v in work.items():
            key = f"{name}.{kind}"
            if kind in MAX_KINDS:
                self.maxima[key] = max(self.maxima.get(key, 0), v)
            else:
                self.work[key] += v

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "gjacobi" or n.startswith("gjacobi."))]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (short == "cli" and attr != "main")):
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self._wrap(obj, name, WORK.get(name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        poly = sys.modules["gjacobi.poly"]
        mul = self._wrap(poly.Polynomial.__mul__, "poly.mul", _poly_mul(poly))
        self._patch(poly.Polynomial, "__mul__", mul)
        self._patch(poly.Polynomial, "__rmul__", mul)
        scan_cls = sys.modules["gjacobi.periodic"].SpectrumScan
        self._patch(scan_cls, "to_csv", self._wrap(scan_cls.to_csv, "periodic.to_csv",
                                                   WORK["periodic.to_csv"]))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_totals(self):
        """Per span name: calls and self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def dump(self, fh):
        """Write the spans as JSON lines [name, start, end, parent, job]."""
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")
