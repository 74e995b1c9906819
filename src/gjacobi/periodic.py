"""Periodic coefficient data and its monodromy: the transfer matrix over one
period, the Floquet multipliers it gives, the eigenvalues E_p (the roots of
P_{s-1} that eigenvalues() keeps) and the grid scan of the multiplier set E,
whose E_p cells are the cells nearest those eigenvalues.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import BadRange, EmptyPFraction, OpenCoupling
from .pfraction import PFraction
from .poly import Polynomial

# the spectrum labels in sorted order; SpectrumScan.labels holds uint8
# indices into LABELS, and classify returns the strings
LABELS = ("E", "E_p", "resolvent")
CODE_E, CODE_EP, CODE_RESOLVENT = range(len(LABELS))
# relative rounding margin by which |w11| must exceed |w22| at a root of
# P_{s-1} for the root to count as an eigenvalue
EP_MARGIN = 1e-9
CSV_BLOCK = 8192  # rows per write of SpectrumScan.write_csv


@dataclass(frozen=True)
class PeriodicGJM:
    """One period of coefficient data, repeated cyclically, with its monodromy.

    T is the transfer matrix over one period and trace its trace polynomial,
    both built once from the exact recurrence pair at construction.  Entries:
    T = [[-eps b Q_{s-1}, -Q_s], [eps b P_{s-1}, P_s]] with eps = eps_{s-1},
    b = b_{s-1}; the multipliers at lambda are the roots of
    w^2 - t(lambda) w + 1 = 0 where t = trace T.

    With Pi = b_0^2 ... b_{s-1}^2 and c = eps_{s-1} b_{s-1}^2, T = Pi^(-1/2) M
    for M = [[-c Qhat_{s-1}, -Qhat_s], [c Phat_{s-1}, Phat_s]].  det M = Pi is
    the exact Liouville-Ostrogradsky identity at j = s-1, so det T = 1 up to
    the one rounding of each entry to float.  Equality and repr are those of
    the period data.
    """

    terms: tuple  # s PFractionTerms, each with a coupling
    # ((w11, w12), (w21, w22)), float Polynomials
    T: tuple = field(init=False, repr=False, compare=False)
    trace: Polynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from .polyrec import generate

        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise EmptyPFraction("period must contain at least one term")
        if any(t.b_squared is None for t in self.terms):
            raise OpenCoupling("periodic data needs a coupling on every term")
        s = self.period
        seqs = generate(self.unroll(s), s)
        P, Q = seqs.Phat, seqs.Qhat
        last = self.terms[-1]
        c = last.epsilon * last.b_squared
        scale = 1.0 / math.sqrt(float(seqs.b2_products[s]))
        object.__setattr__(self, "T", tuple(
            tuple(e.as_float().scale(scale) for e in row)
            for row in ((-c * Q[s - 1], -Q[s]), (c * P[s - 1], P[s]))))
        object.__setattr__(self, "trace", (P[s] - c * Q[s - 1]).as_float().scale(scale))

    @property
    def period(self):
        return len(self.terms)

    def unroll(self, n_terms) -> PFraction:
        """PFraction of n_terms cyclic repetitions of the period."""
        s = self.period
        terms = tuple(self.terms[i % s] for i in range(n_terms))
        return PFraction(terms)


def multipliers(pg: PeriodicGJM, lam):
    """Floquet multipliers (w_1, w_2), |w_1| >= |w_2|, w_1 w_2 = 1."""
    import numpy as np

    t = pg.trace(np.asarray(complex(lam)))  # numpy's arithmetic, as in scan
    w1 = complex(_larger_root(t))
    return w1, 1.0 / w1


def _larger_root(t):
    """Root of w^2 - t w + 1 = 0 of larger modulus, elementwise in t."""
    import numpy as np

    s = np.sqrt(t * t - 4.0)
    plus, minus = (t + s) / 2.0, (t - s) / 2.0
    return np.where(np.abs(plus) >= np.abs(minus), plus, minus)


def eigenvalues(pg: PeriodicGJM):
    """The eigenvalues E_p: the roots of w21 = eps b P_{s-1} (np.roots) at
    which |w11| exceeds |w22| by more than a rounding margin, i.e. the
    monodromy favours the decaying column.  At a root the multipliers are w11
    and w22 with w11 w22 = 1, so a tie |w11| = |w22| = 1 puts it on E.
    """
    import numpy as np

    (w11, _), (w21, w22) = pg.T
    ep = []
    for z in map(complex, np.roots(w21.coeffs[::-1])):
        v11, v22 = w11(z), w22(z)
        if abs(v11) - abs(v22) > EP_MARGIN * max(abs(v11), abs(v22)):
            ep.append(z)
    return tuple(ep)


def classify(pg: PeriodicGJM, lam, tol) -> str:
    """Label lambda as E_p (eigenvalue), E (multiplier set) or resolvent.

    E_p: lambda within distance tol of an entry of eigenvalues(pg).  E: trace
    within tol of the real interval [-2, 2].  Everything else: resolvent.
    """
    import numpy as np

    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = complex(lam)
    if any(abs(lam - z) <= tol for z in eigenvalues(pg)):
        return LABELS[CODE_EP]
    t = pg.trace(np.asarray(lam))  # numpy's arithmetic, as in scan
    return LABELS[CODE_E if _in_e(t, tol) else CODE_RESOLVENT]


def _in_e(t, slack):
    """Whether the trace values t lie within slack of [-2, 2], elementwise."""
    return (abs(t.imag) <= slack) & (t.real >= -2.0 - slack) & (t.real <= 2.0 + slack)


@dataclass(frozen=True)
class SpectrumScan:
    region: tuple        # (xmin, xmax, ymin, ymax)
    nx: int
    ny: int
    tol: float
    points: object       # complex array, shape (ny, nx), row-major by (row, col)
    labels: object       # uint8 array matching points, indices into LABELS
    trace_values: object
    w1_abs: object
    w2_abs: object
    ep_points: tuple     # eigenvalues(pg) in the region; each labels its nearest cell E_p

    def write_csv(self, fh):
        """Write the grid to the text stream fh as CSV, one row per point in
        row-major order: the header, then one fh.write per CSV_BLOCK rows,
        each one join of the (rows, 7) column texts that the indices pick.
        A float is written as repr, the shortest text that reads back to it.
        """
        import numpy as np

        columns = (self.points.real, self.points.imag, self.trace_values.real,
                   self.trace_values.imag, self.w1_abs, self.w2_abs)
        tables = [_distinct_reprs(c, sep) for c, sep in zip(columns, ",,,,,\n")]
        tables.insert(2, (np.array([name + "," for name in LABELS], dtype=object),
                          self.labels.reshape(-1)))
        fh.write("re,im,label,trace_re,trace_im,w1_abs,w2_abs\n")
        for i in range(0, self.labels.size, CSV_BLOCK):
            block = np.stack([t[ix[i:i + CSV_BLOCK]] for t, ix in tables], axis=1)
            fh.write("".join(block.reshape(-1).tolist()))

    def to_csv(self):
        """The text that write_csv writes, as one string."""
        import io
        out = io.StringIO()
        self.write_csv(out)
        return out.getvalue()

    def summary_json(self):
        import numpy as np

        counts = np.bincount(self.labels.reshape(-1), minlength=len(LABELS))
        return json.dumps({
            "region": list(self.region),
            "grid": [self.nx, self.ny],
            "tol": self.tol,
            "label_counts": {name: int(c) for name, c in zip(LABELS, counts) if c},
            "ep_points": [[z.real, z.imag] for z in self.ep_points],
        })


def scan(pg: PeriodicGJM, region, nx, ny, tol) -> SpectrumScan:
    """Classify a rectangular grid and list the eigenvalues E_p in the region.

    E labels are tolerance-dependent: the trace within tol of [-2, 2], tol
    widened by the trace's move across half a cell.  ep_points are the
    entries of eigenvalues(pg) within tol of the region, and each labels the
    grid cell nearest it E_p; that label wins over E.
    """
    import numpy as np

    if nx < 2 or ny < 2:
        raise BadRange("grid must be at least 2x2")
    xmin, xmax, ymin, ymax = region
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    Z = xs[None, :] + 1j * ys[:, None]

    t = pg.trace(Z)
    w1 = _larger_root(t)
    w2 = 1.0 / w1  # the roots multiply to 1, so |w1| >= 1
    # the grid can only resolve the trace condition to within one cell, so
    # widen tol by how far the trace moves across half a cell diagonal
    half_diag = 0.5 * math.hypot((xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1))
    slope = Polynomial(tuple(k * c for k, c in enumerate(pg.trace.coeffs))[1:])
    t_slack = tol + np.abs(slope(Z)) * half_diag
    labels = np.where(_in_e(t, t_slack), np.uint8(CODE_E), np.uint8(CODE_RESOLVENT))
    ep = tuple(z for z in eigenvalues(pg)
               if xmin - tol <= z.real <= xmax + tol and ymin - tol <= z.imag <= ymax + tol)
    for z in ep:
        labels[np.abs(ys - z.imag).argmin(), np.abs(xs - z.real).argmin()] = CODE_EP
    return SpectrumScan(region=tuple(region), nx=nx, ny=ny, tol=tol,
                        points=Z, labels=labels, trace_values=t,
                        w1_abs=np.abs(w1), w2_abs=np.abs(w2), ep_points=ep)


def _distinct_reprs(column, sep):
    """(texts, index): repr of each distinct float64 bit pattern of column
    (-0.0 apart from 0.0) followed by sep, as an object array, and the int32
    position of every entry's pattern in texts, row-major.
    """
    import numpy as np

    bits = np.ascontiguousarray(column, dtype=np.float64).reshape(-1).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    texts = [r + sep for r in map(repr, distinct.view(np.float64).tolist())]
    return np.array(texts, dtype=object), index.astype(np.int32)
