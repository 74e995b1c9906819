"""Per-job output checks for the gjacobi benchmark.

Each check compares one job's output with the reference the generator wrote,
or with an evaluation written here that shares no code with gjacobi.  It
returns (ok, detail); detail is a short reason when ok is False.  Only
stdout and the files a job writes are read: never its free-text stderr.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

PADE_REL_TOL = 1e-6
CERTIFY_Q_RANGE = (0.35, 0.42)
LO_DEFECT_TOL = 1e-10
E_SET_DIST = 0.02       # E labels vs [-1,1] U [-i,i] for the period-1 example
TRACE_REL_TOL = 1e-9
TRACE_SAMPLE_STRIDE = 97


def _load(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


def _terms(pf_json):
    return [(t["epsilon"], Fraction(t["b_squared"]), [Fraction(c) for c in t["p"]])
            for t in pf_json["terms"]]


def _horner(coeffs, x):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def cf_value(terms, lam):
    """-F(lam) of the finite fraction, by the backward continued fraction.

    This is the value of the diagonal approximant -Qhat_j/Phat_j with j =
    len(terms), computed without expanding any polynomial.
    """
    f = 0j
    for eps, b2, p in reversed(terms):
        f = eps / (_horner(p, lam) - eps * float(b2) * f)
    return -f


def _complex(text):
    re, im = (float(v) for v in text.split(","))
    return complex(re, im)


def check_expand(job, stdout, workdir, info):
    ref = _terms(_load(workdir, job["check"]["pf"]))
    got = _terms(json.loads(stdout))
    if got != ref:
        return False, "expanded terms differ from the generating terms"
    return True, ""


def check_moments(job, stdout, workdir, info):
    chk = job["check"]
    ref = [Fraction(v) for v in _load(workdir, chk["moments"])["moments"]]
    got = [Fraction(v) for v in json.loads(stdout)["moments"]]
    n = chk["certified"]
    if len(got) != len(ref) or got[:n] != ref[:n]:
        return False, f"moments differ from the input on the certified range 0..{n - 1}"
    return True, ""


def check_pade(job, stdout, workdir, info):
    chk = job["check"]
    terms = _terms(_load(workdir, chk["pf"]))
    lam = _complex(chk["lambda"])
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if [int(r["j"]) for r in rows] != list(range(1, chk["orders"] + 1)):
        return False, "pade table rows do not match the requested orders"
    worst = 0.0
    for r in rows:
        j = int(r["j"])
        if int(r["n_j"]) != sum(len(p) - 1 for _, _, p in terms[:j]):
            return False, f"row {j}: wrong n_j"
        if r["value_re"] == "pole":
            return False, f"row {j}: pole reported"
        ref = cf_value(terms[:j], lam)
        got = complex(float(r["value_re"]), float(r["value_im"]))
        worst = max(worst, abs(got - ref) / abs(ref))
    info["pade_rel_err"] = max(info.get("pade_rel_err", 0.0), worst)
    if worst > PADE_REL_TOL:
        return False, f"pade values off by {worst:.3g} relative"
    return True, ""


def check_certify(job, stdout, workdir, info):
    cert = json.loads(stdout)
    verdict, q = cert["verdict"], cert["q"]
    expect = job["check"]["expect"]
    if expect == "certified_q":
        ok = verdict == "certified_decay" and CERTIFY_Q_RANGE[0] <= q <= CERTIFY_Q_RANGE[1]
    elif expect == "certified":
        ok = verdict == "certified_decay"
    else:
        ok = verdict != "certified_decay"
    return ok, "" if ok else f"verdict {verdict} (q={q:.4g}, C={cert['C']:.3g}), expected {expect}"


def _dist_to_cross(z):
    """Distance from points z to [-1, 1] U [-i, i]."""
    d_re = np.hypot(np.maximum(np.abs(z.real) - 1.0, 0.0), np.abs(z.imag))
    d_im = np.hypot(np.abs(z.real), np.maximum(np.abs(z.imag) - 1.0, 0.0))
    return np.minimum(d_re, d_im)


def monodromy_trace(terms, lam):
    """trace of W_0 ... W_{s-1}, W_j = [[0, -eps/b], [eps b, p_j/b]], at lam."""
    lam = np.asarray(lam, dtype=complex)
    one, zero = np.ones_like(lam), np.zeros_like(lam)
    a, b, c, d = one, zero, zero, one
    for eps, b2, p in terms:
        bj = math.sqrt(float(b2))
        pj = np.zeros_like(lam)
        for coeff in reversed(p):
            pj = pj * lam + float(coeff)
        # [[a, b], [c, d]] @ [[0, -eps/bj], [eps*bj, pj/bj]]
        a, b, c, d = (b * eps * bj, -a * eps / bj + b * pj / bj,
                      d * eps * bj, -c * eps / bj + d * pj / bj)
    return a + d


def check_spectrum(job, stdout, workdir, info):
    chk = job["check"]
    n = chk["grid"] * chk["grid"]
    summary = json.loads(stdout)
    counts = summary["label_counts"]
    if sum(counts.values()) != n:
        return False, f"label counts sum to {sum(counts.values())}, not {n}"
    with open(os.path.join(workdir, chk["out"])) as fh:
        lines = fh.read().splitlines()[1:]
    if len(lines) != n:
        return False, f"{len(lines)} CSV rows, expected {n}"
    for label, k in counts.items():
        if sum(1 for ln in lines if f",{label}," in ln) != k:
            return False, f"CSV count of label {label} differs from the summary"
    sample = [ln.split(",") for ln in lines[::TRACE_SAMPLE_STRIDE]]
    lam = np.array([complex(float(r[0]), float(r[1])) for r in sample])
    got = np.array([complex(float(r[3]), float(r[4])) for r in sample])
    ref = monodromy_trace(_terms(_load(workdir, chk["pf"])), lam)
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    if err.max() > TRACE_REL_TOL:
        return False, f"monodromy trace off by {err.max():.3g}"
    if chk["period1"]:
        if counts.get("E_p", 0) or summary["ep_points"]:
            return False, "E_p points reported for the period-1 example"
        e = [ln.split(",", 2) for ln in lines if ",E," in ln]
        z = np.array([complex(float(r[0]), float(r[1])) for r in e])
        if not len(z) or _dist_to_cross(z).max() > E_SET_DIST:
            return False, "E labels stray from [-1,1] U [-i,i]"
        t = np.linspace(-1.0, 1.0, 201)
        targets = np.concatenate([t + 0j, 1j * t])
        gap = np.abs(targets[:, None] - z[None, :]).min(axis=1).max()
        if gap > E_SET_DIST:
            return False, f"[-1,1] U [-i,i] not covered by E labels (gap {gap:.3g})"
    return True, ""


def check_identities(job, result, workdir, info):
    chk = job["check"]
    seqs, residuals, defects, coprime, charpoly, mom = result
    if not all(r.is_zero for r in residuals):
        return False, "Liouville-Ostrogradsky residual is not the zero polynomial"
    if max(defects) > LO_DEFECT_TOL:
        return False, f"Wronskian defect {max(defects):.3g} at a point"
    if not coprime.all_coprime:
        return False, "recurrence polynomials share a factor"
    if charpoly != seqs.Phat[seqs.j_max]:
        return False, "truncation charpoly differs from Phat"
    if list(mom.coeffs) != [Fraction(v) for v in chk["moments"]]:
        return False, "moments_from_matrix differs from the reference moments"
    return True, ""


CLI_CHECKS = {"expand": check_expand, "moments": check_moments, "pade": check_pade,
              "certify": check_certify, "spectrum": check_spectrum}


def check(job, result, workdir, info):
    """Dispatch to the job's check; info collects worst-case figures."""
    if job["kind"] == "identities":
        return check_identities(job, result, workdir, info)
    return CLI_CHECKS[job["check"]["kind"]](job, result, workdir, info)
