"""Seeded input generator for the gjacobi benchmark.

    python3 bench/gen.py --workload NAME --seed N --out DIR

Writes the JSON inputs the program receives into DIR, plus DIR/manifest.json:
one round of jobs, each with the reference answer its output is checked
against.  The references are computed here, in plain Fraction arithmetic that
shares no code with gjacobi, before the benchmark's timed phase starts.

Every input is sized so that no command has to extend a fraction cyclically:
moment data carries one coupling more than the fraction it expands to, and
certify inputs carry 4*depth + 2 terms.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

# Same distribution as tests/conftest.random_pfraction (copied, not imported,
# so the benchmark does not depend on the test tree).
B2_CHOICES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(2), Fraction(3), Fraction(4)]
MAX_DEGREE = 3

# A term is (epsilon, b_squared, p) with p the coefficient list, low to high.
CATALAN_TERM = (1, Fraction(1), [Fraction(0), Fraction(1)])
EXAMPLE64_TERM = (1, Fraction(1, 4), [Fraction(0), Fraction(0), Fraction(1)])


def random_term(rng, degree=None):
    k = rng.randint(1, MAX_DEGREE) if degree is None else degree
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
              for _ in range(k)] + [Fraction(1)]
    return (rng.choice([1, -1]), rng.choice(B2_CHOICES), coeffs)


def random_terms(rng, n_terms, normal_index):
    """n_terms random terms whose block degrees sum to normal_index.

    Rejection keeps the per-term distribution and fixes the size, so the
    cost of a job depends little on the seed.
    """
    while True:
        terms = [random_term(rng) for _ in range(n_terms)]
        if sum(len(t[2]) - 1 for t in terms) == normal_index:
            return terms


def moments(terms, count):
    """s_0..s_{count-1} of F_0, where F_j = eps_j / (p_j - eps_j b_j^2 F_{j+1}).

    Works on power series in z = 1/lambda, inside out, with series
    reciprocals by long division; F_j is kept as its coefficients of z^0..z^count.
    """
    f = [Fraction(0)] * (count + 1)
    for eps, b2, p in reversed(terms):
        k = len(p) - 1
        # D(z) = z^k p(1/z) - eps b^2 z^k F_{j+1}(z), with D(0) = 1
        d = [Fraction(0)] * (count + 1)
        for m, c in enumerate(p):
            d[k - m] += c
        for t in range(count + 1 - k):
            d[t + k] -= eps * b2 * f[t]
        inv = [Fraction(1)] + [Fraction(0)] * count
        for n in range(1, count + 1):
            inv[n] = -sum(d[m] * inv[n - m] for m in range(1, n + 1))
        f = [Fraction(0)] * k + [eps * v for v in inv[:count + 1 - k]]
    return f[1:count + 1]


def _frac(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def pfraction_json(terms):
    return {"terms": [{"epsilon": e, "b_squared": _frac(b2), "p": [_frac(c) for c in p]}
                      for e, b2, p in terms],
            "degree_cap": max(len(t[2]) - 1 for t in terms)}


class Writer:
    def __init__(self, out):
        self.out = out
        self.jobs = []

    def file(self, name, data):
        with open(os.path.join(self.out, name), "w") as fh:
            json.dump(data, fh)
        return name

    def cli(self, job_id, argv, check, known_defect=False):
        self.jobs.append({"id": job_id, "kind": "cli", "argv": argv,
                          "check": check, "known_defect": known_defect})


# -- workloads ---------------------------------------------------------

PIPELINE_NORMAL_INDEX = 20     # 2*20 + 1 = 41 moments per input
PIPELINE_RANDOM_INPUTS = 4
PIPELINE_LAMBDA = {"catalan": "3,0", "random": "3.25,2.5"}


def moments_pipeline(rng, w):
    """expand, pade and moments jobs on catalan and random degenerate data."""
    inputs = [("cat", [CATALAN_TERM] * PIPELINE_NORMAL_INDEX, CATALAN_TERM,
               PIPELINE_LAMBDA["catalan"])]
    for i in range(PIPELINE_RANDOM_INPUTS):
        n_terms = PIPELINE_NORMAL_INDEX // 2
        terms = random_terms(rng, n_terms, PIPELINE_NORMAL_INDEX)
        # a degree-1 term after the last keeps the last coupling visible in
        # the 2*n_J + 1 moments, so expand recovers every generating term
        inputs.append((f"rnd{i}", terms, random_term(rng, degree=1),
                       PIPELINE_LAMBDA["random"]))
    for name, terms, extra, lam in inputs:
        n_j = sum(len(t[2]) - 1 for t in terms)
        count = 2 * n_j + 1
        s = moments(terms + [extra], count)
        m_file = w.file(f"{name}.moments.json", {"moments": [_frac(v) for v in s]})
        pf_file = w.file(f"{name}.pf.json", pfraction_json(terms))
        J = len(terms)
        w.cli(f"{name}-expand", ["expand", m_file, "--max-terms", str(J)],
              {"kind": "expand", "pf": pf_file})
        w.cli(f"{name}-pade", ["pade", m_file, f"--lambda={lam}", "--orders", f"1..{J}"],
              {"kind": "pade", "pf": pf_file, "lambda": lam, "orders": J})
        w.cli(f"{name}-moments", ["moments", pf_file, "--count", str(count)],
              {"kind": "moments", "moments": m_file, "certified": 2 * n_j})


# (case, lambda, depth).  Catalan at 3 is a resolvent point with
# q = (3 - sqrt 5)/2; at 0.5 it lies in the spectrum; example 6.4 at 1+i is
# a resolvent point.  Catalan at 3 from depth 120 on is the known defect:
# float Horner on expanded coefficients loses the digits of the deep Weyl
# values and the certificate reads "violated".  One deep job and a few
# shallow ones keep the round short, so every job repeats several times in a
# run.  The deep job, the longest of the workload, runs twice a round: a long
# job is the likeliest to be slowed throughout by the host, and the best of
# more runs of it steadies job_max_s.
CERTIFY_JOBS = [("cat", "3,0", 120), ("cat", "3,0", 40), ("cat", "3,0", 60),
                ("cat", "0.5,0", 40), ("ex64", "1,1", 40), ("cat", "3,0", 120)]
CERTIFY_EXPECT = {("cat", "3,0"): "certified_q", ("cat", "0.5,0"): "not_certified",
                  ("ex64", "1,1"): "certified"}
KNOWN_DEFECT_DEPTH = 120


def certify_deep(rng, w):
    """certify jobs on the paper's constant-coefficient examples."""
    term = {"cat": CATALAN_TERM, "ex64": EXAMPLE64_TERM}
    for case, lam, depth in CERTIFY_JOBS:   # fixed inputs: the seed changes nothing
        pf_file = w.file(f"{case}{depth}.pf.json",
                         pfraction_json([term[case]] * (4 * depth + 2)))
        expect = CERTIFY_EXPECT[(case, lam)]
        w.cli(f"{case}-{lam}-d{depth}",
              ["certify", pf_file, f"--lambda={lam}", "--depth", str(depth)],
              {"kind": "certify", "expect": expect},
              known_defect=expect == "certified_q" and depth >= KNOWN_DEFECT_DEPTH)


IDENTITY_SIZES = [21, 21, 21, 21, 41]   # terms; normal index 2 * terms
IDENTITY_MOMENTS = 24
IDENTITY_POINTS = [(0.5, 0.5), (2.0, 0.0), (-1.5, 2.0)]


def identities(rng, w):
    """Exact-kernel library jobs on random fractions (no CLI command)."""
    for i, n_terms in enumerate(IDENTITY_SIZES):
        terms = random_terms(rng, n_terms, 2 * n_terms)
        pf_file = w.file(f"id{i}.pf.json", pfraction_json(terms))
        s = moments(terms, IDENTITY_MOMENTS)
        w.jobs.append({"id": f"id{i}-t{n_terms}", "kind": "identities",
                       "input": pf_file, "known_defect": False,
                       "check": {"kind": "identities",
                                 "moments": [_frac(v) for v in s],
                                 "points": IDENTITY_POINTS}})


# The period-1 example at the 400 x 400 grid of the paper's scan; the random
# period-4 fractions on a coarser grid, so that a round is short and every
# job repeats several times in a run.
SPECTRUM_GRID = {"p1": 400, "p4": 200}
SPECTRUM_RANDOM_INPUTS = 4
SPECTRUM_PERIOD4_DEGREE = 8    # block degrees of one period; the trace has this degree


def spectrum_scan(rng, w):
    """spectrum --out jobs: the paper's period-1 example and random period 4."""
    cases = [("p1", [EXAMPLE64_TERM], "-2,2,-2,2", SPECTRUM_GRID["p1"])]
    while len(cases) <= SPECTRUM_RANDOM_INPUTS:
        terms = random_terms(rng, 4, SPECTRUM_PERIOD4_DEGREE)
        if len({t[0] for t in terms}) == 2:   # sign changes within the period
            cases.append((f"p4-{len(cases)}", terms, "-3,3,-3,3", SPECTRUM_GRID["p4"]))
    for name, terms, region, grid in cases:
        pf_file = w.file(f"{name}.pf.json", pfraction_json(terms))
        out = f"{name}.scan.csv"
        w.cli(f"{name}-spectrum",
              ["--out", out, "spectrum", pf_file, "--period", str(len(terms)),
               f"--region={region}", "--grid", str(grid)],
              {"kind": "spectrum", "pf": pf_file, "out": out, "grid": grid,
               "period1": name == "p1"})


def exact_kernels(rng, w):
    """The moments pipeline's CLI jobs, the identity library jobs and certify.

    The short pipeline jobs run three times a round, spread through it, so
    that their best times rest on about as many runs as the deep jobs'.
    """
    moments_pipeline(rng, w)
    pipeline = list(w.jobs)
    identities(rng, w)
    w.jobs += pipeline
    certify_deep(rng, w)
    w.jobs += pipeline


WORKLOADS = {"exact-kernels": exact_kernels, "spectrum-scan": spectrum_scan}


def generate(workload, seed, out):
    """Write the inputs and the manifest of one round of jobs into out."""
    os.makedirs(out, exist_ok=True)
    w = Writer(out)
    WORKLOADS[workload](random.Random(f"{workload}/{seed}"), w)
    w.file("manifest.json", {"workload": workload, "seed": seed, "jobs": w.jobs})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
