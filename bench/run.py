"""gjacobi benchmark: closed-loop jobs from one process, one client, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
bench/gen.py writes the seeded inputs and references into .bench_work/.  A
job is one in-process gjacobi.cli.main(argv) call with stdout and stderr
captured, or, for an identities job, one fixed sequence of library calls.
Jobs run in whole rounds (every job of the manifest once, in the manifest's
order) for as long as the next round, taking as long as the last, would end
within S seconds, and at least one round; each output is checked after its
timing ends.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  The times rest
on each job's best time: the fastest wall time of that job over the run's
rounds.  On a shared host the CPU's speed can drift by a third for tens of
seconds at a time, longer than a round, so the median of a run's raw job
times follows the host; the best time of a job that is repeated through the
run does not (the reasoning of Python's timeit).  The metrics are
setup_s (median over fresh processes, one before each round and at least
SETUP_SAMPLES, of the time to import gjacobi.cli),
job_p50_s (median of the best times of the round's distinct jobs),
job_max_s (the slowest job's best time), jobs_per_s (distinct jobs of a
round / sum of their best times),
peak_rss_mb (of this process) and pass_frac, the share of jobs that ran and
passed their check (1 - fail_frac; fail_frac is printed as well).  The raw
median and p90 of all job times, with the number of jobs beyond p90, are
printed too.  "correct" is false when any job fails other than a known
defect the manifest names; those still count in "failed".

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics, per round, from spans recorded around the calls into each gjacobi
module (bench/spans.py).  Every value is printed on a line of its own, and
the last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# one thread: numpy is imported only after this, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("exact-kernels", "spectrum-scan")
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gjacobi.cli; "
                "print(time.perf_counter() - t)")
CHILD_TIMEOUT = 120

# layer -> the end-to-end metrics and workloads its per-layer metrics should move
PER_LAYER_MOVES = {
    "cli": "job_p50_s on all workloads",
    "pfraction": "job_p50_s, jobs_per_s on exact-kernels; none on spectrum-scan",
    "series": "job_p50_s, jobs_per_s on exact-kernels; none on spectrum-scan",
    "pade": "job_p50_s, jobs_per_s on exact-kernels",
    "polyrec": "job_max_s, jobs_per_s, pass_frac on exact-kernels",
    "gjmatrix": "job_max_s, jobs_per_s on exact-kernels",
    "poly": "jobs_per_s on exact-kernels; none on spectrum-scan",
    "spectral": "job_max_s on exact-kernels",
    "periodic": "job_p50_s, peak_rss_mb on spectrum-scan",
    "roots": "job_p50_s, peak_rss_mb on spectrum-scan",
    "trace": "none (cost of the traced run itself)",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_time():
    """Time to import gjacobi.cli in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return float(proc.stdout.split()[-1])


def percentile(values, p):
    """p-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Jobs:
    """The manifest's round of jobs, bound to the imported program."""

    def __init__(self, workdir):
        import gjacobi.cli
        from gjacobi import gjmatrix, polyrec
        from gjacobi.pfraction import PFraction

        self.cli, self.gjmatrix, self.polyrec = gjacobi.cli, gjmatrix, polyrec
        self.workdir = workdir
        with open(os.path.join(workdir, "manifest.json")) as fh:
            self.round = json.load(fh)["jobs"]
        self.inputs = {}
        for job in self.round:
            if job["kind"] == "identities":
                with open(os.path.join(workdir, job["input"])) as fh:
                    self.inputs[job["id"]] = PFraction.from_json(fh.read(), exact_parse=True)

    def run(self, job):
        """Execute one job; returns (output, bytes written)."""
        if job["kind"] == "identities":
            return self._identities(job), 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(job["argv"]))
            except SystemExit as exc:   # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        written = len(text.encode())
        if "--out" in job["argv"]:
            path = job["argv"][job["argv"].index("--out") + 1]
            for name in (path, path + ".summary.json"):
                if os.path.exists(name):
                    written += os.path.getsize(name)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()[-200:]}")
        return text, written

    def _identities(self, job):
        """generate, every LO residual, LO defects, coprimality, charpoly, moments."""
        pr, gm = self.polyrec, self.gjmatrix
        pf = self.inputs[job["id"]]
        J = len(pf)
        seqs = pr.generate(pf, J)
        residuals = [pr.lo_polynomial_residual(seqs, j) for j in range(J)]
        defects = [pr.lo_defect(seqs, J - 1, complex(*z)) for z in job["check"]["points"]]
        coprime = pr.coprimality_check(seqs, J - 1)
        H = gm.assemble(pf)
        charpoly = gm.truncation_charpoly(H, 0, J - 1)
        mom = gm.moments_from_matrix(H, H.gram(), len(job["check"]["moments"]))
        return seqs, residuals, defects, coprime, charpoly, mom


class Tally:
    """Job times and outcomes of one or more rounds."""

    def __init__(self):
        self.times, self.failed = [], []   # failed: (job id, reason, known defect)
        self.by_job = {}
        self.written = 0
        self.info = {}

    def add(self, jobs, job, checks, on_job=None):
        gc.collect()
        if on_job:
            on_job(job)
        t0 = time.perf_counter()
        try:
            output, written = jobs.run(job)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            output, written, why = None, 0, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        ok = output is not None
        if ok:
            try:
                ok, why = checks.check(job, output, jobs.workdir, self.info)
            except Exception as exc:  # unreadable output fails its check
                ok, why = False, f"check raised {type(exc).__name__}: {exc}"
        self.times.append(dt)
        self.by_job.setdefault(job["id"], []).append(dt)
        self.written += written
        if not ok:
            self.failed.append((job["id"], why, job["known_defect"]))
        return dt

    @property
    def unexpected(self):
        """Failures other than the manifest's known defects."""
        return [f for f in self.failed if not f[2]]


def run_round(jobs, checks, tally, on_job=None):
    return sum(tally.add(jobs, job, checks, on_job) for job in jobs.round)


def end_to_end(args, jobs, checks):
    tally = Tally()
    tally.add(jobs, jobs.round[0], checks)  # warm-up, not counted
    tally = Tally()
    t0 = time.perf_counter()
    busy = 0.0
    setup = []   # one import before each round, so the samples span the run
    while True:
        setup.append(import_time())
        r0 = time.perf_counter()
        busy += run_round(jobs, checks, tally)
        now = time.perf_counter()
        if now - t0 + (now - r0) > args.seconds:   # the next round would overrun
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time())
    n = len(tally.times)
    best = {job_id: min(times) for job_id, times in tally.by_job.items()}
    print(f"jobs: {n} in {n // len(jobs.round)} rounds of {len(jobs.round)}, "
          f"job time {busy:.3f} s of {time.perf_counter() - t0:.3f} s wall")
    for job_id, times in tally.by_job.items():
        print(f"job {job_id}: best {best[job_id]:.4f} s, median "
              f"{statistics.median(times):.4f} s over {len(times)} runs")
    p90 = percentile(tally.times, 90)
    print(f"raw job times: p50 {percentile(tally.times, 50):.4f} s, p90 {p90:.4f} s "
          f"({sum(1 for t in tally.times if t > p90)} of {n} jobs beyond it)")
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(best.values()),
        "job_max_s": max(best.values()),
        "jobs_per_s": len(best) / sum(best.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - len(tally.failed) / n,
    }
    print(f"fail_frac: {len(tally.failed) / n:.6f} ({len(tally.failed)} of {n})")
    return tally, metrics, not tally.unexpected


def traced(args, jobs, checks):
    from spans import Recorder

    rounds = []   # (untraced seconds, traced seconds, recorder, tally)
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain = run_round(jobs, checks, Tally())
        rec, tally = Recorder(), Tally()
        tag = len(rounds)

        def on_job(job):
            rec.job = f"r{tag}:{job['id']}"

        rec.install()
        try:
            spent = run_round(jobs, checks, tally, on_job)
        finally:
            rec.uninstall()
        rounds.append((plain, spent, rec, tally))
        now = time.perf_counter()
        if now - t0 + (now - r0) > args.seconds:   # the next pair would overrun
            break

    per_round = [layer_metrics(rec, tally) for _, _, rec, tally in rounds]
    counts_repeat = all(_counts(m) == _counts(per_round[0]) for m in per_round)
    metrics = {}
    for key, v in per_round[0].items():
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(m[key] for m in per_round)
        elif key == "pade.value_rel_err":
            metrics[key] = max(m[key] for m in per_round)
        else:
            metrics[key] = v
    metrics["trace.overhead_frac"] = (sum(r[1] for r in rounds)
                                      / sum(r[0] for r in rounds) - 1.0)
    first = per_round[0]
    names = sorted({k.rsplit(".", 1)[0] for k in first if k.endswith(".self_s")},
                   key=lambda n: -metrics[f"{n}.self_s"])
    for name in names:
        print(f"span {name}: self {metrics[name + '.self_s']:.4f} s, "
              f"{first[name + '.calls']} calls per round")
    print(f"traced rounds: {len(rounds)} of {len(jobs.round)} jobs; "
          f"counts identical across rounds: {counts_repeat}")
    with open(os.path.join(WORK, f"spans-{args.workload}.jsonl"), "w") as fh:
        for _, _, rec, _ in rounds:
            rec.dump(fh)
    tally = Tally()
    for _, _, _, t in rounds:
        tally.times += t.times
        tally.failed += t.failed
    return tally, metrics, counts_repeat and not tally.unexpected


def _counts(m):
    return {k: v for k, v in m.items() if not k.endswith(".self_s")
            and k != "pade.value_rel_err"}


def layer_metrics(rec, tally):
    """Per-layer values of one traced round, for every span name seen."""
    calls, self_s = rec.layer_totals()
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(rec.work)
    out.update(rec.maxima)
    products = rec.work.get("poly.mul.poly_products", 0)
    out["poly.mul.karatsuba_frac"] = (rec.work.get("poly.mul.karatsuba", 0) / products
                                      if products else 0.0)
    diag = calls.get("pade.diagonal", 0)
    out["pade.gcd_nontrivial_frac"] = (rec.work.get("pade.diagonal.gcd_nontrivial", 0) / diag
                                       if diag else 0.0)
    out["pade.value_rel_err"] = tally.info.get("pade_rel_err", 0.0)
    out["cli.out_bytes"] = tally.written
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "gjacobi", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no gjacobi sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", workdir],
                   cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT, check=True)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checks

    jobs = Jobs(workdir)
    os.chdir(workdir)   # job arguments name files relative to the work dir
    try:
        if args.trace:
            tally, values, correct = traced(args, jobs, checks)
            wanted = spec["per_layer"]
        else:
            tally, values, correct = end_to_end(args, jobs, checks)
            wanted = spec["end_to_end"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    for (job_id, why, known), times in Counter(tally.failed).items():
        print(f"failed job {job_id} ({times}x): {why}" + (" [known defect]" if known else ""))
    if args.trace:
        for m in wanted:
            layer = m["name"].split(".")[0]
            print(f"{m['name']} = {values.get(m['name'], 0)} {m['unit']}"
                  f"  (should move: {PER_LAYER_MOVES[layer]})")
    else:
        for m in wanted:
            print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(tally.times),
                      "failed": len(tally.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
