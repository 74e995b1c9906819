"""Check that the traced run repeats: two runs, same seed, same counts.

    python3 bench/selfcheck.py --workload NAME [--seed N]

Runs `bench/run.py --trace 1` twice with a one-round budget and compares
every per-layer metric that is not a time, plus the outcome of the output
checks.  Exits 0 when both runs agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMED_UNITS = {"s"}


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.001", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed_jobs = sorted(line for line in proc.stdout.splitlines() if line.startswith("failed job"))
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] not in TIMED_UNITS and k != "trace.overhead_frac"}
    return counts, (result["correct"], result["attempted"], result["failed"], failed_jobs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    (c1, o1), (c2, o2) = traced_run(args.workload, args.seed), traced_run(args.workload, args.seed)
    differ = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
    for k in differ:
        print(f"count {k} differs: {c1.get(k)} vs {c2.get(k)}")
    if o1 != o2:
        print(f"check outcomes differ: {o1} vs {o2}")
    ok = not differ and o1 == o2
    print(f"{args.workload} seed {args.seed}: {len(c1)} counts, "
          f"{'identical' if ok else 'NOT identical'} across two traced runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
