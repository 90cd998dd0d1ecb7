#!/usr/bin/env python3
"""In-process A/B of the cross-validated sweep between two source trees.

Runs `fbcsurv.evaluation.run_sweep` from tree A and tree B alternately, each
run in a fresh Python process that imports the package from that tree's
`src/`, on one synthetic cohort made once by tree A's `fbcsurv synth`. The
first side swaps every pair. Each run prints the CPU seconds of `run_sweep`
and the process's `ru_maxrss`; the records of every run must be equal, or the
script exits 1. The summary gives each side's median and inclusive quartiles.

    python3 scripts/ab_sweep.py --a ../parent --b . --pairs 10
    python3 scripts/ab_sweep.py --a ../parent --b . --n 5000 --k-min 5 --k-max 7 --pairs 6

The defaults are the benchmark's `paper-sweep` workload: n=472, seed 7, v1,
k=5..25. The last stdout line is one JSON object with every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one run: read and filter the cohort, then time run_sweep alone; argv is cohort, seed, versions, k_min, k_max
CHILD = """
import hashlib, json, resource, sys, time
import fbcsurv
from fbcsurv.classifiers import Hyperparameters
from fbcsurv.evaluation import run_sweep
from fbcsurv.labeling import Version
cohort, seed, versions, k_min, k_max = sys.argv[1:]
filtered, _ = fbcsurv.apply_inclusion_filters(fbcsurv.read_cohort(cohort))
versions = tuple(Version(v) for v in versions.split(","))
start = time.process_time()
report = run_sweep(filtered, versions, tuple(range(int(k_min), int(k_max) + 1)), Hyperparameters(), int(seed))
cpu_s = time.process_time() - start
print(json.dumps({
    "cpu_s": cpu_s,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "records_sha256": hashlib.sha256(repr(report.records).encode()).hexdigest(),
}))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Inclusive first quartile, median and third quartile; a single run is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_child(tree: Path, argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"ab_sweep: run from {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", type=Path, required=True, help="root of source tree A (the baseline)")
    parser.add_argument("--b", type=Path, required=True, help="root of source tree B (the change)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--n", type=int, default=472)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--versions", default="v1")
    parser.add_argument("--k-min", type=int, default=5)
    parser.add_argument("--k-max", type=int, default=25)
    args = parser.parse_args()
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}

    with tempfile.TemporaryDirectory(prefix="ab_sweep_") as work:
        cohort = Path(work) / "cohort"
        synth = [sys.executable, "-m", "fbcsurv.cli", "synth", "--n", str(args.n), "--seed", str(args.seed), "--out", str(cohort)]
        subprocess.run(synth, env={**os.environ, "PYTHONPATH": str(trees["a"] / "src")}, check=True, stdout=subprocess.DEVNULL)
        argv = [str(cohort), str(args.seed), args.versions, str(args.k_min), str(args.k_max)]
        runs: dict[str, list[dict]] = {"a": [], "b": []}
        for pair in range(args.pairs):
            for side in ("ab" if pair % 2 == 0 else "ba"):
                result = run_child(trees[side], argv)
                runs[side].append(result)
                print(f"pair {pair} {side}: cpu {result['cpu_s']:.3f} s  maxrss {result['maxrss_mb']:.2f} MB", flush=True)

    hashes = {run["records_sha256"] for side in runs.values() for run in side}
    summary = {"equal_records": len(hashes) == 1, "runs": runs}
    for metric in ("cpu_s", "maxrss_mb"):
        a, b = ([run[metric] for run in runs[side]] for side in "ab")
        better = sum(y < x for x, y in zip(a, b))
        summary[metric] = {"b_lower_pairs": better}
        parts = []
        for side, values in (("a", a), ("b", b)):
            q1, median, q3 = quartiles(values)
            summary[metric].update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            parts.append(f"{side} {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})")
        print(f"{metric}: median {'  '.join(parts)}  b lower in {better}/{len(a)} pairs")
    print("records equal" if summary["equal_records"] else "RECORDS DIFFER")
    print(json.dumps(summary))
    return 0 if summary["equal_records"] else 1


if __name__ == "__main__":
    sys.exit(main())
