#!/usr/bin/env python3
"""fbcsurv benchmark: end-to-end and per-layer timings with checked outputs.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload paper-sweep --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # tiny inputs: every metric emitted, JSON parses

Each workload makes its cohort with `fbcsurv synth --seed <seed>` and drives
the program through `fbcsurv.cli.main` and package-level functions. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it runs the measured operation once untraced and once traced and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Scratch data, spans and one result
file per run (with a run header) go to ./.perfbench_work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 7
SWEEP_VERSIONS = ("v1",)
PIPELINE_EXTRA_VERSION = "v4"
PIPELINE_K = 25
# ratio of summed self times to traced wall time below which the trace misses work
COVERAGE_TOLERANCE = 0.02


@dataclass(frozen=True)
class Sweep:
    """`fbcsurv evaluate` on one synthetic cohort; setup is read + filter + label + matrix + fold plan."""

    n: int
    k_min: int
    k_max: int
    setup_reps: int


@dataclass(frozen=True)
class Pipeline:
    """ingest, stats, label, features, select chained through files; setup is the synth stage."""

    n: int
    setup_reps: int


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "full": {
        "paper-sweep": Sweep(n=472, k_min=5, k_max=25, setup_reps=5),
        "large-cohort-sweep": Sweep(n=5000, k_min=5, k_max=7, setup_reps=3),
        "pipeline-stages": Pipeline(n=5000, setup_reps=3),
    },
    "tiny": {
        "paper-sweep": Sweep(n=150, k_min=5, k_max=6, setup_reps=2),
        "large-cohort-sweep": Sweep(n=300, k_min=5, k_max=6, setup_reps=2),
        "pipeline-stages": Pipeline(n=200, setup_reps=2),
    },
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Ledger:
    """Attempted and failed operations; an operation is a CLI stage call, a setup pass or a fold task."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record_failure(self, label: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {detail}")
        print(f"perfbench: {label} failed: {detail}", file=sys.stderr)

    def run(self, label: str, fn) -> float:
        """Call fn, counting it; a non-zero return or an exception is a failure. Returns seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = fn()
        except (Exception, SystemExit):  # argparse exits on flags the program no longer accepts
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if code not in (None, 0):
            self.record_failure(label, str(code).strip())
        return elapsed


@contextlib.contextmanager
def counting_fold_tasks(ledger: Ledger):
    """Count each in-process fold task of the sweep as an operation (jobs 1 only)."""
    import fbcsurv.evaluation as evaluation

    original = evaluation._fold_task

    @functools.wraps(original)
    def counted(task):
        ledger.attempted += 1
        try:
            return original(task)
        except Exception:
            ledger.record_failure(f"fold task {task[0]}/{task[1]}", traceback.format_exc(limit=3).strip())
            raise

    evaluation._fold_task = counted
    try:
        yield
    finally:
        evaluation._fold_task = original


class Run:
    """One benchmark run: its scratch directory, ledger, tracer and output comparisons."""

    def __init__(self, workload: str, size: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.size = size
        self.config = WORKLOADS[size][workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.name = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
        self.dir = WORK / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ledger = Ledger()
        self.tracer = tracing.Tracer()
        self.problems: dict[str, list[str]] = defaultdict(list)
        self.reference: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {}

    def cli(self, argv: list, tracer=None) -> float:
        from fbcsurv.cli import main

        argv = [str(a) for a in argv]
        if tracer is None:
            return self.ledger.run(f"fbcsurv {argv[0]}", lambda: main(argv))

        def traced_main():
            tracer.run_id = f"{self.name}/{argv[0]}"
            with tracer.span(f"cli.{argv[0]}"):
                return main(argv)

        return self.ledger.run(f"fbcsurv {argv[0]} (traced)", traced_main)

    def synth_child(self, n: int, out: Path) -> None:
        """Make the input cohort in a child process, so the run's peak RSS excludes it."""
        code = "import sys; from fbcsurv.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = [sys.executable, "-c", code, "synth", "--n", str(n), "--seed", str(self.seed), "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

        def spawn():
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170)
            return proc.returncode and proc.stderr

        self.ledger.run("fbcsurv synth (input)", spawn)

    def compare(self, label: str, files: dict[str, Path]) -> None:
        """Byte-compare outputs with the first set recorded in this run."""
        for name, path in files.items():
            digest = checks.sha256(path) if path.exists() else "missing"
            if name not in self.reference:
                self.reference[name] = digest
            elif digest != self.reference[name]:
                self.problems[name].append(f"{name}: {label} output differs from the first run's")

    def check_pins(self) -> None:
        with open(BENCH_DIR / "expected.json") as fh:
            expected = json.load(fh)
        if self.seed != expected["seed"]:
            return
        for name, digest in expected["sha256"].get(f"{self.size}/{self.workload}", {}).items():
            if self.reference.get(name) != digest:
                self.problems[name].append(f"{name}: sha256 {self.reference.get(name)} != pinned {digest}")

    # -- workloads ---------------------------------------------------------

    def run_sweep(self) -> tuple[dict, dict]:
        import fbcsurv
        from fbcsurv.labeling import Version

        cfg = self.config
        cohort = self.dir / "cohort"
        self.synth_child(cfg.n, cohort)

        def evaluate(out: Path, jobs: int = 1, tracer=None) -> float:
            argv = ["evaluate", "--in", cohort, "--out", out, "--seed", self.seed, "--jobs", jobs,
                    "--versions", ",".join(SWEEP_VERSIONS), "--k-min", cfg.k_min, "--k-max", cfg.k_max]
            counting = counting_fold_tasks(self.ledger) if jobs == 1 else contextlib.nullcontext()
            with counting:
                elapsed = self.cli(argv, tracer)
            self.compare(f"evaluate --jobs {jobs}{' traced' if tracer else ''}", self.outputs(out))
            return elapsed

        def setup():
            filtered, _ = fbcsurv.apply_inclusion_filters(fbcsurv.read_cohort(cohort))
            labels = fbcsurv.label_cohort(filtered)
            matrices = [fbcsurv.build_matrix(filtered, labels, Version(v)) for v in SWEEP_VERSIONS]
            fbcsurv.make_fold_plan(matrices[0], self.seed)

        out = self.dir / "evaluate"
        if not self.trace:
            self.samples["setup_s"] = [self.ledger.run("setup", setup) for _ in range(cfg.setup_reps)]
            self.samples["workload_s"] = repeat(self.seconds, lambda: evaluate(out))
            self.verify(out)
            return self.end_to_end("evaluate_s: one fbcsurv evaluate")
        untraced = evaluate(out)
        with tracing.traced(self.tracer):
            traced_wall = evaluate(self.dir / "evaluate-traced", tracer=self.tracer)
        jobs2 = evaluate(self.dir / "evaluate-jobs2", jobs=2)
        self.verify(out)
        return self.layer_metrics(traced_wall, untraced, jobs2)

    def run_pipeline(self) -> tuple[dict, dict]:
        cfg = self.config

        def synth(cohort: Path, tracer=None) -> float:
            return self.cli(["synth", "--n", cfg.n, "--seed", self.seed, "--out", cohort], tracer)

        def chain(cohort: Path, out: Path, tracer=None) -> float:
            d = self.stage_dirs(out)
            elapsed = sum(
                self.cli(argv, tracer)
                for argv in (
                    ["ingest", "--in", cohort, "--out", d["ingest"]],
                    ["stats", "--in", d["ingest"], "--out", d["stats"]],
                    ["label", "--in", d["ingest"], "--out", d["label"]],
                    ["features", "--in", d["ingest"], "--out", d["features"], "--extra-version", PIPELINE_EXTRA_VERSION],
                    ["select", "--features", d["features"] / "features.csv", "--k", PIPELINE_K, "--out", d["select"]],
                )
            )
            self.compare("pipeline" + (" traced" if tracer else ""), self.outputs(out, cohort))
            return elapsed

        out = self.dir / "stages"
        if not self.trace:
            cohort = self.dir / "cohort"
            self.samples["setup_s"] = [synth(cohort) for _ in range(cfg.setup_reps)]
            self.samples["workload_s"] = repeat(self.seconds, lambda: chain(cohort, out))
            self.verify(out)
            return self.end_to_end("stages_s: ingest, stats, label, features, select")
        untraced = synth(self.dir / "cohort") + chain(self.dir / "cohort", out)
        with tracing.traced(self.tracer):
            cohort = self.dir / "cohort-traced"
            traced_wall = synth(cohort, self.tracer) + chain(cohort, self.dir / "stages-traced", self.tracer)
        self.verify(out)
        return self.layer_metrics(traced_wall, untraced, 0.0)

    # -- outputs -----------------------------------------------------------

    @staticmethod
    def stage_dirs(out: Path) -> dict[str, Path]:
        return {stage: out / stage for stage in ("ingest", "stats", "label", "features", "select")}

    def outputs(self, out: Path, cohort: Path | None = None) -> dict[str, Path]:
        if isinstance(self.config, Sweep):
            return {name: out / name for name in checks.SWEEP_FILES}
        d = self.stage_dirs(out)
        return {
            "patients.csv": cohort / "patients.csv",
            "observations.csv": cohort / "observations.csv",
            "labels.csv": d["label"] / "labels.csv",
            "features.csv": d["features"] / "features.csv",
            "ranking.csv": d["select"] / "ranking.csv",
            "stats.csv": d["stats"] / "stats.csv",
        }

    def verify(self, out: Path) -> None:
        if isinstance(self.config, Sweep):
            found = checks.check_sweep(out, SWEEP_VERSIONS, tuple(range(self.config.k_min, self.config.k_max + 1)))
        else:
            found = checks.check_pipeline(self.stage_dirs(out), PIPELINE_EXTRA_VERSION, PIPELINE_K)
        for name, problems in found.items():
            self.problems[name].extend(problems)
        self.check_pins()

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, measured: str) -> tuple[dict, dict]:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (median(self.samples["setup_s"]), "s"),
            "workload_s": (median(self.samples["workload_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(self.samples['setup_s'])}",
            "workload_s": f"{measured}, median of {len(self.samples['workload_s'])}",
        }
        return metrics, notes

    def layer_metrics(self, traced_wall: float, untraced_wall: float, jobs2_s: float) -> tuple[dict, dict]:
        tracer = self.tracer
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        fit_ms: dict[str, list[float]] = defaultdict(list)
        for name, duration, self_time in tracer.durations():
            total[name] += duration
            own[name] += self_time
            calls[name] += 1
            if name.endswith(".fit"):
                fit_ms[name].append(duration * 1000.0)
        layer_self: dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.rsplit(".", 1)[0]] += seconds
        counts = tracer.counts
        m: dict[str, tuple[float, str]] = {}
        notes: dict[str, str] = {}
        for family in tracing.FAMILY_LAYER.values():
            base = f"classifiers.{family}"
            samples = fit_ms[f"{base}.fit"]
            pct = tail_percentile(len(samples))
            m[f"{base}.fit_s"] = (total[f"{base}.fit"], "s")
            m[f"{base}.predict_s"] = (total[f"{base}.predict"], "s")
            m[f"{base}.fit_p50_ms"] = (percentile(samples, 50.0), "ms")
            m[f"{base}.fit_tail_ms"] = (percentile(samples, pct), "ms")
            m[f"{base}.fit_calls"] = (calls[f"{base}.fit"], "count")
            notes[f"{base}.fit_tail_ms"] = f"p{pct:g} of {len(samples)} fits"
        allowed = tracer.fit_rounds_allowed
        m["classifiers.adaboost.rounds_used"] = (tracer.fit_rounds_used / allowed if allowed else 0.0, "ratio")
        notes["classifiers.adaboost.rounds_used"] = f"{tracer.fit_rounds_used} stumps kept / {allowed} rounds allowed"
        scans = calls["classifiers.splits.scan"]
        m["classifiers.splits.scan_calls"] = (scans, "count")
        m["classifiers.splits.scan_s"] = (total["classifiers.splits.scan"], "s")
        m["classifiers.splits.scan_rows"] = (counts["classifiers.splits.scan_rows"], "count")
        m["classifiers.splits.bin_calls"] = (calls["classifiers.splits.bin"], "count")
        m["classifiers.splits.bin_s"] = (total["classifiers.splits.bin"], "s")
        split_at = counts["classifiers.splits.split_at"]
        m["classifiers.splits.split_yield"] = (split_at / scans if scans else 0.0, "ratio")
        notes["classifiers.splits.split_yield"] = f"{split_at} accepted splits / {scans} scans"
        m["selection.rank_s"] = (total["selection.rank"], "s")
        m["selection.rank_calls"] = (calls["selection.rank"], "count")
        for name in ("labeling.label", "labeling.write", "cohort.read", "cohort.filter", "cohort.write",
                     "synth.generate", "features.build", "features.write", "features.read",
                     "evaluation.stats", "evaluation.write"):
            m[f"{name}_s"] = (total[name], "s")
        m["evaluation.self_s"] = (own["evaluation.sweep"], "s")
        m["evaluation.pattern_ratio"] = (median(tracer.pattern_ratios), "ratio")
        notes["evaluation.pattern_ratio"] = f"median over {len(tracer.pattern_ratios)} training matrices"
        m["evaluation.jobs2_s"] = (jobs2_s, "s")
        for layer in tracing.LAYERS:
            m[f"self.{layer}_s"] = (layer_self[layer], "s")
        self_sum = sum(layer_self.values())
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.untraced_s"] = (untraced_wall, "s")
        m["trace.overhead"] = (traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "ratio")
        m["trace.coverage"] = (self_sum / traced_wall if traced_wall else 0.0, "ratio")
        m["trace.spans"] = (len(tracer.spans), "count")
        notes["trace.coverage"] = f"summed self times / traced wall; tolerance {COVERAGE_TOLERANCE}"
        if traced_wall and abs(1.0 - self_sum / traced_wall) > COVERAGE_TOLERANCE:
            print(f"perfbench: self times cover {self_sum / traced_wall:.3f} of the traced wall time", file=sys.stderr)
        return m, notes

    def exact_counters(self) -> dict:
        """Counts that must repeat exactly at one seed: span calls per name, rows scanned, patterns."""
        tracer = self.tracer
        calls = Counter(span[0] for span in tracer.spans)
        return {
            "calls": dict(sorted(calls.items())),
            "scan_rows": tracer.counts["classifiers.splits.scan_rows"],
            "split_at": tracer.counts["classifiers.splits.split_at"],
            "rounds_used": tracer.fit_rounds_used,
            "pattern_ratios": [repr(r) for r in tracer.pattern_ratios],
        }

    def counters_repeat(self) -> bool:
        """Compare with the previous traced run of this code at this seed, or store the first."""
        path = WORK / "counters" / f"{self.name}-{code_sha256()[:16]}.json"
        counters = self.exact_counters()
        if path.exists():
            with open(path) as fh:
                previous = json.load(fh)
            if previous != counters:
                print(f"perfbench: exact counters differ from the previous traced run ({path})", file=sys.stderr)
                return False
            print(f"# exact counters repeat: identical to the previous traced run at seed {self.seed}")
            return True
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(counters, fh, indent=1, sort_keys=True)
        print(f"# exact counters stored: first traced run of this code at seed {self.seed}")
        return True


def repeat(seconds: float, op) -> list[float]:
    """Run op (returning its own elapsed seconds) at least once and until `seconds` have passed."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(op())
    return times


def percentile(samples: list[float], pct: float) -> float:
    return float(np.percentile(samples, pct)) if samples else 0.0


def tail_percentile(n: int) -> float:
    """Highest of p99.9..p75 with at least ten samples beyond it; the median below 40 samples."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


@functools.cache
def code_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_header(run: Run) -> dict:
    return {
        "workload": run.workload,
        "size": run.size,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.trace,
        "cohort_n": run.config.n,
        "jobs": 1,
        "git_commit": git_commit(),
        "code_sha256": code_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def bench_one(workload: str, size: str, seed: int, seconds: float, trace: bool) -> int:
    run = Run(workload, size, seed, seconds, trace)
    header = run_header(run)
    print("# header " + json.dumps(header, sort_keys=True))
    metrics, notes = run.run_sweep() if isinstance(run.config, Sweep) else run.run_pipeline()
    counters_ok = run.counters_repeat() if trace else True
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if trace:
        run.tracer.write(results / f"{run.name}.spans.tsv")
    # cohorts and outputs of a full-size run take tens of MB; keep only results
    shutil.rmtree(run.dir, ignore_errors=True)
    ledger = run.ledger
    wrong = sorted(name for name, problems in run.problems.items() if problems)
    for name in wrong:
        for problem in run.problems[name]:
            print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    # both must be 0, so they gate `correct` instead of carrying a relative bound
    report = {
        **metrics,
        "wrong_outputs": (len(wrong), "count"),
        "error_rate": (ledger.failed / ledger.attempted if ledger.attempted else 0.0, "ratio"),
    }
    notes["wrong_outputs"] = f"of {len(run.reference)} files"
    notes["error_rate"] = f"{ledger.failed}/{ledger.attempted} operations failed"
    for name, (value, unit) in report.items():
        print(f"{workload:<20} {name:<36} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    correct = not wrong and ledger.failed == 0 and counters_ok
    with open(results / f"{run.name}.json", "w") as fh:
        json.dump(
            {
                "header": header,
                "correct": correct,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
                "notes": notes,
                "samples": run.samples,
                "outputs": run.reference,
                "problems": run.problems,
                "errors": ledger.errors,
                "counters": run.exact_counters() if trace else None,
            },
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(size: str, seconds: float, seed: int, traces: tuple[int, ...] = (0, 1)) -> list[str]:
    """Every workload in a fresh process, untraced then traced; returns contract violations."""
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for workload in bench["workloads"]:
        for trace in traces:
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--size", size]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1]), flush=True)
            label = f"{workload['name']} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {proc.returncode}, last line is not JSON\n{proc.stderr[-2000:]}")
                continue
            wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: exit {proc.returncode}, keys {sorted(result)}")
            if got != wanted:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
            if not all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    return problems


def smoke() -> int:
    """Tiny inputs through every workload; traced twice so the exact-counter repeat check runs."""
    start = time.perf_counter()
    problems = run_all("tiny", 1, DEFAULT_SEED)
    problems += run_all("tiny", 1, DEFAULT_SEED, traces=(1,))
    # without the program next to it the benchmark must refuse to run
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    for problem in problems:
        print(f"smoke FAIL: {problem}")
    print(f"smoke {'FAILED' if problems else 'ok'} in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full", help="tiny is for --smoke")
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; check every metric is emitted")
    args = parser.parse_args()
    if not (SRC / "fbcsurv" / "__init__.py").is_file():
        fail(f"no fbcsurv sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fbcsurv

    if Path(fbcsurv.__file__).resolve().parent != (SRC / "fbcsurv").resolve():
        fail(f"imported fbcsurv from {fbcsurv.__file__}, not {SRC}")
    if args.smoke:
        return smoke()
    if args.all:
        problems = run_all(args.size, args.seconds, args.seed)
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required (or --all / --smoke)")
    return bench_one(args.workload, args.size, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
