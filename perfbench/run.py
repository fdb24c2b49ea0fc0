"""The dagiso benchmark.

    python3 perfbench/run.py --workload iso-regular --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload runs in fresh single-threaded processes (``worker.py``), one
closed loop with one caller. ``--trace 0`` measures the end-to-end
metrics; set-up runs ``SETUP_REPEATS`` times, each in its own process, half
before the measuring process and half after it, and the median is reported. ``--trace 1`` runs the calls untraced, then again
under the tracer, and reports the per-layer metrics (see ``layers.py``).

Every answer is checked against ground truth. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any answer is wrong, and 2 when the benchmark itself cannot run.
``--write-spec`` rewrites ``BENCHMARK.json`` from ``spec()`` below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

RUN_SECONDS = 20
SETUP_REPEATS = 9  # the host's speed drifts for seconds at a time
DEADLINE_S = 170  # a run must end within 180 s
P90_MIN_SAMPLES = 100  # at least ten samples above the 90th percentile

# The metrics a later change is judged by. latency_p50_s, latency_p90_s
# and error_ratio are printed but not listed: across ten seeds the median
# latency spread by up to 0.24 of its median on a 2-core VM, where the
# bound may be at most 0.25, and error_ratio must read 0.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# The per-layer metrics listed in BENCHMARK.json: every count and ratio,
# and the times that are nonzero on every workload (a time that reads 0
# on a workload is no measurement). The traced run prints all of
# layers.METRICS.
PER_LAYER = [
    "randomized.witness_calls", "randomized.witness_hit_ratio",
    "randomized.candidates", "randomized.dets_per_candidate",
    "points.sample_calls", "points.sample_s", "points.draws",
    "points.accept_ratio", "points.complete_self_s",
    "points.principal_calls", "ci.imposed_minors_calls", "ci.minors_built",
    "fields.det_calls", "fields.det_s", "fields.det_order_mean",
    "dag.dags_built", "dag.pattern_calls", "classify.trees_enumerated",
    "classify.patterns_distinct", "classify.canonical_calls",
    "classify.pairwise_tests", "cli.calls", "trace.overhead_ratio",
]


HIGHER_IS_BETTER = {"randomized.witness_hit_ratio", "points.accept_ratio"}


def spec() -> dict:
    from layers import METRICS
    from workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls.why}
                      for name, cls in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": METRICS[name],
                       "better": "higher" if name in HIGHER_IS_BETTER
                       else "lower"}
                      for name in PER_LAYER],
    }


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


def spawn(workload: str, seed: int, seconds: float, mode: str,
          deadline: float, spans=None) -> dict:
    """Run one worker process; return its JSON result with ``setup_s``."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()  # the worker reports on the same clock
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float, spans=None) -> dict:
    layers = {}
    if trace:
        res = spawn(workload, seed, seconds, "trace", deadline, spans)
        layers = {k: tuple(v) for k, v in res["layers"].items()}
        metrics = {k: layers[k] for k in PER_LAYER}
        attempted = len(res["latencies"]) + 1
    else:
        before = (SETUP_REPEATS - 1) // 2
        setups = [spawn(workload, seed, seconds, "setup", deadline)
                  for _ in range(before)]
        res = spawn(workload, seed, seconds, "measure", deadline)
        setups += [spawn(workload, seed, seconds, "setup", deadline)
                   for _ in range(SETUP_REPEATS - 1 - before)]
        metrics = {
            "setup_s": (statistics.median(
                [r["setup_s"] for r in setups] + [res["setup_s"]]), "s"),
            "ops_per_s": (len(res["latencies"]) / sum(res["latencies"]),
                          "1/s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
        for r in setups:
            res["failures"] += r["failures"]
        attempted = len(res["latencies"]) + SETUP_REPEATS
    lat = res["latencies"]
    p90 = (statistics.quantiles(lat, n=10)[-1], "s") \
        if len(lat) >= P90_MIN_SAMPLES \
        else (f"n/a: {len(lat)} samples, needs {P90_MIN_SAMPLES}", "")
    return {
        "workload": workload,
        "attempted": attempted,  # the warm-up calls are checked too
        "failed": len(res["failures"]),
        "failures": res["failures"],
        "metrics": metrics,
        "layers": layers,
        "printed": {
            "error_ratio": (len(res["failures"]) / attempted, "ratio"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": p90,
        },
        "calls": len(lat),
        "batches": res["batches"],
        "batch_size": res["batch_size"],
        "first_batch_digest": hashlib.sha256("".join(
            d or "-" for d in res["digests"][:res["batch_size"]]
        ).encode()).hexdigest(),
        "calls_run": [list(c) for c in zip(res["labels"], lat,
                                           res["digests"])],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "batch_size": {name: cls().batch_size
                       for name, cls in workloads.WORKLOADS.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the dagiso benchmark on one workload or all.")
    ap.add_argument("--workload", default="all",
                    help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None,
                    help="also write the full report as JSON here")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1 and one workload: write every span")
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "dagiso").is_dir():
        print(f"perfbench: no dagiso sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec(), indent=2) + "\n")
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        ap.error(f"unknown workload {args.workload!r}")
    if args.spans and len(names) != 1:
        ap.error("--spans needs a single workload")

    env = environment(args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    # one run must end within the deadline, whatever the workload count
    budget = DEADLINE_S if len(names) == 1 else DEADLINE_S * len(names)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace),
                                        started + budget, args.spans))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for rep in reports:
        print_report(rep, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "workloads": reports}, indent=1))

    prefix = len(reports) > 1
    metrics = {(f"{rep['workload']}.{k}" if prefix else k):
               {"value": v, "unit": u}
               for rep in reports for k, (v, u) in rep["metrics"].items()}
    failed = sum(rep["failed"] for rep in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def print_report(rep: dict, trace: bool) -> None:
    name = rep["workload"]
    for msg in rep["failures"]:
        print(f"{name} FAILED {msg}", file=sys.stderr)
    print(f"{name} calls={rep['calls']} batches={rep['batches']} "
          f"batch_size={rep['batch_size']} "
          f"first_batch_digest={rep['first_batch_digest']}")
    rows = rep["layers"] if trace else {**rep["metrics"], **rep["printed"]}
    for key, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {key} {shown} {unit}".rstrip())


if __name__ == "__main__":
    sys.exit(main())
