"""One workload process of the benchmark.

Sets the workload up (import, first batch with its ground truth, one
warm-up call), then, by ``--mode``:

- ``setup``: stops there;
- ``measure``: runs whole batches in a closed loop with one caller until
  ``--seconds`` have passed, timing each public call;
- ``trace``: runs whole batches untraced for a share of ``--seconds``,
  then the same calls again with the tracer installed.

It prints one JSON line. ``ready_at`` is ``time.monotonic()`` at the first
timed call; the parent, which noted the same clock before starting this
process, turns it into the set-up time. Run it through ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TRACE_UNTRACED_SHARE = 0.3  # of --seconds; the traced replay takes longer


def import_program():
    """Import dagiso from this checkout's sources, never from elsewhere."""
    if not (SRC / "dagiso" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dagiso sources under {SRC}")
    sys.path.insert(1, str(SRC))
    import dagiso
    if Path(dagiso.__file__).resolve().parent != SRC / "dagiso":
        raise SystemExit(f"perfbench: imported dagiso from {dagiso.__file__}")


def run_calls(calls, outcome):
    """Run ``calls`` in order, timing only ``invoke``; append latencies,
    digests and failures to ``outcome``."""
    for call in calls:
        outcome["labels"].append(call.label)
        t0 = time.perf_counter()
        try:
            result = call.invoke()
        except Exception:
            outcome["latencies"].append(time.perf_counter() - t0)
            outcome["digests"].append(None)
            outcome["failures"].append(f"{call.label}: raised\n"
                                       + traceback.format_exc())
            continue
        outcome["latencies"].append(time.perf_counter() - t0)
        outcome["digests"].append(
            hashlib.sha256(call.render(result).encode()).hexdigest())
        if not call.check(result):
            outcome["failures"].append(f"{call.label}: wrong answer")


def new_outcome():
    return {"labels": [], "latencies": [], "digests": [], "failures": []}


def loop(workload, seed, seconds, first_batch, keep=False):
    """Whole batches until ``seconds`` of wall time have passed. Returns
    the outcome and the batches run; the batches themselves are kept for
    a replay only if ``keep``, so that memory does not grow with the run."""
    outcome, batches, count = new_outcome(), [], 0
    start = time.perf_counter()
    batch = first_batch
    while True:
        if keep:
            batches.append(batch)
        run_calls(batch, outcome)
        count += 1
        if time.perf_counter() - start >= seconds:
            return outcome, batches, count
        batch = workload.batch(seed, count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"],
                    required=True)
    ap.add_argument("--spans", default=None,
                    help="trace mode: also write every span to this file")
    args = ap.parse_args(argv)

    import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    try:
        first = workload.batch(args.seed, 0)
        warm = new_outcome()
        run_calls([workload.warmup()], warm)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "failures": []}
        if args.mode == "measure":
            outcome, _, count = loop(workload, args.seed, args.seconds,
                                     first)
            result.update(outcome, batches=count,
                          batch_size=workload.batch_size,
                          peak_rss_kb=peak_rss_kb())
        elif args.mode == "trace":
            result.update(trace(workload, args, first))
    finally:
        workload.close()
    result["failures"] = warm["failures"] + result["failures"]
    print(json.dumps(result))
    return 0


def trace(workload, args, first):
    """Untraced batches for a share of the time, then the same calls
    traced; the digests of the two passes must agree."""
    from layers import BOUNDARIES, layer_metrics
    from tracing import Tracer

    plain, batches, _ = loop(workload, args.seed,
                             args.seconds * TRACE_UNTRACED_SHARE, first,
                             keep=True)
    tracer = Tracer()
    traced = new_outcome()
    with tracer.installed(BOUNDARIES, "dagiso"):
        for batch in batches:
            run_calls(batch, traced)
    if args.spans:
        tracer.dump(args.spans)
    failures = plain["failures"] + traced["failures"]
    if traced["digests"] != plain["digests"]:
        failures.append("traced digests differ from untraced digests")
    calls = len(traced["latencies"])
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    metrics = layer_metrics(tracer, calls, overhead)
    return {"labels": plain["labels"], "latencies": plain["latencies"],
            "digests": plain["digests"], "failures": failures,
            "batches": len(batches),
            "batch_size": workload.batch_size,
            "layers": {k: [v, u] for k, (v, u) in metrics.items()}}


def peak_rss_kb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024 if sys.platform == "darwin" else rss


if __name__ == "__main__":
    sys.exit(main())
