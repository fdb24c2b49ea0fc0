"""Tiny-size runs of every workload: every answer right, digests
reproducible and unchanged by tracing; the command line contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dagiso
import run
import workloads
from layers import BOUNDARIES, METRICS, layer_metrics
from tracing import Tracer
from worker import new_outcome, run_calls

BENCH = Path(run.__file__).resolve().parent

TINY = {
    "iso-regular": lambda: workloads.IsoRegular(n=6, pairs=4),
    "equiv-large": lambda: workloads.EquivLarge(sizes=(20, 30)),
    "sample-guarded": lambda: workloads.SampleGuarded(sizes=(5, 6)),
    "classify-trees": lambda: workloads.ClassifyTrees(oracle_n=4, cross_n=3),
}


def _run(workload, seed, tracer=None):
    outcome = new_outcome()
    calls = [workload.warmup()] + workload.batch(seed, 0) \
        + workload.batch(seed, 1)
    if tracer is None:
        run_calls(calls, outcome)
    else:
        with tracer.installed(BOUNDARIES, "dagiso"):
            run_calls(calls, outcome)
    return outcome


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_reproducible(name):
    workload = TINY[name]()
    try:
        first = _run(workload, seed=7)
        again = _run(workload, seed=7)
        tracer = Tracer()
        traced = _run(workload, seed=7, tracer=tracer)
    finally:
        workload.close()
    assert first["failures"] == [], first["failures"]  # error_ratio 0
    assert len(first["latencies"]) == 1 + 2 * workload.batch_size
    assert None not in first["digests"]
    assert again["digests"] == first["digests"]
    assert traced["digests"] == first["digests"]
    metrics = layer_metrics(tracer, len(traced["latencies"]), 1.0)
    assert set(metrics) == set(METRICS)
    assert metrics["fields.det_calls"][0] > 0


def test_seed_changes_inputs():
    workload = workloads.IsoRegular(n=6, pairs=4)
    assert _run(workload, 1)["digests"] != _run(workload, 2)["digests"]


def test_wrong_answers_are_counted(monkeypatch):
    workload = workloads.IsoRegular(n=6, pairs=2)
    real = dagiso.isomorphism_test

    def always_no(g, g2, params=None):
        verdict = real(g, g2, params)
        return type(verdict)(**{**vars(verdict), "answer": "no"})

    monkeypatch.setattr(dagiso, "isomorphism_test", always_no)
    outcome = new_outcome()
    run_calls(workload.batch(3, 0), outcome)
    assert outcome["failures"] == ["iso yes n=6: wrong answer"]


def test_sample_check_is_independent_of_dagiso():
    workload = workloads.SampleGuarded(sizes=(6,))
    try:
        (call,) = workload.batch(5, 0)
        code, text = call.invoke()
    finally:
        workload.close()
    assert call.check((code, text))
    out = json.loads(text)
    i, j = next((i, j) for i in range(6) for j in range(i)
                if out["mat"][i][j] not in (0, 1))
    out["mat"][i][j] = out["mat"][j][i] = (out["mat"][i][j] + 1) % workloads.Q
    assert not call.check((code, json.dumps(out)))
    assert not call.check((2, text))


def test_classify_ground_truth_is_closed_form():
    assert workloads.tree_total(5) == 2000
    assert workloads.tree_total(6) == 41472


def test_benchmark_json_matches_spec():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    assert set(run.PER_LAYER) <= set(METRICS)


def test_command_prints_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "sample-guarded", "--seed", "2", "--seconds", "0.1",
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["env"]["seed"] == 2


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso-regular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
