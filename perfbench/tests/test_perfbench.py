"""Tests of the benchmark itself: tiny runs, failure counting, tracing.

Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from psrnn import hadamard, intra  # noqa: E402

ISSUE_END_TO_END = {
    "train-n8": ("setup_s", "train.samples_per_s", "train.val_satd", "op_s_p50",
                 "op_s_tail", "failed_ops_pct", "peak_rss_mb"),
    "eval-fixed-n8": ("setup_s", "eval.blocks_per_s", "op_s_p50", "op_s_tail",
                      "failed_ops_pct", "peak_rss_mb"),
    "eval-greedy-16-8": ("setup_s", "eval.blocks_per_s", "op_s_p50", "op_s_tail",
                         "failed_ops_pct", "peak_rss_mb"),
}


def run_cli(tmp_path, workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
         "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def report_lines(stdout):
    """name -> (value, unit) from the report lines above the JSON line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split(" = ")
        if len(parts) == 2:
            value, unit = parts[1].rsplit(" ", 1)
            out[parts[0]] = (float(value), unit)
    return out


def test_benchmark_json_matches_the_program():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(tmp_path, workload):
    proc = run_cli(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = report_lines(proc.stdout)
    for name in ISSUE_END_TO_END[workload]:
        assert name in report, name
    assert report["failed_ops_pct"] == (0.0, "%")
    assert "OPENBLAS_NUM_THREADS" in proc.stdout
    record = json.loads((tmp_path / f"result-{workload}-seed3-trace0.json").read_text())
    assert record["env"]["blas_threads"] == 1 and record["env"]["seed"] == 3


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(tmp_path, workload):
    proc = run_cli(tmp_path, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(bench.PER_LAYER)
    report = report_lines(proc.stdout)
    for name in bench.REPORTED_SELF_MS:
        assert f"{name}.self_ms" in report, name
    for name in ("data.build_training_samples.s", "training.validation_metric.ms"):
        assert name in report
    op_ms = report["trace.op_ms"][0]
    attributed = report["trace.attributed_ms"][0] + report["trace.unattributed_ms"][0]
    assert attributed == pytest.approx(op_ms, rel=1e-9)
    spans = (tmp_path / f"spans-{workload}.csv").read_text().splitlines()
    assert spans[0] == "id,name,start_ns,end_ns,parent,op,count" and len(spans) > 100


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_cli(tmp_path / "out", "eval-fixed-n8", 0, cwd=tmp_path,
                   script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _ops(name, tmp_path):
    workload = W.make_workload(name, "tiny", tmp_path)
    return workload, bench.Ops(workload, workload.setup(5), SpeedProbe())


def test_corrupted_eval_record_is_a_failed_operation(tmp_path):
    workload, ops = _ops("eval-fixed-n8", tmp_path)
    pool = len(ops.state.images)
    for _ in range(pool):
        ops.run_one()
    assert ops.failures == []

    real_run = workload.run

    def corrupt(state, op, image_index):
        report = real_run(state, op, image_index)
        rec = report.records[0]
        report.records[0] = type(rec)(**{**rec.__dict__, "base_mse": rec.base_mse + 1e-6})
        return report

    workload.run = corrupt
    ops.run_one()  # a repeated image whose report no longer matches its first
    assert len(ops.failures) == 1 and "repeated image" in ops.failures[0]


def test_corrupted_sampled_block_is_caught(tmp_path):
    workload, ops = _ops("eval-greedy-16-8", tmp_path)
    report = workload.run(ops.state, 0, 0)
    for rec in report.records:
        rec.base = intra.ModeCost(mode=(rec.base.mode + 1) % intra.N_MODES,
                                  satd=rec.base.satd, bits_proxy=rec.base.bits_proxy,
                                  lam=rec.base.lam)
    with pytest.raises(W.CheckFailure, match="baseline mode"):
        workload.check(ops.state, 0, report)


def test_corrupted_model_digest_is_a_failed_operation(tmp_path):
    workload, ops = _ops("train-n8", tmp_path)
    ops.run_one()
    real = workload.model_digest
    workload.model_digest = lambda net: "0" * 64
    ops.run_one()
    workload.model_digest = real
    ops.run_one()
    assert len(ops.failures) == 1 and "model bytes" in ops.failures[0]
    assert len(ops.durations) == 3


def test_tracer_self_time_and_unpatching():
    t = tracing.Tracer()
    t.spans = [["op", 0.0, 10.0, -1, 0, 0.0], ["a", 1.0, 6.0, 0, 0, 0.0],
               ["b", 2.0, 3.0, 1, 0, 0.0], ["b", 7.0, 9.0, 0, 0, 0.0]]
    assert t.self_times() == [3.0, 4.0, 1.0, 2.0]
    summary = t.summarize([0])
    assert summary["b"]["calls"] == 2 and summary["b"]["self_s"] == 3.0
    assert sum(r["self_s"] for r in summary.values()) == 10.0

    original = hadamard.satd
    t.install()
    try:
        assert intra.satd is not original and intra.satd.__wrapped__ is original
        assert hadamard.hadamard_matrix.__wrapped__.__module__ == "psrnn.hadamard"
    finally:
        t.uninstall()
    assert intra.satd is original and hadamard.satd is original
