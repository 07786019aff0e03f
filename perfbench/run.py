#!/usr/bin/env python3
"""psrnn benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload train-n8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. BLAS is pinned to one thread before numpy loads. The run builds its
inputs from --seed, repeats operations for --seconds (and at least eleven
operations, so the tail latency exists), checks every operation's output,
and prints a report followed by one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced phase with --trace 1.
End-to-end times are calibrated by a speed probe run around every operation
(see probe.py); the report prints the wall times next to them. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
from probe import SpeedProbe, calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 11          # the tail percentile needs ten samples beyond it
TRACE_MIN_OPS = 2     # per phase of a traced run
HARD_CAP_S = 140.0    # stop starting operations after this much wall time
SETUP_MIN_REPS, SETUP_MAX_REPS = 3, 15

# End-to-end metrics printed with --trace 0 (BENCHMARK.json "end_to_end").
END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics printed with --trace 1 (BENCHMARK.json "per_layer"): the
# ones every workload exercises, plus counts, which may be zero.
PER_LAYER = (
    ("tensor.conv2d_forward_batch.self_ms", "ms"),
    ("tensor.conv2d.gflop_per_s", "GFLOP/s-computed"),
    ("layers.gru_sweep_forward.self_ms", "ms"),
    ("layers.gru_sweep.steps", "count"),
    ("layers.prelu_forward.self_ms", "ms"),
    ("layers.clip_rate", "ratio"),
    ("layers.adam_step.calls", "count"),
    ("hadamard.hadamard_matrix.calls", "count"),
    ("hadamard.satd.calls", "count"),
    ("hadamard.satd_batch.calls", "count"),
    ("intra.best_mode_search.calls", "count"),
    ("model.forward_batch.calls", "count"),
    ("model.forward_batch.samples_per_call", "count"),
    ("model.forward_batch.self_ms", "ms"),
    ("model.backward_batch.calls", "count"),
    ("model.unit_forward_batch.self_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# Self times that only some workloads exercise. They read 0 elsewhere, so
# they are reported and written to the result file, not in the JSON line.
REPORTED_SELF_MS = (
    "tensor.conv2d_backward_batch", "layers.gru_sweep_backward", "layers.adam_step",
    "layers.prelu_backward", "layers.clip_global_norm", "hadamard.satd",
    "hadamard.satd_batch", "hadamard.satd_loss_grad_batch", "intra.best_mode_search",
    "intra.predict_all_modes", "intra.build_reference_samples", "model.backward_batch",
    "model.unit_backward_batch", "data.degrade", "data.make_context", "training.train",
    "training.evaluate",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-n8", "eval-fixed-n8", "eval-greedy-16-8"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input; for the benchmark's own tests")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the result record and the span file")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported tree; src_sha256 identifies the sources
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "psrnn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 process",
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Ops:
    """Runs and checks operations, keeping per-operation outcomes.

    `wall` holds each operation's wall time; `durations` holds the same
    times calibrated by the speed probe run before and after the operation.
    """

    def __init__(self, workload, state, probe, tracer=None):
        self.workload = workload
        self.state = state
        self.probe = probe
        self.tracer = tracer
        self.next_op = 0
        self.wall: list[float] = []
        self.durations: list[float] = []
        self.probes: list[float] = []
        self.items = 0
        self.failures: list[str] = []
        self.infos: list[dict] = []
        self.op_ids: list[int] = []

    def _timed(self, fn, *args):
        before = self.probes[-1] if self.probes else self.probe.seconds()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            after = self.probe.seconds()
            self.probes.append(after)
            self.wall.append(wall)
            self.durations.append(calibrated(wall, before, after))

    def run_one(self) -> None:
        wl, op = self.workload, self.next_op
        self.next_op += 1
        self.op_ids.append(op)
        args = wl.prepare(self.state, op)
        try:
            if self.tracer is None:
                output = self._timed(wl.run, self.state, op, *args)
            else:
                output = self._timed(self.tracer.run_span, tracing.OP_SPAN, op, wl.run,
                                     self.state, op, *args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"op {op}: {type(exc).__name__}: {exc}")
            return
        try:
            self.infos.append(wl.check(self.state, op, output))
        except Exception as exc:  # includes workloads.CheckFailure
            self.failures.append(f"op {op}: check: {type(exc).__name__}: {exc}")
            return
        self.items += wl.items_per_op(self.state)

    def run_for(self, seconds: float, min_ops: int, started: float) -> "Ops":
        deadline = time.perf_counter() + seconds
        count = 0
        while count < min_ops or time.perf_counter() < deadline:
            if count and time.perf_counter() - started > HARD_CAP_S:
                break
            self.run_one()
            count += 1
        return self

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.durations)

    @property
    def wall_items_per_s(self) -> float:
        return self.items / sum(self.wall)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < MIN_OPS:
        raise ValueError(f"{n} operations are too few for a tail with ten beyond it")
    return ordered[n - MIN_OPS], 100.0 * (n - 10) / n, n


def setup_times(workload, seed: int, probe):
    """Calibrated and wall set-up times: at least three, more while under a second."""
    wall, cal, state = [], [], None
    while len(wall) < SETUP_MIN_REPS or (sum(wall) < 1.0 and len(wall) < SETUP_MAX_REPS):
        state = None  # let the previous inputs go before building the next
        before = probe.seconds()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        wall.append(time.perf_counter() - t0)
        cal.append(calibrated(wall[-1], before, probe.seconds()))
    return cal, wall, state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, op_ids, build_samples_s: float, untraced_rate: float,
              traced_rate: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans of the traced operations."""
    summary = tracer.summarize(op_ids)
    n_ops = len(op_ids)

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0.0})

    out: dict[str, float] = {}
    for name in sorted(set(summary) - {tracing.OP_SPAN}):
        out[f"{name}.self_ms"] = 1000.0 * row(name)["self_s"] / n_ops
        out[f"{name}.calls"] = row(name)["calls"] / n_ops
    fwd, bwd = row("tensor.conv2d_forward_batch"), row("tensor.conv2d_backward_batch")
    out["tensor.conv2d.gflop_per_s"] = (
        (fwd["count"] + bwd["count"]) / (fwd["self_s"] + bwd["self_s"]) / 1e9)
    out["layers.gru_sweep.steps"] = (
        (row("layers.gru_sweep_forward")["count"] + row("layers.gru_sweep_backward")["count"])
        / n_ops)
    clip = row("layers.clip_global_norm")
    out["layers.clip_rate"] = clip["count"] / clip["calls"] if clip["calls"] else 0.0
    fb = row("model.forward_batch")
    out["model.forward_batch.samples_per_call"] = fb["count"] / fb["calls"]
    out["data.build_training_samples.s"] = build_samples_s
    out["training.validation_metric.ms"] = (
        1000.0 * row("training.validation_metric")["total_s"] / n_ops)
    out["trace.attributed_ms"] = sum(v for k, v in out.items() if k.endswith(".self_ms"))
    op = row(tracing.OP_SPAN)
    out["trace.op_ms"] = 1000.0 * op["total_s"] / n_ops
    out["trace.unattributed_ms"] = 1000.0 * op["self_s"] / n_ops
    out["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    for name in [f"{n}.self_ms" for n in REPORTED_SELF_MS] + [n for n, _ in PER_LAYER]:
        out.setdefault(name, 0.0)  # layers this workload never calls
    return out


def measure_end_to_end(workload, state, probe, setups, args, started):
    ops = Ops(workload, state, probe).run_for(args.seconds, MIN_OPS, started)
    tail_s, tail_pct, n = tail(ops.durations)
    setup_cal, setup_wall = setups
    metrics = {
        "setup_s": statistics.median(setup_cal),
        "items_per_s": ops.items_per_s,
        "op_s_p50": statistics.median(ops.durations),
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    report = dict(metrics)
    report[workload.metric] = ops.items_per_s
    report["failed_ops_pct"] = 100.0 * len(ops.failures) / len(ops.durations)
    report.update({
        "wall.setup_s": statistics.median(setup_wall),
        "wall.items_per_s": ops.wall_items_per_s,
        "wall.op_s_p50": statistics.median(ops.wall),
        "wall.op_s_tail": tail(ops.wall)[0],
        "probe.ms_p50": 1000.0 * statistics.median(ops.probes),
    })
    units = dict(END_TO_END)
    units.update({workload.metric: f"{workload.unit}/s", "failed_ops_pct": "%",
                  "wall.setup_s": "s", "wall.items_per_s": "items/s", "wall.op_s_p50": "s",
                  "wall.op_s_tail": "s", "probe.ms_p50": "ms"})
    if workload.name == "train-n8" and ops.infos:
        report["train.val_satd"] = ops.infos[0]["val_satd"]
        units["train.val_satd"] = "SATD"
    print(f"op_s_tail is p{tail_pct:.1f} of {n} operations")
    extra = {"op_s": ops.durations, "op_wall_s": ops.wall, "probe_s": ops.probes,
             "op_s_tail_percentile": tail_pct, "op_count": n}
    return ops, metrics, report, units, extra


def measure_layers(workload, state, probe, args, started, out_dir):
    """Untraced operations, then traced ones; per-layer metrics of the latter."""
    ops = Ops(workload, state, probe).run_for(args.seconds / 2, TRACE_MIN_OPS, started)
    tracer = tracing.Tracer()
    patched = tracer.install()
    traced = Ops(workload, state, probe, tracer)
    traced.next_op = ops.next_op
    try:
        tracer.run_span(tracing.SETUP_SPAN, tracing.SETUP_OP, workload.setup, args.seed)
        traced.run_for(args.seconds / 2, TRACE_MIN_OPS, started)
    finally:
        tracer.uninstall()
    setup_spans = tracer.summarize([tracing.SETUP_OP])
    build_s = setup_spans.get("data.build_training_samples", {}).get("total_s", 0.0)
    report = per_layer(tracer, traced.op_ids, build_s, ops.items_per_s, traced.items_per_s)
    metrics = {name: report[name] for name, _ in PER_LAYER}
    units = dict(PER_LAYER)
    for name in report:
        units.setdefault(name, "ms" if name.endswith(("_ms", ".ms")) else
                         "s" if name.endswith(".s") else "count")
    tracer.write(out_dir / f"spans-{args.workload}.csv")

    print(f"traced {len(traced.durations)} operations after {len(ops.durations)} "
          f"untraced; {len(tracer.spans)} spans over {patched} wrapped functions")
    print("largest self times per operation:")
    op_ms = report["trace.op_ms"]
    top = sorted((k for k in report if k.endswith(".self_ms")), key=lambda k: -report[k])
    for k in top[:10] + ["trace.unattributed_ms"]:
        label = "(unattributed)" if k.startswith("trace.") else k[: -len(".self_ms")]
        print(f"  {label:<36} {report[k]:10.3f} ms  {100 * report[k] / op_ms:5.1f}%")

    extra = {"spans": len(tracer.spans), "patched_functions": patched,
             "untraced_ops": len(ops.durations), "traced_ops": len(traced.durations)}
    ops.failures += traced.failures
    ops.durations += traced.durations
    ops.wall += traced.wall
    return ops, metrics, report, units, extra


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "psrnn" / "__init__.py").is_file():
        print(f"perfbench: no psrnn sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    workload = workloads.make_workload(args.workload, args.size, out_dir)
    probe = SpeedProbe()
    started = time.perf_counter()
    setup_cal, setup_wall, state = setup_times(workload, args.seed, probe)
    if args.trace == 0:
        ops, metrics, report, units, extra = measure_end_to_end(
            workload, state, probe, (setup_cal, setup_wall), args, started)
    else:
        ops, metrics, report, units, extra = measure_layers(
            workload, state, probe, args, started, out_dir)

    attempted, failed = len(ops.durations), len(ops.failures)
    record = {"env": env, "setup_s_all": setup_cal, "setup_wall_s_all": setup_wall, "attempted": attempted, "failed": failed,
              "failures": ops.failures, **extra,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.items()}}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for failure in ops.failures[:10]:
        print(f"FAILED {failure}")
    for name in sorted(report):
        print(f"{name} = {report[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
