"""Span tracing of the psrnn layers, installed from outside the package.

The tracer wraps every public function of the traced modules and patches
the wrapper into each psrnn module that binds the function. Package modules
import each other's functions with `from .x import f`, so a call such as
`satd(...)` inside `psrnn.intra` resolves through `psrnn.intra.satd`; the
wrapper therefore has to replace that binding, not only `psrnn.hadamard.satd`.

Each call becomes one span {name, start, end, parent, op}. Spans are kept
in memory and written out when the run ends. A span's self time is its
duration minus the time its child spans cover; inside an operation span,
the time no layer span covers is reported as unattributed.

Some wrappers also record one number per call (work counted from argument
shapes): GRU step iterations, convolution FLOPs, batch sizes and whether a
gradient clip fired.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

TRACED_MODULES = ("tensor", "layers", "hadamard", "intra", "model", "data", "training")
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"
SETUP_OP = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_macs(x_shape, spec, out_hw) -> int:
    b, _, _, cin = x_shape
    oh, ow = out_hw
    return b * oh * ow * spec.kernel_h * spec.kernel_w * cin * spec.out_channels


def _conv_forward_flops(args, kwargs, _result) -> float:
    x = _arg(args, kwargs, 0, "x")
    spec = _arg(args, kwargs, 3, "spec")
    oh = spec.out_extent(x.shape[1], spec.kernel_h)
    ow = spec.out_extent(x.shape[2], spec.kernel_w)
    return 2.0 * _conv_macs(x.shape, spec, (oh, ow))


def _conv_backward_flops(args, kwargs, _result) -> float:
    # two GEMMs of the forward's size: weight gradient and patch gradient
    x = _arg(args, kwargs, 0, "x")
    spec = _arg(args, kwargs, 2, "spec")
    grad_out = _arg(args, kwargs, 3, "grad_out")
    return 4.0 * _conv_macs(x.shape, spec, grad_out.shape[1:3])


# name -> function(args, kwargs, result) giving the per-call count
COUNTERS = {
    "layers.gru_sweep_forward": lambda a, k, r: _arg(a, k, 1, "xs").shape[0],
    "layers.gru_sweep_backward": lambda a, k, r: _arg(a, k, 1, "cache").hs.shape[0],
    "tensor.conv2d_forward_batch": _conv_forward_flops,
    "tensor.conv2d_backward_batch": _conv_backward_flops,
    "model.forward_batch": lambda a, k, r: _arg(a, k, 1, "contexts").shape[0],
    "layers.clip_global_norm":
        lambda a, k, r: float(r > _arg(a, k, 1, "max_norm") > 0),
}


class Tracer:
    """Collects spans inside run_span; patched wrappers pass through otherwise."""

    def __init__(self):
        # span: [name, start, end, parent, op, count]
        self.spans: list[list] = []
        self.active = False
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def run_span(self, name: str, op: int, fn, *args, **kwargs):
        """Run fn traced, inside a benchmark-level span (an operation or a setup)."""
        self.op = op
        self.active = True
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)
            self.active = False
            self.op = SETUP_OP

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                self.spans[sid][5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "psrnn") -> int:
        """Patch a wrapper into every binding of a traced public function."""
        targets = {f"{package}.{m}" for m in TRACED_MODULES}
        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ not in targets or value.__name__.startswith("_")):
                    continue
                if id(value) not in wrappers:
                    short = value.__module__.rsplit(".", 1)[-1]
                    wrappers[id(value)] = self.wrap(f"{short}.{value.__name__}", value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summarize(self, op_ids) -> dict:
        """Per-name totals over the given operations' spans.

        Returns {name: {"calls", "self_s", "total_s", "count"}} plus the
        operation spans' own durations ("bench.op" total_s) and their self
        time, which is the unattributed remainder.
        """
        ops = set(op_ids)
        selfs = self.self_times()
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0.0})
        for (name, start, end, _, op, count), self_s in zip(self.spans, selfs):
            if op not in ops:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
            row["count"] += count
        return dict(out)

    def write(self, path) -> None:
        """One CSV line per span; times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,count\n")
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)},{parent},{op},{count!r}\n")
