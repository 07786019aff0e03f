"""Batched 2-D convolution kernels with exact manual gradients.

Convolution follows the usual deep-learning convention: cross-correlation
(no kernel flip), zero padding, NHWC layout with weights (kh, kw, cin,
cout). The network keeps activations in float64 and only stores parameters
in float32; these kernels compute in whatever dtype they are handed, which
is float64 throughout the package. A single sample is a batch of one.

One gather, _im2col, serves both passes and there is no scatter. The
forward pads, gathers and multiplies a slab of whole samples at a time into
one preallocated output (see CONV_SLAB_BYTES), dropping each slab's patch
matrix before it gathers the next, so neither the whole padded input nor the
whole patch matrix ever exists there, and it hands no patch matrix to the
backward. The backward regathers the batch's patch matrix once for the
weight gradient and adds the input gradient one kernel tap at a time,
straight into the unpadded input's positions that the tap reads.

The forward gives each output row the same bits whatever the number of rows
its GEMM has (see MIN_GEMM_COLS), so a sample's result does not depend on
the batch it runs in, nor on its slab while slabs stay above OpenBLAS's
small-GEMM cut-off. The slab rule, _slab_bounds, is shared with the GRU
sweep in psrnn.layers, which projects its inputs one slab of whole steps at
a time; each caller passes its cap. The conv's, CONV_SLAB_BYTES (512 KiB, a
quarter of a 2 MiB per-core L2), keeps a slab's patch rows in cache from
the gather that writes them to the narrow GEMM that reads them once. The
sweep's, SLAB_BYTES (2 MiB), bounds memory only: its steps read the
projection long after the GEMM wrote it, so a smaller cap would only
shorten its GEMMs. A sweep forced into slabs of a step or a few
(SLAB_BYTES = 2**12, a narrow GRU at N=32) gets other last bits from
OpenBLAS; under the real cap a sweep splits only into slabs of at least 1
MiB of projection.

Importing the module fixes glibc's malloc thresholds through mallopt (mmap
above 32 MiB, glibc's 64-bit maximum; trim above 64 MiB), over any
MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ in the environment, so what
an eval chunk frees stays in the heap for the next chunk instead of going
back to the kernel and faulting in again. No computed value depends on them.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


# ---------------------------------------------------------------------------
# 2-D convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        if min(self.kernel_h, self.kernel_w, self.stride) < 1:
            raise ShapeError(f"kernel/stride must be positive: {self}")
        if self.padding < 0:
            raise ShapeError(f"padding must be non-negative: {self}")
        if min(self.in_channels, self.out_channels) < 1:
            raise ShapeError(f"channel counts must be positive: {self}")

    def out_extent(self, in_extent: int, kernel: int) -> int:
        out = (in_extent + 2 * self.padding - kernel) // self.stride + 1
        if out < 1:
            raise ShapeError(
                f"output extent {out} < 1 for input {in_extent} under {self}"
            )
        return out


def _check_conv_shapes(x, w, spec: ConvSpec) -> None:
    if x.ndim != 4 or x.shape[3] != spec.in_channels:
        raise ShapeError(f"conv input must be (b, h, w, {spec.in_channels}), got {x.shape}")
    if w.shape != (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels):
        raise ShapeError(f"weights {w.shape} inconsistent with {spec}")


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    b, h, w, c = x.shape
    out = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    out[:, padding : padding + h, padding : padding + w, :] = x
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Gather (b*oh*ow, kh*kw*cin) patch rows from a padded (b, h, w, c) map."""
    b, _, _, c = xp.shape
    sb, sh, sw, sc = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (b, oh, ow, kh, kw, c), (sb, sh * stride, sw * stride, sh, sw, sc))
    return view.reshape(b * oh * ow, kh * kw * c)


# Caps on the bytes of one slab's largest temporary. A batch whose temporary
# is larger splits into the fewest slabs of whole samples that keep each one
# under its cap, balanced to within one sample (a single sample over the cap
# is one slab). The slabs keep the bits (see the module docstring for the
# small sweep slabs that do not).
#
# A GRU sweep's input projection: a memory cap. Each step reads its slice
# of the projection long after the GEMM wrote it, so a smaller cap would
# only shorten the GEMMs.
SLAB_BYTES = 2**21
# A conv forward's patch rows (9 times its input for a 3x3 kernel at stride
# 1): a quarter of a 2 MiB L2, so the gathered rows are still in cache when
# the narrow GEMM reads them.
CONV_SLAB_BYTES = 2**19


def _keep_freed_heap() -> bool:
    """Fix the malloc thresholds (see the module docstring); True if libc took both."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # -3 is M_MMAP_THRESHOLD and -1 is M_TRIM_THRESHOLD; mallopt returns 1 on success
    return mallopt(-3, 2**25) == 1 and mallopt(-1, 2**26) == 1


HEAP_KEPT = _keep_freed_heap()


def split_bounds(count: int, per_part: int) -> list[int]:
    """Offsets that split count items into the fewest parts of at most
    max(1, per_part) items, balanced to within one item."""
    parts = max(1, -(-count // max(1, per_part)))
    return [k * count // parts for k in range(parts + 1)]


def _slab_bounds(b: int, sample_bytes: int, cap: int) -> list[int]:
    """Sample offsets that split a batch of b into slabs of at most cap bytes
    (see SLAB_BYTES)."""
    return split_bounds(b, cap // max(1, sample_bytes))


# OpenBLAS (0.3.31 on AVX-512) gives a GEMM with fewer output columns than
# this a result per row that depends on how many rows the GEMM has. A conv
# with fewer output channels multiplies by its weight padded with zero
# columns and returns a view of the real ones.
MIN_GEMM_COLS = 8


def conv2d_forward_batch(x, w, bias, spec: ConvSpec):
    """Batched conv kernel; x is (b, h, w, cin), returns (b, oh, ow, cout).

    The batch is padded, gathered and multiplied one slab of samples at a
    time (see CONV_SLAB_BYTES), with the same bits as the whole patch matrix
    gives; one slab's patch matrix is alive at a time. Under MIN_GEMM_COLS
    output channels the result is a strided view into a wider buffer.
    """
    _check_conv_shapes(x, w, spec)
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
    b, h, ww_in, cin = x.shape
    kh, kw, s, cout = spec.kernel_h, spec.kernel_w, spec.stride, spec.out_channels
    oh, ow = spec.out_extent(h, kh), spec.out_extent(ww_in, kw)
    rows = oh * ow
    dtype = np.result_type(x, w)
    bounds = _slab_bounds(b, rows * kh * kw * cin * dtype.itemsize, CONV_SLAB_BYTES)
    w2 = np.zeros((kh * kw * cin, max(cout, MIN_GEMM_COLS)), dtype=w.dtype)
    w2[:, :cout] = w.reshape(-1, cout)
    out = np.empty((b * rows, w2.shape[1]), dtype=dtype)
    for i, j in zip(bounds, bounds[1:]):
        cols = _im2col(_pad_spatial(x[i:j], spec.padding), kh, kw, s, oh, ow)
        np.matmul(cols, w2, out=out[i * rows : j * rows])
        del cols  # before the next slab's gather
    out = out[:, :cout]
    if bias is not None:
        out += bias
    return out.reshape(b, oh, ow, cout)


def _tap_slices(d: int, p: int, s: int, o: int, extent: int) -> tuple[slice, slice]:
    """For the kernel tap at offset d along one axis: the outputs k in range(o)
    whose input index d + k*s - p lies in range(extent), and those indices."""
    lo = max(0, -((d - p) // s))
    hi = max(lo, min(o, (extent - 1 + p - d) // s + 1))
    start = d + lo * s - p
    return slice(lo, hi), slice(start, start + (hi - lo) * s, s)


def conv2d_backward_batch(x, w, spec: ConvSpec, grad_out, need_grad_x: bool = True):
    """Gradients (grad_x, grad_w, grad_bias) of conv2d_forward_batch.

    The input gradient is one (b*oh*ow, cin) product per kernel tap, added
    in (di, dj) order into the input positions that tap reads; the rows that
    read padding are dropped. need_grad_x=False skips it and returns None
    for it.
    """
    _check_conv_shapes(x, w, spec)
    b, h, ww_in, cin = x.shape
    kh, kw, s = spec.kernel_h, spec.kernel_w, spec.stride
    cout = spec.out_channels
    oh, ow = spec.out_extent(h, kh), spec.out_extent(ww_in, kw)
    if grad_out.shape != (b, oh, ow, cout):
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output {(b, oh, ow, cout)}")
    cols = _im2col(_pad_spatial(x, spec.padding), kh, kw, s, oh, ow)
    g2 = grad_out.reshape(b * oh * ow, cout)
    gw = (cols.T @ g2).reshape(kh, kw, cin, cout)
    del cols
    gb = grad_out.sum(axis=(0, 1, 2))
    if not need_grad_x:
        return None, gw, gb
    p = spec.padding
    gx = np.zeros((b, h, ww_in, cin))
    for di in range(kh):
        oy, iy = _tap_slices(di, p, s, oh, h)
        for dj in range(kw):
            ox, ix = _tap_slices(dj, p, s, ow, ww_in)
            gx[:, iy, ix, :] += (g2 @ w[di, dj].T).reshape(b, oh, ow, cin)[:, oy, ox, :]
    return gx, gw, gb
