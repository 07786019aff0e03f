"""Reference implementations the library's fast paths are checked against.

- A step-by-step GRU recurrence (one Python step per plane, every product
  spelled out) that the fused sweep in psrnn.layers must reproduce, the
  sweep with one input projection for all steps, whose bits the sliced
  projection of psrnn.layers.gru_sweep_forward must give, and the
  two-branch sigmoid that psrnn.layers.sigmoid64 must match bit for bit.
- The convolution pair on the whole patch matrix: one GEMM for the forward
  (by the weight padded to MIN_GEMM_COLS columns, as the library pads it),
  and for the backward one GEMM per gradient, the input gradient scattered
  back tap by tap (the adjoint of the gather). psrnn.tensor's slabbed
  forward and per-tap backward must give the same bits.
- The eps-smoothed SATD objective, evaluated tile by tile, whose exact
  gradient psrnn.hadamard.satd_loss_grad_batch claims to be.
- The per-block intra baseline, on references in their own plain form
  (Refs: top row, left column, per-segment availability): samples
  substituted by a Python scan, [1 2 1] smoothing, planar and DC in closed
  form, the per-mode angular predictor (build the projected reference line
  for one mode, then interpolate) and a mode-by-mode search. psrnn.intra's
  batched gathers, tables and search must reproduce it bit for bit.
- The greedy quad-tree evaluation with one batch-1 network pass and one
  per-block record per candidate, a split charged its children's costs
  (their own split flags included) plus its flag, which the level-batched
  evaluation must match.
- Context sampling with one slice-and-mask per sample, which the one-gather
  psrnn.data.fill_samples and build_training_samples, read through
  SampleSet.take, must reproduce byte for byte. It returns Sample records,
  which also carry each sample's origin and availability mode.

All favour plainness over speed; the numeric ones run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from psrnn import training as TR
from psrnn.data import THREE_BLOCK, TRAIN_QPS, DegradeConfig, GrayImage, degrade
from psrnn.hadamard import SatdConfig, hadamard_matrix, satd
from psrnn.intra import (DEFAULT_MODE_BITS, INTRA_PRED_ANGLE, INV_ANGLE, MODE_DC,
                         MODE_PLANAR, N_MODES, NETWORK, PIXEL_SCALE, SPLIT_FLAG_BITS,
                         ModeCost, hm_lambda, network_mode_cost)
from psrnn.layers import GruParams, GruSweepCache, _gate_fn, _t64
from psrnn.model import forward_batch
from psrnn.rng import stream
from psrnn.tensor import MIN_GEMM_COLS, ConvSpec


@dataclass
class GruStep:
    """One recorded recurrence step: inputs, gates, candidate and output."""

    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray
    h: np.ndarray


def _f64(params: GruParams) -> dict[str, np.ndarray]:
    return {k: v.astype(np.float64) for k, v in params.named().items()}


def gru_sequence_forward(params: GruParams, xs, h0, gate_activation: str = "sigmoid"):
    """Unroll the recurrence over xs (each (batch, d)), starting from h0."""
    act, _ = _gate_fn(gate_activation)
    p = _f64(params)
    h = np.asarray(h0, dtype=np.float64)
    steps = []
    for x in xs:
        x = np.asarray(x, dtype=np.float64)
        z = act(x @ p["Wz"].T + h @ p["Uz"].T, out=None)
        r = act(x @ p["Wr"].T + h @ p["Ur"].T, out=None)
        c = np.tanh(x @ p["W"].T + (r * h) @ p["U"].T + p["b"])
        step = GruStep(x=x, h_prev=h, z=z, r=r, c=c, h=z * h + (1.0 - z) * c)
        steps.append(step)
        h = step.h
    return steps


def gru_sequence_backward(params: GruParams, steps, grads_h_per_step=None,
                          grad_h_final=None, gate_activation: str = "sigmoid"):
    """Exact gradients through the unrolled recurrence, one step at a time.

    grads_h_per_step holds the upstream gradient flowing into each step's
    output h_t; grad_h_final is extra gradient on the last state. Returns
    (param_grads, grad_h0, grad_x_per_step).
    """
    _, act_deriv = _gate_fn(gate_activation)
    p = _f64(params)
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    carried = np.zeros_like(steps[-1].h)
    if grad_h_final is not None:
        carried = carried + grad_h_final
    grad_xs = [None] * len(steps)
    for t in range(len(steps) - 1, -1, -1):
        s = steps[t]
        gh = carried
        if grads_h_per_step is not None:
            gh = gh + grads_h_per_step[t]
        dz = gh * (s.h_prev - s.c)
        dac = gh * (1.0 - s.z) * (1.0 - s.c * s.c)
        grads["W"] += dac.T @ s.x
        grads["U"] += dac.T @ (s.r * s.h_prev)
        grads["b"] += dac.sum(axis=0)
        drh = dac @ p["U"]
        dar = drh * s.h_prev * act_deriv(s.r)
        daz = dz * act_deriv(s.z)
        grads["Wr"] += dar.T @ s.x
        grads["Ur"] += dar.T @ s.h_prev
        grads["Wz"] += daz.T @ s.x
        grads["Uz"] += daz.T @ s.h_prev
        grad_xs[t] = dac @ p["W"] + dar @ p["Wr"] + daz @ p["Wz"]
        carried = gh * s.z + drh * s.r + dar @ p["Ur"] + daz @ p["Uz"]
    return grads, carried, grad_xs


def gru_sweep_whole(params: GruParams, xs: np.ndarray, h0: np.ndarray,
                    gate_activation: str = "sigmoid"):
    """The fused sweep with the input projection of all n steps as one GEMM;
    returns (hs, cache) as psrnn.layers.gru_sweep_forward does."""
    act, _ = _gate_fn(gate_activation)
    n, b, _ = xs.shape
    h = params.hidden
    WxT, UzrT, UT = _t64(params.Wx), _t64(params.Uzr), _t64(params.U)
    b64 = params.b.astype(np.float64)
    xproj = (xs.reshape(n * b, -1) @ WxT).reshape(n, b, 3 * h)
    states = np.empty((n + 1, b, h))
    states[0] = h0
    zs, rs, cs = (np.empty((n, b, h)) for _ in range(3))
    for t in range(n):
        ht = states[t]
        zr = act(xproj[t, :, : 2 * h] + ht @ UzrT, out=None)
        z, r = zr[:, :h], zr[:, h:]
        c = np.tanh(xproj[t, :, 2 * h :] + (r * ht) @ UT + b64)
        zs[t], rs[t], cs[t] = z, r, c
        states[t + 1] = z * ht + (1.0 - z) * c
    cache = GruSweepCache(xs=xs, states=states, z=zs, r=rs, c=cs,
                          gate_activation=gate_activation)
    return cache.hs, cache


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, in float64."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _windows(spec: ConvSpec, h: int, w: int):
    """Output extents and, per kernel tap, the padded input window it reads."""
    oh, ow = spec.out_extent(h, spec.kernel_h), spec.out_extent(w, spec.kernel_w)
    s = spec.stride
    taps = [(slice(di, di + (oh - 1) * s + 1, s), slice(dj, dj + (ow - 1) * s + 1, s))
            for di in range(spec.kernel_h) for dj in range(spec.kernel_w)]
    return oh, ow, taps


def conv_patch_matrix(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The whole (b*oh*ow, kh*kw*cin) patch matrix of a (b, h, w, cin) batch."""
    b, h, w, cin = x.shape
    p = spec.padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    oh, ow, taps = _windows(spec, h, w)
    return np.stack([xp[:, r, c, :] for r, c in taps], axis=3).reshape(b * oh * ow, -1)


def conv_forward_whole(x, w, bias, spec: ConvSpec) -> np.ndarray:
    """Conv forward as one GEMM over the whole patch matrix, by the weight
    padded with zero columns to at least MIN_GEMM_COLS outputs."""
    b, h, ww, _ = x.shape
    cout = spec.out_channels
    oh, ow, _ = _windows(spec, h, ww)
    w2 = w.reshape(-1, cout)
    w2 = np.pad(w2, ((0, 0), (0, max(0, MIN_GEMM_COLS - cout))))
    out = (conv_patch_matrix(x, spec) @ w2)[:, :cout]
    if bias is not None:
        out += bias
    return out.reshape(b, oh, ow, cout)


def conv_backward_scatter(x, w, spec: ConvSpec, grad_out, need_grad_x: bool = True):
    """(grad_x, grad_w, grad_bias): whole-matrix GEMMs, the input gradient's
    patch rows scattered back onto the padded input tap by tap."""
    b, h, ww, cin = x.shape
    p, cout = spec.padding, spec.out_channels
    oh, ow, taps = _windows(spec, h, ww)
    g2 = grad_out.reshape(b * oh * ow, cout)
    gw = (conv_patch_matrix(x, spec).T @ g2).reshape(w.shape)
    gb = grad_out.sum(axis=(0, 1, 2))
    if not need_grad_x:
        return None, gw, gb
    rows = (g2 @ w.reshape(-1, cout).T).reshape(b, oh, ow, len(taps), cin)
    gxp = np.zeros((b, h + 2 * p, ww + 2 * p, cin))
    for k, (r, c) in enumerate(taps):
        gxp[:, r, c, :] += rows[:, :, :, k, :]
    return np.ascontiguousarray(gxp[:, p : p + h, p : p + ww, :]), gw, gb


def satd_smooth(d: np.ndarray, cfg: SatdConfig = SatdConfig()) -> float:
    """sum over raster-order tiles of sqrt((H T H)^2 + eps), for one block."""
    h = hadamard_matrix(cfg.partition).astype(np.float64)
    p = cfg.partition
    total = 0.0
    for i in range(0, d.shape[0], p):
        for j in range(0, d.shape[1], p):
            t = h @ np.asarray(d[i : i + p, j : j + p], dtype=np.float64) @ h
            total += float(np.sqrt(t * t + cfg.epsilon).sum())
    return total


class Refs(NamedTuple):
    """One block's references: the row above and the column to the left."""

    top: np.ndarray   # (2n+1,), top[0] is the corner above-left
    left: np.ndarray  # (2n,), from the row of the block's first line down
    available: dict[str, bool]


def scan_line(refs: Refs) -> np.ndarray:
    """The (4n+1,) line psrnn.intra works on: bottom-left sample to top-right one."""
    return np.concatenate([refs.left[::-1], refs.top])


def reference_samples_loop(image: np.ndarray, origin: tuple[int, int], n: int,
                           availability: dict[str, bool] | None = None,
                           fill_value: float = 0.5) -> Refs:
    """Slice one block's reference segments, then fill the gaps by a scan."""
    h, w = image.shape
    y, x = origin
    img = image.astype(np.float64)
    avail = {
        "corner": y > 0 and x > 0,
        "above": y > 0,
        "above-right": y > 0 and x + 2 * n <= w,
        "left": x > 0,
        "below-left": x > 0 and y + 2 * n <= h,
    }
    for k, v in (availability or {}).items():
        avail[k] = avail[k] and bool(v)
    top = np.full(2 * n + 1, fill_value, dtype=np.float64)
    left = np.full(2 * n, fill_value, dtype=np.float64)
    if avail["corner"]:
        top[0] = img[y - 1, x - 1]
    if avail["above"]:
        top[1 : n + 1] = img[y - 1, x : x + n]
    if avail["above-right"]:
        top[n + 1 :] = img[y - 1, x + n : x + 2 * n]
    if avail["left"]:
        left[:n] = img[y : y + n, x - 1]
    if avail["below-left"]:
        left[n:] = img[y + n : y + 2 * n, x - 1]
    substitute_loop(top, left, avail, n, fill_value)
    return Refs(top=top, left=left, available=avail)


def substitute_loop(top: np.ndarray, left: np.ndarray, avail: dict[str, bool],
                    n: int, fill_value: float) -> None:
    """Fill unavailable segments by propagating the nearest available sample.

    Scan order: bottom of the left column upward, corner, then the top row
    rightward. Mutates top/left in place.
    """
    if all(avail.values()):
        return
    # (array, index, segment) triplets in scan order
    scan = []
    for j in range(2 * n - 1, -1, -1):
        scan.append((left, j, "left" if j < n else "below-left"))
    scan.append((top, 0, "corner"))
    for i in range(1, 2 * n + 1):
        scan.append((top, i, "above" if i <= n else "above-right"))

    flags = [avail[seg] for _, _, seg in scan]
    if not any(flags):
        for arr, idx, _ in scan:
            arr[idx] = fill_value
        return
    first = flags.index(True)
    prev = scan[first][0][scan[first][1]]
    for (arr, idx, _), ok in zip(scan, flags):
        if ok:
            prev = arr[idx]
        else:
            arr[idx] = prev


def smooth_references_loop(refs: Refs) -> Refs:
    """[1 2 1]/4 filtering along the reference line; endpoints unchanged."""
    n2 = len(refs.left)
    line = scan_line(refs)
    sm = line.copy()
    sm[1:-1] = (line[:-2] + 2.0 * line[1:-1] + line[2:]) / 4.0
    return Refs(top=sm[n2:], left=sm[:n2][::-1].copy(), available=dict(refs.available))


def predict_planar_loop(refs: Refs, n: int) -> np.ndarray:
    top = refs.top[1 : n + 1]
    left = refs.left[:n]
    tr = refs.top[n + 1]
    bl = refs.left[n]
    xs = np.arange(n, dtype=np.float64)
    ys = np.arange(n, dtype=np.float64)
    horiz = (n - 1 - xs)[None, :] * left[:, None] + (xs + 1)[None, :] * tr
    vert = (n - 1 - ys)[:, None] * top[None, :] + (ys + 1)[:, None] * bl
    return (horiz + vert) / (2.0 * n)


def predict_dc_loop(refs: Refs, n: int) -> np.ndarray:
    dc = (refs.top[1 : n + 1].sum() + refs.left[:n].sum()) / (2.0 * n)
    return np.full((n, n), dc, dtype=np.float64)


def angular_ref_array(primary_full: np.ndarray, secondary: np.ndarray,
                      angle: int, n: int) -> tuple[np.ndarray, int]:
    """Projection reference with offset indexing; ref[off + k] = logical k.

    primary_full holds the corner at index 0 followed by 2n samples;
    secondary is the 2n samples of the other direction (used to extend the
    negative side when the displacement is negative).
    """
    off = n
    ref = np.zeros(3 * n + 2, dtype=np.float64)
    ref[off : off + 2 * n + 1] = primary_full
    ref[-1] = primary_full[-1]  # weight-0 slot for the fractional gather
    if angle < 0:
        inv = INV_ANGLE[angle]
        lo = (n * angle) >> 5
        for k in range(-1, lo - 1, -1):
            j = -1 + ((k * inv + 128) >> 8)
            ref[off + k] = primary_full[0] if j < 0 else secondary[min(j, 2 * n - 1)]
    return ref, off


def predict_mode_loop(refs: Refs, mode: int, n: int) -> np.ndarray:
    """N x N prediction for one mode: closed-form planar/DC, else predict_angular."""
    if mode == MODE_PLANAR:
        return predict_planar_loop(refs, n)
    if mode == MODE_DC:
        return predict_dc_loop(refs, n)
    return predict_angular(refs, mode, n)


def predict_angular(refs: Refs, mode: int, n: int) -> np.ndarray:
    """N x N prediction of angular mode 2..34, one mode at a time."""
    angle = INTRA_PRED_ANGLE[mode - 2]
    vertical = mode >= 18
    if vertical:
        ref, off = angular_ref_array(refs.top, refs.left, angle, n)
    else:
        ref, off = angular_ref_array(
            np.concatenate([[refs.top[0]], refs.left]), refs.top[1:], angle, n)
    steps = np.arange(1, n + 1) * angle
    idx = steps >> 5
    fact = steps & 31
    base = np.arange(n)
    gather = off + base[None, :] + idx[:, None] + 1
    w = fact[:, None] / 32.0
    pred = (1.0 - w) * ref[gather] + w * ref[gather + 1]
    # rows of `pred` follow the scan axis: y for vertical modes, x for horizontal
    return pred if vertical else pred.T


def mode_search_loop(refs: Refs, target: np.ndarray, n: int,
                     lam: float) -> tuple[ModeCost, np.ndarray]:
    """Score the 35 modes one at a time; the first strict minimum wins.

    Returns the winner's cost and its prediction.
    """
    best, best_pred = None, None
    for mode in range(N_MODES):
        pred = predict_mode_loop(refs, mode, n)
        cost = ModeCost(mode=mode, satd=satd(pred - target) * PIXEL_SCALE,
                        bits_proxy=DEFAULT_MODE_BITS, lam=lam)
        if best is None or cost.total < best.total:
            best, best_pred = cost, pred
    return best, best_pred


def block_record(image, recon, origin: tuple[int, int], n: int, lam: float, cfg,
                 net_pred: np.ndarray | None):
    """One block's evaluation record, built from the per-block oracles."""
    y, x = origin
    target = image.pixels[y : y + n, x : x + n].astype(np.float64)
    refs = reference_samples_loop(recon.pixels, origin, n)
    if cfg.ref_smoothing:
        refs = smooth_references_loop(refs)
    base, base_pred = mode_search_loop(refs, target, n, lam)
    base_mse = float(np.mean((base_pred - target) ** 2))
    if cfg.oracle:
        net_pred = target
    if net_pred is None:
        return TR.BlockRecord(origin=origin, n=n, base=base, net=None,
                              winner="baseline", base_mse=base_mse, net_mse=None)
    net_cost = network_mode_cost(satd(net_pred - target), lam)
    winner = NETWORK if net_cost.total < base.total else "baseline"
    net_mse = float(np.mean((net_pred - target) ** 2))
    return TR.BlockRecord(origin=origin, n=n, base=base, net=net_cost,
                          winner=winner, base_mse=base_mse, net_mse=net_mse)


def greedy_eval_batch1(nets, images, qp: int, cfg) -> list:
    """Greedy top-down block records, running the network once per candidate."""
    sizes = sorted(cfg.block_sizes, reverse=True)
    lam = hm_lambda(qp)
    records = []
    for image in images:
        recon = degrade(image, DegradeConfig(qp=qp))

        def descend(origin, n):
            pred = None
            if n in nets and not cfg.oracle:
                ctx = TR._contexts(nets[n], image, recon, [origin])
                pred = forward_batch(nets[n], ctx, need_cache=False)[0][0]
            whole = block_record(image, recon, origin, n, lam, cfg, pred)
            if n == sizes[-1]:
                return [whole], whole.winner_total
            half = n // 2
            children, costs = [], []
            for dy in (0, half):
                for dx in (0, half):
                    records, cost = descend((origin[0] + dy, origin[1] + dx), half)
                    children.extend(records)
                    costs.append(cost)
            split_cost = sum(costs) + lam * SPLIT_FLAG_BITS
            if split_cost < whole.winner_total:
                return children, split_cost
            return [whole], whole.winner_total

        h, w = image.pixels.shape
        top = sizes[0]
        for y in range(top, h - top + 1, top):
            for x in range(top, w - top + 1, top):
                records.extend(descend((y, x), top)[0])
    return records


def fixed_baseline_loop(images, qp: int, cfg) -> list:
    """Baseline-only fixed-tiling block records, one per-block record per tile."""
    lam = hm_lambda(qp)
    records = []
    for image in images:
        recon = degrade(image, DegradeConfig(qp=qp))
        h, w = image.pixels.shape
        for n in cfg.block_sizes:
            for y in range(n, h - n + 1, n):
                for x in range(n, w - n + 1, n):
                    records.append(block_record(image, recon, (y, x), n, lam, cfg, None))
    return records


class Sample(NamedTuple):
    """One context/target pair, with the origin and mode it was cut with."""

    context: np.ndarray  # (2n, 2n) float32
    target: np.ndarray   # (n, n) float32
    origin: tuple[int, int]
    availability_mode: str


def context_loop(degraded: np.ndarray, clean: np.ndarray, origin: tuple[int, int], n: int,
                 availability_mode: str, fill: float = 0.5) -> Sample:
    """One context/target pair: slice the window, copy it, mask it."""
    y, x = origin
    window = degraded[y : y + 2 * n, x : x + 2 * n].astype(np.float32).copy()
    assert window.shape == (2 * n, 2 * n)
    target = clean[y + n : y + 2 * n, x + n : x + 2 * n].astype(np.float32).copy()
    window[n:, n:] = fill
    if availability_mode == THREE_BLOCK:
        window[n:, :n] = fill
    return Sample(context=window, target=target, origin=(y, x),
                  availability_mode=availability_mode)


def sample_contexts_loop(img_clean: GrayImage, img_degraded: GrayImage, n: int, count: int,
                         availability_mode: str, seed: int = 0,
                         fill: float = 0.5) -> list[Sample]:
    """fill_samples' samples of one source, with the same draws, cut one
    sample at a time."""
    h, w = img_clean.pixels.shape
    gen = stream(seed, f"contexts/n{n}")
    ys = gen.integers(0, h - 2 * n + 1, size=count)
    xs = gen.integers(0, w - 2 * n + 1, size=count)
    return [context_loop(img_degraded.pixels, img_clean.pixels, (int(y), int(x)), n,
                         availability_mode, fill)
            for y, x in zip(ys, xs)]


def build_training_samples_loop(images: list[GrayImage], n: int, count: int, seed: int,
                                qps: tuple[int, ...] = TRAIN_QPS,
                                availability_mode: str = THREE_BLOCK,
                                fill: float = 0.5) -> list[Sample]:
    """build_training_samples with the same draws, as a list of samples."""
    gen = stream(seed, "assign")
    per_image = np.bincount(gen.integers(0, len(images), size=count), minlength=len(images))
    samples = []
    for i, (img, k) in enumerate(zip(images, per_image)):
        if k:
            deg = degrade(img, DegradeConfig(qp=qps[i % len(qps)]))
            samples.extend(sample_contexts_loop(img, deg, n, int(k), availability_mode,
                                                seed=seed + 7919 * i, fill=fill))
    return samples


def stack_blocks(blocks: list[Sample], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(contexts, targets) of a list of samples, shaped like SampleSet.take's."""
    if not blocks:
        return np.zeros((0, 2 * n, 2 * n), np.float32), np.zeros((0, n, n), np.float32)
    return np.stack([b.context for b in blocks]), np.stack([b.target for b in blocks])
