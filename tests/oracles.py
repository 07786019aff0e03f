"""Reference implementations the library's fast paths are checked against.

- A step-by-step GRU recurrence (one Python step per plane, every product
  spelled out) that the fused sweep in psrnn.layers must reproduce.
- The eps-smoothed SATD objective, evaluated tile by tile, whose exact
  gradient psrnn.hadamard.satd_loss_grad_batch claims to be.
- The per-mode angular predictor (build the projected reference line for
  one mode, then interpolate), which psrnn.intra's gather tables must
  reproduce bit for bit.
- The greedy quad-tree evaluation with one batch-1 network pass per
  candidate block, which the level-batched evaluation must match.
- Context sampling with one slice-and-mask per sample, which the one-gather
  psrnn.data.sample_contexts and build_training_samples must reproduce byte
  for byte. It returns ContextBlock items, so the origin and availability
  mode of every sample can be inspected.

All favour plainness over speed; the numeric ones run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psrnn import training as TR
from psrnn.data import (FOUR_BLOCK, THREE_BLOCK, TRAIN_QPS, ContextBlock, DegradeConfig,
                        GrayImage, degrade)
from psrnn.hadamard import SatdConfig, hadamard_matrix
from psrnn.intra import (INTRA_PRED_ANGLE, INV_ANGLE, MODE_DC, MODE_PLANAR, SPLIT_FLAG_BITS,
                         ReferenceSamples, _predict_dc, _predict_planar, hm_lambda)
from psrnn.layers import GruParams, _gate_fn
from psrnn.model import forward_batch
from psrnn.rng import stream


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
        z = act(x @ p["Wz"].T + h @ p["Uz"].T)
        r = act(x @ p["Wr"].T + h @ p["Ur"].T)
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


def predict_mode_loop(refs: ReferenceSamples, mode: int, n: int) -> np.ndarray:
    """N x N prediction for one mode: closed-form planar/DC, else predict_angular."""
    if mode == MODE_PLANAR:
        return _predict_planar(refs, n)
    if mode == MODE_DC:
        return _predict_dc(refs, n)
    return predict_angular(refs, mode, n)


def predict_angular(refs: ReferenceSamples, mode: int, n: int) -> np.ndarray:
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


def greedy_eval_batch1(nets, images, qp: int, cfg) -> list:
    """Greedy top-down block records, running the network once per candidate."""
    sizes = sorted(cfg.block_sizes, reverse=True)
    lam = hm_lambda(qp)
    records = []
    for image in images:
        recon = degrade(image, DegradeConfig(qp=qp))

        def descend(origin, n):
            pred = None
            if n in nets:
                ctx = TR._contexts(nets[n], image, recon, [origin])
                pred = forward_batch(nets[n], ctx, need_cache=False)[0][0]
            whole = TR._block_record(image, recon, origin, n, lam, cfg, pred)
            if n == sizes[-1]:
                return [whole]
            half = n // 2
            children = []
            for dy in (0, half):
                for dx in (0, half):
                    children.extend(descend((origin[0] + dy, origin[1] + dx), half))
            split_cost = sum(r.winner_total for r in children) + lam * SPLIT_FLAG_BITS
            return children if split_cost < whole.winner_total else [whole]

        for origin in TR._tile_origins(image.pixels.shape, sizes[0]):
            records.extend(descend(origin, sizes[0]))
    return records


def context_loop(degraded: np.ndarray, clean: np.ndarray, origin: tuple[int, int], n: int,
                 availability_mode: str, fill: float = 0.5) -> ContextBlock:
    """One context/target pair: slice the window, copy it, mask it."""
    y, x = origin
    window = degraded[y : y + 2 * n, x : x + 2 * n].astype(np.float32).copy()
    assert window.shape == (2 * n, 2 * n)
    target = clean[y + n : y + 2 * n, x + n : x + 2 * n].astype(np.float32).copy()
    window[n:, n:] = fill
    if availability_mode == THREE_BLOCK:
        window[n:, :n] = fill
    return ContextBlock(context=window, target=target,
                        availability_mode=availability_mode, origin=(y, x), n=n)


def sample_contexts_loop(img_clean: GrayImage, img_degraded: GrayImage, n: int, count: int,
                         availability_mix: float = 0.25, seed: int = 0, fill: float = 0.5,
                         availability_mode: str | None = None) -> list[ContextBlock]:
    """sample_contexts with the same draws, cut one sample at a time."""
    h, w = img_clean.pixels.shape
    gen = stream(seed, f"contexts/n{n}")
    ys = gen.integers(0, h - 2 * n + 1, size=count)
    xs = gen.integers(0, w - 2 * n + 1, size=count)
    if availability_mode is None:
        four = gen.random(count) < availability_mix
        modes = [FOUR_BLOCK if f else THREE_BLOCK for f in four]
    else:
        modes = [availability_mode] * count
    return [context_loop(img_degraded.pixels, img_clean.pixels, (int(y), int(x)), n, mode, fill)
            for y, x, mode in zip(ys, xs, modes)]


def build_training_samples_loop(images: list[GrayImage], n: int, count: int, seed: int,
                                qps: tuple[int, ...] = TRAIN_QPS,
                                availability_mode: str | None = THREE_BLOCK,
                                availability_mix: float = 0.25,
                                fill: float = 0.5) -> list[ContextBlock]:
    """build_training_samples with the same draws, as a list of samples."""
    gen = stream(seed, "assign")
    per_image = np.bincount(gen.integers(0, len(images), size=count), minlength=len(images))
    samples = []
    for i, (img, k) in enumerate(zip(images, per_image)):
        if k:
            deg = degrade(img, DegradeConfig(qp=qps[i % len(qps)]))
            samples.extend(sample_contexts_loop(
                img, deg, n, int(k), availability_mix=availability_mix,
                seed=seed + 7919 * i, fill=fill, availability_mode=availability_mode))
    return samples


def stack_blocks(blocks: list[ContextBlock], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(contexts, targets) of a list of samples, shaped like a SampleSet's."""
    if not blocks:
        return np.zeros((0, 2 * n, 2 * n), np.float32), np.zeros((0, n, n), np.float32)
    return np.stack([b.context for b in blocks]), np.stack([b.target for b in blocks])
