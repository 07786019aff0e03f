"""Reference implementations the library's fast paths are checked against.

- A step-by-step GRU recurrence (one Python step per plane, every product
  spelled out) that the fused sweep in psrnn.layers must reproduce.
- The eps-smoothed SATD objective, evaluated tile by tile, whose exact
  gradient psrnn.hadamard.satd_loss_grad_batch claims to be.

Both run in float64 and favour plainness over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psrnn.hadamard import SatdConfig, hadamard_matrix
from psrnn.layers import GruParams, _gate_fn


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
