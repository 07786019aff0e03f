"""Trainable layer primitives: GRU cell, PReLU, Adam, gradient clipping.

The recurrent cell follows the gated form

    z_t = g(Wz x_t + Uz h_{t-1})
    r_t = g(Wr x_t + Ur h_{t-1})
    h_t = z_t * h_{t-1} + (1 - z_t) * tanh(W x_t + U (r_t * h_{t-1}) + b)

where g is sigmoid by default. A tanh gate variant is selectable through
`gate_activation`, since negative gates are a defensible alternative reading
of the recurrence, but it is not the default.

The cell only ever runs as a sweep over a whole plane sequence
(gru_sweep_forward / gru_sweep_backward) over the stacked GruParams. All
parameters are stored float32; every forward/backward runs in float64
internally. Backward passes are exact gradients of the unrolled recurrence,
checked against finite differences and against a step-by-step reference
recurrence in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import ShapeError, UsageError

GATE_ACTIVATIONS = ("sigmoid", "tanh")


def sigmoid64(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """1 / (1 + exp(-x)) in float64, written into out (out may be x; None
    makes a new array)."""
    # exp(-|x|) never overflows; both tails stay accurate down to underflow.
    # The numerator is 1 for x >= 0 and e below: as e <= 1, the maximum of e
    # and the mask gives it bit for bit (a NaN e stays NaN) without np.where,
    # whose select on a data-dependent mask costs several times the division.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0, out=out)
    e += 1.0
    return np.divide(num, e, out=num)


@dataclass
class GruParams:
    """Float32 weights in the layout the sweep multiplies by: Wx = [Wz; Wr; W]
    (3h, in), Uzr = [Uz; Ur] (2h, h), U (h, h) and the candidate bias b (h,).
    named() hands out the per-gate matrices as row-slice views of the stacks."""

    Wx: np.ndarray
    Uzr: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros(cls, hidden: int, input_dim: int) -> "GruParams":
        h, f32 = hidden, np.float32
        return cls(Wx=np.zeros((3 * h, input_dim), f32), Uzr=np.zeros((2 * h, h), f32),
                   U=np.zeros((h, h), f32), b=np.zeros(h, f32))

    @property
    def hidden(self) -> int:
        return self.U.shape[0]

    @property
    def input_dim(self) -> int:
        return self.Wx.shape[1]

    def validate(self):
        h, d = self.hidden, self.input_dim
        for name, shape in (("Wx", (3 * h, d)), ("Uzr", (2 * h, h)), ("U", (h, h)),
                            ("b", (h,))):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} must have shape {shape}")

    def named(self) -> dict[str, np.ndarray]:
        h = self.hidden
        return {"Wz": self.Wx[:h], "Uz": self.Uzr[:h], "Wr": self.Wx[h : 2 * h],
                "Ur": self.Uzr[h:], "W": self.Wx[2 * h :], "U": self.U, "b": self.b}


def _gate_fn(gate_activation: str):
    if gate_activation == "sigmoid":
        return sigmoid64, lambda g: g * (1.0 - g)
    if gate_activation == "tanh":
        return np.tanh, lambda g: 1.0 - g * g
    raise UsageError(f"gate_activation must be one of {GATE_ACTIVATIONS}")


# ---------------------------------------------------------------------------
# Sweep over a plane sequence
#
# The input-side projections share no recurrence, so they are hoisted out of
# the step loop into one matrix product per slab of whole steps (see
# tensor.SLAB_BYTES): a projection under the cap is one product, a larger
# one is computed, used and freed a slab at a time, with the bits of the
# whole product. Only the hidden-side products stay inside the step
# loop. Weight gradients are accumulated with single stacked products after
# the backward loop.
#
# The forward step loop allocates nothing: its products, gates and candidate
# go into buffers made once per sweep (a cached candidate straight into the
# cache), each new state into `states`. At eval's batch sizes fresh
# temporaries cost more than the arithmetic. Each value comes from the
# operations of the plain expressions in tests/oracles.py, in their order (a
# sum's operands may swap), so the bits do not change.
# ---------------------------------------------------------------------------


def _t64(w: np.ndarray) -> np.ndarray:
    """A contiguous float64 transpose: the operand layout the step products read."""
    return np.ascontiguousarray(w.T, dtype=np.float64)


@dataclass
class GruSweepCache:
    xs: np.ndarray      # (n, b, in)
    states: np.ndarray  # (n + 1, b, h): h0, then the state after each step
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray
    gate_activation: str

    @property
    def hs(self) -> np.ndarray:
        return self.states[1:]


def gru_sweep_forward(params: GruParams, xs: np.ndarray, h0: np.ndarray,
                      gate_activation: str = "sigmoid", need_cache: bool = True):
    """Unroll over xs of shape (n_steps, batch, input_dim); returns (hs, cache).

    need_cache=False returns None for the cache: an inference sweep keeps
    no inputs, gates or candidates.
    """
    act, _ = _gate_fn(gate_activation)
    params.validate()
    n, b, d = xs.shape
    if n < 1:
        raise UsageError("cannot sweep an empty step sequence")
    if d != params.input_dim or h0.shape != (b, params.hidden):
        raise ShapeError(f"sweep of {xs.shape} from h0 {h0.shape} does not fit params "
                         f"{params.input_dim}->{params.hidden}")
    h = params.hidden
    WxT, UzrT, UT = _t64(params.Wx), _t64(params.Uzr), _t64(params.U)
    b64 = params.b.astype(np.float64)
    states = np.empty((n + 1, b, h))
    states[0] = h0
    if need_cache:
        zs, rs, cs = (np.empty((n, b, h)) for _ in range(3))
    # the step's buffers: both gates, r * h_{t-1} (later (1 - z) * c) and,
    # without a cache, the candidate
    zr, rh, c = np.empty((b, 2 * h)), np.empty((b, h)), np.empty((b, h))
    z, r = zr[:, :h], zr[:, h:]
    bounds = tensor._slab_bounds(n, b * 3 * h * 8, tensor.SLAB_BYTES)
    for i, j in zip(bounds, bounds[1:]):
        xproj = (xs[i:j].reshape((j - i) * b, d) @ WxT).reshape(j - i, b, 3 * h)
        xzr, xc = xproj[:, :, : 2 * h], xproj[:, :, 2 * h :]
        for t in range(i, j):
            ht, nxt = states[t], states[t + 1]
            np.matmul(ht, UzrT, out=zr)
            zr += xzr[t - i]
            act(zr, out=zr)
            np.multiply(r, ht, out=rh)
            if need_cache:
                zs[t], rs[t], c = z, r, cs[t]
            np.matmul(rh, UT, out=c)
            c += xc[t - i]
            c += b64
            np.tanh(c, out=c)
            np.multiply(z, ht, out=nxt)
            np.subtract(1.0, z, out=rh)
            rh *= c
            nxt += rh
        del xproj, xzr, xc  # before the next slab's projection
    if not need_cache:
        return states[1:], None
    cache = GruSweepCache(xs=xs, states=states, z=zs, r=rs, c=cs,
                          gate_activation=gate_activation)
    return cache.hs, cache


def gru_sweep_backward(params: GruParams, cache: GruSweepCache, grads_h: np.ndarray):
    """Gradients for gru_sweep_forward; grads_h is (n, b, h) upstream."""
    Wx, Uzr, U = _t64(params.Wx).T, _t64(params.Uzr).T, _t64(params.U).T
    _, act_deriv = _gate_fn(cache.gate_activation)
    n, b, h = cache.hs.shape
    prev_states = cache.states[:-1]
    d3 = np.empty((n, b, 3 * h))
    carried = np.zeros((b, h))
    for t in range(n - 1, -1, -1):
        gh = carried + grads_h[t]
        z, r, c, h_prev = cache.z[t], cache.r[t], cache.c[t], prev_states[t]
        dz = gh * (h_prev - c)
        dc = gh * (1.0 - z)
        dh = gh * z
        dac = dc * (1.0 - c * c)
        drh = dac @ U
        dh += drh * r
        dar = (drh * h_prev) * act_deriv(r)
        daz = dz * act_deriv(z)
        d3[t, :, :h] = daz
        d3[t, :, h : 2 * h] = dar
        d3[t, :, 2 * h :] = dac
        dh += d3[t, :, : 2 * h] @ Uzr
        carried = dh
    flat_d3 = d3.reshape(n * b, 3 * h)
    flat_x = cache.xs.reshape(n * b, -1)
    g_wstack = flat_d3.T @ flat_x
    flat_hp = prev_states.reshape(n * b, h)
    g_uzr = d3[:, :, : 2 * h].reshape(n * b, 2 * h).T @ flat_hp
    flat_dac = d3[:, :, 2 * h :].reshape(n * b, h)
    g_u = flat_dac.T @ (cache.r * prev_states).reshape(n * b, h)
    grads = {
        "Wz": g_wstack[:h], "Wr": g_wstack[h : 2 * h], "W": g_wstack[2 * h :],
        "Uz": g_uzr[:h], "Ur": g_uzr[h:], "U": g_u,
        "b": flat_dac.sum(axis=0),
    }
    grad_xs = (flat_d3 @ Wx).reshape(cache.xs.shape)
    return grads, carried, grad_xs


# ---------------------------------------------------------------------------
# PReLU
# ---------------------------------------------------------------------------


def prelu_forward(x: np.ndarray, alpha: np.ndarray, inplace: bool = False) -> np.ndarray:
    """x if x >= 0 else alpha * x, with one slope per trailing channel.

    inplace=True writes the result over x and returns it. Each element is
    x * 1.0 or x * alpha, so the bits are those of selecting x or alpha * x.
    A per-element factor keeps small maps as fast as that selection; a
    masked multiply (where=x < 0) is up to twice as slow on them.
    """
    if alpha.shape != (x.shape[-1],):
        raise ShapeError(f"alpha {alpha.shape} must match channels {x.shape[-1]}")
    return np.multiply(x, np.where(x < 0, alpha, 1.0), out=x if inplace else None)


def prelu_backward(x: np.ndarray, alpha: np.ndarray, grad_out: np.ndarray):
    """Gradients wrt the input and the per-channel slopes."""
    if alpha.shape != (x.shape[-1],):
        raise ShapeError(f"alpha {alpha.shape} must match channels {x.shape[-1]}")
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad_out {grad_out.shape} != input {x.shape}")
    neg = x < 0
    grad_x = np.where(neg, alpha * grad_out, grad_out)
    axes = tuple(range(x.ndim - 1))
    grad_alpha = np.where(neg, grad_out * x, 0.0).sum(axis=axes)
    return grad_x, grad_alpha


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# decay rates of the first and second moment, and the denominator's epsilon
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """Apply one bias-corrected Adam update in place; returns (params, state)."""
    state.step_count += 1
    t = state.step_count
    corr1 = 1.0 - ADAM_B1 ** t
    corr2 = 1.0 - ADAM_B2 ** t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"grad {name} shape {g.shape} != param {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, dtype=np.float32)
            state.v[name] = np.zeros(p.shape, dtype=np.float32)
        m = state.m[name].astype(np.float64) * ADAM_B1 + (1.0 - ADAM_B1) * g
        v = state.v[name].astype(np.float64) * ADAM_B2 + (1.0 - ADAM_B2) * g * g
        state.m[name] = m.astype(np.float32)
        state.v[name] = v.astype(np.float32)
        update = lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        p[...] = (p.astype(np.float64) - update).astype(np.float32)
    return params, state


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.

    A max_norm <= 0 leaves them unscaled. Returns the norm before scaling.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(gen: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-limit, limit, size=shape).astype(np.float32)


def init_gru(gen: np.random.Generator, hidden: int, input_dim: int) -> GruParams:
    p = GruParams.zeros(hidden, input_dim)
    views = p.named()
    for name in ("Wz", "Uz", "Wr", "Ur", "W", "U"):
        fan_in = input_dim if name.startswith("W") else hidden
        views[name][...] = glorot_uniform(gen, views[name].shape, fan_in, hidden)
    return p
