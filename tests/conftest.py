import struct
import sys
import zlib

import numpy as np
from hypothesis import settings

from psrnn import tensor as T

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


def rel_err(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-8) -> float:
    """Norm-based relative error, robust to near-zero gradients."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(reference, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)


def fd_grad(fn, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function over every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def directional_check(loss_fn, arr: np.ndarray, grad: np.ndarray,
                      gen: np.random.Generator, h: float = 2e-5,
                      entries: int | None = None) -> float:
    """Directional finite-difference error for one float32 parameter tensor.

    Perturbs along a random sign direction (optionally restricted to
    `entries` sampled positions), measures the loss difference, and compares
    it against the analytic gradient projected onto the step the float32
    storage actually realized. Robust to activation kinks and to the
    float32 parameter grid. Returns the relative error of the two numbers.
    """
    direction = gen.choice([-1.0, 1.0], size=arr.shape)
    if entries is not None and entries < arr.size:
        mask = np.zeros(arr.size)
        mask[gen.choice(arr.size, size=entries, replace=False)] = 1.0
        direction = direction * mask.reshape(arr.shape)
    orig = arr.copy()
    plus = (orig.astype(np.float64) + h * direction).astype(np.float32)
    minus = (orig.astype(np.float64) - h * direction).astype(np.float32)
    arr[...] = plus
    fp = loss_fn()
    arr[...] = minus
    fm = loss_fn()
    arr[...] = orig
    step = plus.astype(np.float64) - minus.astype(np.float64)
    analytic = float(np.sum(np.asarray(grad, dtype=np.float64) * step))
    return rel_err(analytic, fp - fm, floor=1e-10)


def _conv_cache_margin(cache) -> float:
    pre = cache[1]  # (x, pre_activation); pre is None for linear layers
    return np.inf if pre is None else float(np.min(np.abs(pre)))


def min_kink_margin(caches) -> float:
    """Distance of the nearest activation to a PReLU or clip kink.

    Finite differences of the network are only trustworthy when no
    pre-activation sits within the perturbation's reach of a kink; tests
    measure this margin and size the FD step well below it.
    """
    layer_caches, pre_clip = caches
    margin = np.inf
    for c in layer_caches:
        # a unit's cache is (channels, h sweep, v sweep, fusion conv cache)
        margin = min(margin, _conv_cache_margin(c[3] if len(c) == 4 else c))
    margin = min(margin, float(np.min(np.abs(pre_clip))),
                 float(np.min(np.abs(pre_clip - 1.0))))
    return margin


def dyadic_residue(gen: np.random.Generator, shape, scale_bits: int = 12) -> np.ndarray:
    """Random residue whose entries are multiples of 2**-scale_bits in [-1, 1].

    Sums of such values are exact in float64 regardless of association, so
    two correct SATD implementations must agree bit for bit.
    """
    q = 1 << scale_bits
    return (gen.integers(-q, q + 1, size=shape) / q).astype(np.float64)


def rewrite_config_text(path, old: bytes, new: bytes) -> None:
    """Edit the stored config text of a model file and re-seal its CRC."""
    data = bytearray(path.read_bytes())[:-4]
    size = struct.unpack("<I", data[12:16])[0]
    text = bytes(data[16 : 16 + size])
    assert old in text
    text = text.replace(old, new)
    data[12 : 16 + size] = struct.pack("<I", len(text)) + text
    data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
    path.write_bytes(bytes(data))


def _record_slabs(monkeypatch, caller: str) -> list[int]:
    """Count the slabs of each tensor._slab_bounds call that the function
    named caller makes, whichever module's name for it the caller uses."""
    counts, bounds = [], T._slab_bounds

    def counting(*args):
        out = bounds(*args)
        if sys._getframe(1).f_code.co_name == caller:
            counts.append(len(out) - 1)
        return out

    monkeypatch.setattr(T, "_slab_bounds", counting)
    return counts


def record_sweep_slabs(monkeypatch) -> list[int]:
    """Make gru_sweep_forward append to the returned list the number of slabs
    of steps each sweep projects its inputs in."""
    return _record_slabs(monkeypatch, "gru_sweep_forward")


def record_conv_slabs(monkeypatch) -> list[int]:
    """Make conv2d_forward_batch append to the returned list the number of
    slabs of samples each conv gathers its patch rows in."""
    return _record_slabs(monkeypatch, "conv2d_forward_batch")
