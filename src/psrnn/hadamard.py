"""Hadamard transform, SATD, and the smoothed SATD gradient.

SATD of a residue block D is the L1 norm of its two-sided Hadamard
transform D' = H D H (H is symmetric, so the transposed form is the same
matrix). Residues larger than the transform order are tiled into
non-overlapping partition x partition blocks in raster order, matching how
encoders apply it, and the per-tile values are summed.

The absolute value has no derivative at zero, so the training gradient uses
a smoothed surrogate: |v| ~ sqrt(v^2 + eps). Differentiating the tile loss
through the transform gives

    dS/dD[k, l] = sum_ij D'[i, j] / sqrt(D'[i, j]^2 + eps) * H[i, k] * H[j, l]

which in matrix form is H G H with G = D' / sqrt(D'^2 + eps). All of this
runs in float64 internally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PartitionError, ShapeError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def hadamard_matrix(order: int) -> np.ndarray:
    """Sylvester-recursive Hadamard matrix of the given power-of-two order.

    Entries are int64 in {-1, +1}; H @ H.T == order * I exactly.
    """
    if not _is_pow2(order):
        raise ShapeError(f"Hadamard order must be a power of two >= 1, got {order}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


@dataclass(frozen=True)
class SatdConfig:
    """Tiling and smoothing parameters for the SATD loss.

    partition is the Hadamard block size (4 keeps every block size from 4
    to 32 divisible and matches the smallest prediction unit); epsilon is
    the gradient smoothing term. The loss is not normalized by pixel count;
    its scale is absorbed by the learning rate.
    """

    partition: int = 4
    epsilon: float = 1e-8

    def __post_init__(self):
        if not _is_pow2(self.partition):
            raise ShapeError(f"partition must be a power of two, got {self.partition}")
        if not self.epsilon > 0:
            raise ShapeError(f"epsilon must be positive, got {self.epsilon}")


def satd(d: np.ndarray, cfg: SatdConfig = SatdConfig()) -> float:
    """SATD of one (rows, cols) residue block: satd_batch on a batch of one."""
    return float(satd_batch(d[None], cfg)[0])


def satd_batch(d: np.ndarray, cfg: SatdConfig = SatdConfig()) -> np.ndarray:
    """Per-sample SATD for a (b, rows, cols) stack of residues, in float64."""
    return np.abs(_transform_tiles(d, cfg.partition)).sum(axis=(1, 2, 3, 4))


def satd_loss_grad_batch(d: np.ndarray, cfg: SatdConfig = SatdConfig()) -> np.ndarray:
    """Smoothed-SATD gradients for a (b, rows, cols) stack of residues."""
    p = cfg.partition
    t = _transform_tiles(d, p)
    h = _h64(p)
    gd = h @ (t / np.sqrt(t * t + cfg.epsilon)) @ h
    return gd.transpose(0, 1, 3, 2, 4).reshape(d.shape)


@functools.cache
def _h64(order: int) -> np.ndarray:
    h = hadamard_matrix(order).astype(np.float64)
    h.flags.writeable = False
    return h


def _transform_tiles(d: np.ndarray, p: int) -> np.ndarray:
    """H T H for every p x p tile T of a (b, rows, cols) stack.

    Returns (b, rows/p, cols/p, p, p) in float64; tiles are in raster order.
    """
    if d.ndim != 3:
        raise ShapeError(f"expected (b, rows, cols) residues, got {d.shape}")
    b, rows, cols = d.shape
    if rows % p or cols % p:
        raise PartitionError(f"residues {d.shape[1:]} not divisible by partition {p}")
    tiles = (
        d.astype(np.float64)
        .reshape(b, rows // p, p, cols // p, p)
        .transpose(0, 1, 3, 2, 4)
    )
    h = _h64(p)
    return h @ tiles @ h
