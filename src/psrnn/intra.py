"""HEVC-style directional intra predictor used as the comparison anchor.

Works on normalized luma in [0, 1] with float arithmetic: angular modes use
the standard 33-entry displacement table with 1/32-sample linear
interpolation, but without the integer rounding offsets of a bit-exact
encoder, so every DC/angular prediction is a convex combination of reference
samples. Mode indices: 0 planar, 1 DC, 2..34 angular (10 pure horizontal,
26 pure vertical).

References are the single line above (2N+1 samples including the corner)
and to the left (2N samples), held as one (4N+1,) line in scan order: from
the bottom-left sample up the left column, through the corner and across
the top. A segment is available when it lies inside the image. Unavailable
segments are substituted along that scan, propagating the nearest available
value; when nothing is available at all, mid-gray (FILL_VALUE) is used.

Everything works on a chunk of k blocks at once. reference_lines gathers
the (k, 4N+1) lines with one fancy index and substitutes with a running
maximum of the last available index; smooth_lines filters them; best_modes
predicts all 35 modes of every block, scores the (k, 35, N, N) residues
with one batched SATD and takes the argmin per block. For one block,
build_reference_samples is reference_lines of one origin, and predict_mode
reads one mode of the 35-mode stack best_modes builds.

The 33 angular modes are table-driven: per block size, cached gather
indices and 1/32-sample weights map the reference line concat(top, left)
straight to every angular prediction, negative-angle reference extension
and horizontal-mode transpose included. One gather yields all 33 modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ModeError, ShapeError, SizeError
from .hadamard import satd, satd_batch  # noqa: F401 (satd is re-exported)

N_MODES = 35
MODE_PLANAR = 0
MODE_DC = 1
MODE_HORIZONTAL = 10
MODE_VERTICAL = 26
NETWORK = "network"

# Displacement parameters for modes 2..34, in 1/32-sample units.
INTRA_PRED_ANGLE = (
    32, 26, 21, 17, 13, 9, 5, 2, 0,          # 2..10 (horizontal group)
    -2, -5, -9, -13, -17, -21, -26, -32,      # 11..18
    -26, -21, -17, -13, -9, -5, -2, 0,        # 19..26 (vertical group)
    2, 5, 9, 13, 17, 21, 26, 32,              # 27..34
)

# round(8192 / angle) for the negative angles, used to extend references.
INV_ANGLE = {-2: -4096, -5: -1638, -9: -910, -13: -630,
             -17: -482, -21: -390, -26: -315, -32: -256}

SEGMENTS = ("below-left", "left", "corner", "above", "above-right")  # in scan order

DEFAULT_MODE_BITS = 6.0  # flat proxy per directional mode, no MPM modelling
NETWORK_FLAG_BITS = 1.0  # selecting the network costs its flag bit only
SPLIT_FLAG_BITS = 1.0    # one quad-tree split flag per greedy decision
PIXEL_SCALE = 255.0      # rate-distortion costs are charged on the 8-bit scale
FILL_VALUE = 0.5         # every sample of a line with no available segment


def hm_lambda(qp: int) -> float:
    """Intra-search lambda for a quantization parameter, HM convention."""
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


@functools.cache
def _line_layout(n: int) -> tuple[np.ndarray, ...]:
    """Per scan position of a (4n+1,) reference line: its row and column
    offset from the block origin and its SEGMENTS index; plus the line index
    of every sample of concat(top, left), the predictors' source order."""
    dy = np.concatenate([np.arange(2 * n - 1, -1, -1), np.full(2 * n + 1, -1)])
    dx = np.concatenate([np.full(2 * n + 1, -1), np.arange(2 * n)])
    seg = np.repeat(np.arange(len(SEGMENTS)), [n, n, 1, n, n])
    src = np.concatenate([np.arange(2 * n, 4 * n + 1), np.arange(2 * n - 1, -1, -1)])
    layout = (dy, dx, seg, src)
    for t in layout:
        t.flags.writeable = False
    return layout


def reference_lines(image: np.ndarray, origins, n: int) -> np.ndarray:
    """Substituted reference lines of the n x n blocks at `origins`, in one gather.

    `origins` is a (k, 2) array of (y, x); every block must fit inside the
    image. Returns the (k, 4n+1) float64 lines in scan order. A segment is
    available when it lies inside the image.
    """
    origins = np.asarray(origins, dtype=np.intp).reshape(-1, 2)
    h, w = image.shape
    ys, xs = origins[:, :1], origins[:, 1:]
    if not ((ys >= 0) & (xs >= 0) & (ys + n <= h) & (xs + n <= w)).all():
        raise SizeError(f"{n}x{n} blocks at these origins do not fit image {image.shape}")
    # (k, 5) in SEGMENTS order
    available = np.concatenate([(xs > 0) & (ys + 2 * n <= h), xs > 0, (ys > 0) & (xs > 0),
                                ys > 0, (ys > 0) & (xs + 2 * n <= w)], axis=1)
    dy, dx, seg, _ = _line_layout(n)
    ok = available[:, seg]
    # an unavailable sample copies the last available one before it in scan
    # order; a leading gap copies the first available sample
    last = np.maximum.accumulate(np.where(ok, np.arange(ok.shape[1]), -1), axis=1)
    take = np.where(last >= 0, last, ok.argmax(axis=1)[:, None])
    # clipping only moves the gather of lines with no available sample at all
    lines = image[np.clip(ys + dy[take], 0, h - 1),
                  np.clip(xs + dx[take], 0, w - 1)].astype(np.float64)
    lines[~ok.any(axis=1)] = FILL_VALUE
    return lines


def smooth_lines(lines: np.ndarray) -> np.ndarray:
    """[1 2 1]/4 filtering along (k, 4n+1) scan-order lines; endpoints unchanged."""
    out = lines.copy()
    out[:, 1:-1] = (lines[:, :-2] + 2.0 * lines[:, 1:-1] + lines[:, 2:]) / 4.0
    return out


def build_reference_samples(image: np.ndarray, block_origin: tuple[int, int],
                            n: int) -> np.ndarray:
    """The (4n+1,) substituted reference line of the block at block_origin."""
    return reference_lines(image, [block_origin], n)[0]


def _predict_planar(src: np.ndarray, n: int) -> np.ndarray:
    """(k, n, n) planar predictions from (k, 4n+1) source-order references."""
    top = src[:, 1 : n + 1]
    left = src[:, 2 * n + 1 : 3 * n + 1]
    tr = src[:, n + 1, None, None]
    bl = src[:, 3 * n + 1, None, None]
    xs = np.arange(n, dtype=np.float64)
    ys = np.arange(n, dtype=np.float64)[:, None]
    horiz = (n - 1 - xs) * left[:, :, None] + (xs + 1) * tr
    vert = (n - 1 - ys) * top[:, None, :] + (ys + 1) * bl
    return (horiz + vert) / (2.0 * n)


def _predict_dc(src: np.ndarray, n: int) -> np.ndarray:
    """(k,) DC values from (k, 4n+1) source-order references: HEVC's mean of
    the n samples above and the n to the left, without the corner, the
    above-right or the below-left samples."""
    return (src[:, 1 : n + 1].sum(axis=1) + src[:, 2 * n + 1 : 3 * n + 1].sum(axis=1)) / (2.0 * n)


@functools.cache
def _angular_tables(n: int) -> tuple[np.ndarray, ...]:
    """Gather tables mapping src = concat(top, left) to the 33 angular modes.

    Returns (i1, i2, w1, w2), each (33, n, n) and read-only, such that mode
    m's prediction is w1[k] * src[i1[k]] + w2[k] * src[i2[k]] with k = m - 2
    and w1 = 1 - w2. Rows are y and columns x for every mode; the tables
    carry the negative-angle reference extension and the transpose of the
    horizontal modes.
    """
    top = np.arange(2 * n + 1)           # src index of top[k]
    left = 2 * n + 1 + np.arange(2 * n)  # src index of left[k]
    i1 = np.empty((N_MODES - 2, n, n), dtype=np.intp)
    i2 = np.empty_like(i1)
    w2 = np.empty((N_MODES - 2, n, n), dtype=np.float64)
    for k, angle in enumerate(INTRA_PRED_ANGLE):
        vertical = k + 2 >= 18
        # project onto the top row (vertical modes) or the left column
        # (horizontal modes); the other direction extends negative angles
        primary = top if vertical else np.concatenate([top[:1], left])
        secondary = left if vertical else top[1:]
        # ref[n + j] holds logical reference sample j for -n <= j <= 2n + 1
        ref = np.zeros(3 * n + 2, dtype=np.intp)
        ref[n : 3 * n + 1] = primary
        ref[-1] = primary[-1]  # weight-0 slot for the fractional gather
        if angle < 0:
            inv = INV_ANGLE[angle]
            for j in range(-1, ((n * angle) >> 5) - 1, -1):
                s = -1 + ((j * inv + 128) >> 8)
                ref[n + j] = primary[0] if s < 0 else secondary[min(s, 2 * n - 1)]
        steps = np.arange(1, n + 1) * angle
        gather = n + np.arange(n)[None, :] + (steps >> 5)[:, None] + 1
        w = np.broadcast_to((steps & 31)[:, None] / 32.0, (n, n))
        t1, t2 = ref[gather], ref[gather + 1]
        if not vertical:  # rows of `gather` follow x for horizontal modes
            t1, t2, w = t1.T, t2.T, w.T
        i1[k], i2[k], w2[k] = t1, t2, w
    tables = (i1, i2, 1.0 - w2, w2)
    for t in tables:
        t.flags.writeable = False
    return tables


def _predict_all(src: np.ndarray, n: int) -> np.ndarray:
    """(k, 35, n, n) stack of every mode's prediction from (k, 4n+1) source-order references."""
    i1, i2, w1, w2 = _angular_tables(n)
    preds = np.empty((src.shape[0], N_MODES, n, n), dtype=np.float64)
    preds[:, MODE_PLANAR] = _predict_planar(src, n)
    preds[:, MODE_DC] = _predict_dc(src, n)[:, None, None]
    preds[:, 2:] = w1 * src[:, i1] + w2 * src[:, i2]
    return preds


def predict_mode(line: np.ndarray, mode: int, n: int) -> np.ndarray:
    """N x N prediction for one mode from a (4n+1,) substituted reference line."""
    if not 0 <= mode < N_MODES:
        raise ModeError(f"mode index must be 0..34, got {mode}")
    if line.shape != (4 * n + 1,):
        raise ShapeError(f"need a ({4 * n + 1},) reference line for n={n}, got {line.shape}")
    return _predict_all(line[None, _line_layout(n)[3]], n)[0, mode]


@dataclass(frozen=True)
class ModeCost:
    mode: int | str          # 0..34, or NETWORK for the learned predictor
    satd: float              # 8-bit-scale SATD of the residue
    bits_proxy: float
    lam: float

    @property
    def total(self) -> float:
        return self.satd + self.lam * self.bits_proxy


def network_mode_cost(satd_norm: float, lam: float) -> ModeCost:
    """Cost entry for the learned predictor: one flag bit, no mode bits."""
    return ModeCost(mode=NETWORK, satd=satd_norm * PIXEL_SCALE,
                    bits_proxy=NETWORK_FLAG_BITS, lam=lam)


def best_modes(lines: np.ndarray, targets: np.ndarray, n: int, lam: float):
    """Exhaustive 35-mode search for k blocks at once under SATD + lambda * bits.

    `lines` are (k, 4n+1) scan-order reference lines (see reference_lines)
    and `targets` the (k, n, n) blocks. All 35 * k residues go through one
    satd_batch call; ties break toward the lowest mode index (argmin keeps
    the first minimum). SATD is charged on the 8-bit pixel scale so the HM
    lambda convention operates in its usual regime. Each row equals satd()
    of that residue alone, so a per-mode re-evaluation reproduces the
    winner's cost bit for bit. Returns (modes, satds, preds): the winning
    mode, its SATD and its (n, n) prediction per block.
    """
    k = lines.shape[0]
    if lines.shape != (k, 4 * n + 1) or targets.shape != (k, n, n):
        raise ShapeError(f"need (k, {4 * n + 1}) lines and (k, {n}, {n}) targets, "
                         f"got {lines.shape} and {targets.shape}")
    preds = _predict_all(lines[:, _line_layout(n)[3]], n)
    residues = preds - targets.astype(np.float64)[:, None]
    satds = satd_batch(residues.reshape(k * N_MODES, n, n)).reshape(k, N_MODES)
    satds *= PIXEL_SCALE
    modes = np.argmin(satds + lam * DEFAULT_MODE_BITS, axis=1)
    rows = np.arange(k)
    return modes, satds[rows, modes], preds[rows, modes]
