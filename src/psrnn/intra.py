"""HEVC-style directional intra predictor used as the comparison anchor.

Works on normalized luma in [0, 1] with float arithmetic: angular modes use
the standard 33-entry displacement table with 1/32-sample linear
interpolation, but without the integer rounding offsets of a bit-exact
encoder, so every DC/angular prediction is a convex combination of reference
samples. Mode indices: 0 planar, 1 DC, 2..34 angular (10 pure horizontal,
26 pure vertical).

References are the single line above (2N+1 samples including the corner)
and to the left (2N samples). Unavailable segments are substituted by
scanning from the bottom-left sample up the left column, through the corner
and across the top, propagating the nearest available value; when nothing
is available at all, mid-gray 0.5 is used.

The 33 angular modes are table-driven: per block size, cached gather
indices and 1/32-sample weights map the reference line concat(top, left)
straight to every angular prediction, negative-angle reference extension
and horizontal-mode transpose included. One gather yields all 33 modes, and
the mode search scores all 35 residues with one batched SATD.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ModeError, ShapeError, SizeError
from .hadamard import SatdConfig, satd, satd_batch  # noqa: F401 (satd is re-exported)

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

SEGMENTS = ("below-left", "left", "corner", "above", "above-right")

DEFAULT_MODE_BITS = 6.0  # flat proxy per directional mode, no MPM modelling
NETWORK_FLAG_BITS = 1.0  # selecting the network costs its flag bit only
SPLIT_FLAG_BITS = 1.0    # one quad-tree split flag per greedy decision
PIXEL_SCALE = 255.0      # rate-distortion costs are charged on the 8-bit scale


def hm_lambda(qp: int) -> float:
    """Intra-search lambda for a quantization parameter, HM convention."""
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


@dataclass
class ReferenceSamples:
    top: np.ndarray   # (2N+1,), top[0] is the corner above-left
    left: np.ndarray  # (2N,)
    available: dict[str, bool]
    fill_value: float = 0.5
    n: int = field(default=0)

    def all_samples(self) -> np.ndarray:
        return np.concatenate([self.top, self.left])


def build_reference_samples(image: np.ndarray, block_origin: tuple[int, int],
                            n: int, availability: dict[str, bool] | None = None,
                            fill_value: float = 0.5) -> ReferenceSamples:
    """Extract and substitute the reference line for a block at block_origin.

    `availability` may force segments unavailable; segments reaching outside
    the image are unavailable regardless. The block itself must fit inside.
    """
    h, w = image.shape
    y, x = block_origin
    if not (0 <= y and 0 <= x and y + n <= h and x + n <= w):
        raise SizeError(f"block {n}x{n} at {block_origin} outside image {image.shape}")

    img = image.astype(np.float64)
    avail = {
        "corner": y > 0 and x > 0,
        "above": y > 0,
        "above-right": y > 0 and x + 2 * n <= w,
        "left": x > 0,
        "below-left": x > 0 and y + 2 * n <= h,
    }
    if availability is not None:
        for k, v in availability.items():
            if k not in avail:
                raise ShapeError(f"unknown reference segment {k!r}")
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

    _substitute(top, left, avail, n, fill_value)
    return ReferenceSamples(top=top, left=left, available=avail,
                            fill_value=fill_value, n=n)


def _substitute(top: np.ndarray, left: np.ndarray, avail: dict[str, bool],
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


def smooth_references(refs: ReferenceSamples) -> ReferenceSamples:
    """[1 2 1]/4 filtering along the reference line; endpoints unchanged."""
    n = refs.n
    line = np.concatenate([refs.left[::-1], refs.top])  # bottom-left .. top-right
    sm = line.copy()
    sm[1:-1] = (line[:-2] + 2.0 * line[1:-1] + line[2:]) / 4.0
    return ReferenceSamples(top=sm[2 * n :], left=sm[: 2 * n][::-1].copy(),
                            available=dict(refs.available),
                            fill_value=refs.fill_value, n=n)


def _predict_planar(refs: ReferenceSamples, n: int) -> np.ndarray:
    top = refs.top[1 : n + 1]
    left = refs.left[:n]
    tr = refs.top[n + 1]
    bl = refs.left[n]
    xs = np.arange(n, dtype=np.float64)
    ys = np.arange(n, dtype=np.float64)
    horiz = (n - 1 - xs)[None, :] * left[:, None] + (xs + 1)[None, :] * tr
    vert = (n - 1 - ys)[:, None] * top[None, :] + (ys + 1)[:, None] * bl
    return (horiz + vert) / (2.0 * n)


def _predict_dc(refs: ReferenceSamples, n: int) -> np.ndarray:
    dc = (refs.top[1:].sum() + refs.left.sum()) / (4.0 * n)
    return np.full((n, n), dc, dtype=np.float64)


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


def _check_refs(refs: ReferenceSamples, n: int) -> None:
    if refs.top.shape != (2 * n + 1,) or refs.left.shape != (2 * n,):
        raise ShapeError(f"references sized for n={refs.n}, requested n={n}")


def predict_mode(refs: ReferenceSamples, mode: int, n: int) -> np.ndarray:
    """N x N prediction for one mode from complete (post-fill) references."""
    if not 0 <= mode < N_MODES:
        raise ModeError(f"mode index must be 0..34, got {mode}")
    _check_refs(refs, n)
    if mode == MODE_PLANAR:
        return _predict_planar(refs, n)
    if mode == MODE_DC:
        return _predict_dc(refs, n)
    i1, i2, w1, w2 = (t[mode - 2] for t in _angular_tables(n))
    src = refs.all_samples()
    return w1 * src[i1] + w2 * src[i2]


def predict_all_modes(refs: ReferenceSamples, n: int) -> np.ndarray:
    """(35, n, n) stack of all mode predictions, equal to predict_mode's."""
    _check_refs(refs, n)
    i1, i2, w1, w2 = _angular_tables(n)
    src = refs.all_samples()
    preds = np.empty((N_MODES, n, n), dtype=np.float64)
    preds[MODE_PLANAR] = _predict_planar(refs, n)
    preds[MODE_DC] = _predict_dc(refs, n)
    preds[2:] = w1 * src[i1] + w2 * src[i2]
    return preds


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


def best_mode_search(refs: ReferenceSamples, target_block: np.ndarray, n: int,
                     lam: float, satd_cfg: SatdConfig = SatdConfig()) -> ModeCost:
    """Exhaustive 35-mode search under SATD + lambda * bits.

    All 35 residues go through one satd_batch call; ties break toward the
    lowest mode index (argmin keeps the first minimum). SATD is charged on
    the 8-bit pixel scale so the HM lambda convention operates in its usual
    regime. Each batch row equals satd() of that residue alone, so an
    independent per-mode re-evaluation reproduces the winner's cost bit for
    bit.
    """
    if target_block.shape != (n, n):
        raise ShapeError(f"target block must be ({n}, {n}), got {target_block.shape}")
    residues = predict_all_modes(refs, n) - target_block.astype(np.float64)
    satds = satd_batch(residues, satd_cfg) * PIXEL_SCALE
    best = int(np.argmin(satds + lam * DEFAULT_MODE_BITS))
    return ModeCost(mode=best, satd=float(satds[best]), bits_proxy=DEFAULT_MODE_BITS, lam=lam)
