"""Image ingestion, degradation, context sampling and synthetic textures.

Training material is approximated without a real encoder: images are
blockwise DCT-quantized with the step size the quantization parameter would
imply (Qstep = 2^((qp-4)/6) on the 0..255 scale), which reproduces the kind
of blocky reconstruction noise the predictor must tolerate.

A training sample pairs a 2N x 2N context window taken from the degraded
image with the clean N x N target in its bottom-right quadrant. A sample set
stores only the quadrants a sample has: the degraded top half, then the
bottom-left quadrant in four-block availability only (in three-block
availability it is masked, leaving the two blocks above as the usable
context), then the clean target. SampleSet.take hands the network whole
windows, the target quadrant and any masked quadrant set to the fill value.

cut_contexts, the one gather, fills a given set and reads N, the fill and
the availability from it; fill_samples draws each source image's origins
and cuts them into its slice of a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, ShapeError, SizeError, UsageError
from .rng import stream
from .tensor import SLAB_BYTES, split_bounds

PAPER_SCALES = ((1792, 1024), (1344, 768), (896, 512))
TRAIN_QPS = (22, 27, 32, 37)
FOUR_BLOCK = "four-block"
THREE_BLOCK = "three-block"
AVAILABILITY_MODES = (FOUR_BLOCK, THREE_BLOCK)
CONTEXT_FILL = 0.5  # what a masked context pixel reads, unless a model sets its own
MIN_CROP = 32  # smallest acceptable center-crop side for proportional scaling
DEGRADE_BLOCK = 8  # side of the DCT blocks degrade() quantizes


@dataclass
class GrayImage:
    pixels: np.ndarray  # (h, w) float32 in [0, 1]

    def __post_init__(self):
        if self.pixels.ndim != 2:
            raise ShapeError(f"expected a 2-D pixel array, got {self.pixels.shape}")
        self.pixels = self.pixels.astype(np.float32)


@dataclass
class SampleSet:
    upper: np.ndarray  # (m, n, 2n) float32: the degraded top half of each window
    lower: np.ndarray  # (m, n, n) three-block: the clean target; (m, n, 2n)
                       # four-block: the degraded bottom-left quadrant, then the target
    fill: float        # what take() writes over the target and any masked quadrant

    def __len__(self):
        return self.upper.shape[0]

    @property
    def n(self) -> int:
        return self.upper.shape[1]

    @property
    def three_block(self) -> bool:
        """Whether the set holds no bottom-left quadrant (three-block availability)."""
        return self.lower.shape[2] == self.n

    def __getitem__(self, rows: slice) -> SampleSet:
        """The samples in `rows`, as a view that writes through to this set."""
        return SampleSet(self.upper[rows], self.lower[rows], self.fill)

    def take(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(contexts, targets) of the samples at `rows` (an index array or a
        slice), as new arrays: the (k, 2n, 2n) windows with the target
        quadrant, and in a three-block set the bottom-left one, set to
        `fill`, and the (k, n, n) targets."""
        n = self.n
        upper, lower = self.upper[rows], self.lower[rows]
        contexts = np.empty((len(upper), 2 * n, 2 * n), dtype=upper.dtype)
        contexts[:, :n] = upper
        contexts[:, n:] = self.fill
        if not self.three_block:
            contexts[:, n:, :n] = lower[:, :, :n]
        return contexts, lower[:, :, -n:].copy()

    @classmethod
    def empty(cls, count: int, n: int, fill: float, three_block: bool) -> SampleSet:
        """An unfilled set of `count` samples at block size n, with no
        bottom-left quadrants where `three_block`, allocated at its final
        size; a set too large to allocate is a UsageError."""
        lower_side = n if three_block else 2 * n
        try:
            return cls(np.empty((count, n, 2 * n), dtype=np.float32),
                       np.empty((count, n, lower_side), dtype=np.float32), fill)
        except (MemoryError, ValueError):  # numpy's ValueError: past its largest array
            raise UsageError(f"samples={count} at N={n} asks for "
                             f"{count * 4 * n * (2 * n + lower_side):,} bytes, "
                             "more than can be allocated") from None


@dataclass
class ContextBlock:
    context: np.ndarray  # (2n, 2n) float32, masked per its availability mode
    target: np.ndarray   # (n, n) float32 clean ground truth


@dataclass(frozen=True)
class DegradeConfig:
    qp: int = 32

    def __post_init__(self):
        if self.qp < 0:
            raise UsageError(f"qp must be non-negative, got {self.qp}")


# ---------------------------------------------------------------------------
# PGM / PPM / raw ingestion
# ---------------------------------------------------------------------------


def _read_pnm_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    """Read `count` ASCII integers starting at pos, skipping # comments."""
    tokens: list[int] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated header")
        try:
            tokens.append(int(data[start:pos]))
        except ValueError:
            raise FormatError(f"bad header token {data[start:pos]!r}") from None
    return tokens, pos


def load_image(path) -> GrayImage:
    """Decode a PGM (P2/P5) or PPM (P3/P6) file, or a raw Y plane.

    Color images are converted with BT.601 luma weights. Raw planes need a
    sidecar `<path>.txt` holding "width height". Values are normalized by
    the declared maxval (255 for 8-bit sources).
    """
    path = Path(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic in (b"P2", b"P5", b"P3", b"P6"):
        return _load_pnm(data, magic)
    if path.suffix in (".y", ".raw"):
        return _load_raw(path, data)
    raise FormatError(f"unsupported image format in {path.name}")


def _load_pnm(data: bytes, magic: bytes) -> GrayImage:
    color = magic in (b"P3", b"P6")
    channels = 3 if color else 1
    try:
        header, pos = _read_pnm_tokens(data, 3, 2)
    except FormatError:
        raise FormatError("truncated or malformed PNM header") from None
    width, height, maxval = header
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"maxval {maxval} unsupported (8-bit sources only)")
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        pos += 1  # single whitespace byte after maxval
        raw = data[pos : pos + count]
        if len(raw) < count:
            raise FormatError("truncated pixel payload")
        values = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
    else:
        try:
            tokens, _ = _read_pnm_tokens(data, count, pos)
        except FormatError:
            raise FormatError("truncated pixel payload") from None
        values = np.array(tokens, dtype=np.float32)
    if values.max() > maxval or values.min() < 0:
        raise FormatError("sample value outside [0, maxval]")
    values /= float(maxval)
    if color:
        rgb = values.reshape(height, width, 3)
        luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        return GrayImage(pixels=luma.astype(np.float32))
    return GrayImage(pixels=values.reshape(height, width))


def _load_raw(path: Path, data: bytes) -> GrayImage:
    sidecar = path.with_name(path.name + ".txt")
    if not sidecar.exists():
        raise FormatError(f"raw plane {path.name} needs sidecar {sidecar.name}")
    try:
        width, height = (int(t) for t in sidecar.read_text().split()[:2])
    except (ValueError, IndexError):
        raise FormatError(f"sidecar {sidecar.name} must hold 'width height'") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if len(data) < width * height:
        raise FormatError("raw payload smaller than width*height")
    arr = np.frombuffer(data[: width * height], dtype=np.uint8)
    return GrayImage(pixels=(arr.astype(np.float32) / 255.0).reshape(height, width))


def save_pgm(img: GrayImage | np.ndarray, path) -> None:
    """Write a P5 PGM with maxval 255."""
    pixels = img.pixels if isinstance(img, GrayImage) else np.asarray(img)
    u8 = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    h, w = u8.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(u8.tobytes(order="C"))


def read_manifest(path) -> list[Path]:
    """Newline-separated file paths; blanks and # comments are skipped."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(Path(line))
    return out


# ---------------------------------------------------------------------------
# Multi-scale preparation
# ---------------------------------------------------------------------------


def box_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area-averaging resample (exact box filter for integer ratios)."""
    def weights(n_in, n_out):
        w = np.zeros((n_out, n_in), dtype=np.float64)
        scale = n_in / n_out
        for o in range(n_out):
            lo, hi = o * scale, (o + 1) * scale
            i0, i1 = int(np.floor(lo)), int(np.ceil(hi))
            for i in range(i0, min(i1, n_in)):
                w[o, i] = min(hi, i + 1) - max(lo, i)
        return w / scale

    wy = weights(pixels.shape[0], out_h)
    wx = weights(pixels.shape[1], out_w)
    return (wy @ pixels.astype(np.float64) @ wx.T).astype(np.float32)


def center_crop(pixels: np.ndarray, crop_h: int, crop_w: int) -> np.ndarray:
    h, w = pixels.shape
    y0 = (h - crop_h) // 2
    x0 = (w - crop_w) // 2
    return pixels[y0 : y0 + crop_h, x0 : x0 + crop_w]


def multi_scale(img: GrayImage) -> list[GrayImage]:
    """Three training scales from one source image.

    Sources at least 1792x1024 are center-cropped to 7:4 and resampled to the
    standard scales; smaller sources get a proportional 1 : 0.75 : 0.5
    triplet from the largest 7:4 crop with sides divisible by 4.
    """
    h, w = img.pixels.shape
    big_w, big_h = PAPER_SCALES[0]
    if w >= big_w and h >= big_h:
        crop_w = min(w, (h * 7) // 4)
        crop_h = min(h, (w * 4) // 7)
        base = center_crop(img.pixels, crop_h, crop_w)
        return [GrayImage(box_resize(base, sh, sw)) for sw, sh in PAPER_SCALES]
    crop_w = min(w, (h * 7) // 4) & ~3
    crop_h = min(h, (w * 4) // 7) & ~3
    if crop_w < MIN_CROP or crop_h < MIN_CROP:
        raise SizeError(f"image {w}x{h} too small for proportional scales")
    base = center_crop(img.pixels, crop_h, crop_w)
    out = [GrayImage(base.copy())]
    for num, den in ((3, 4), (1, 2)):
        out.append(GrayImage(box_resize(base, crop_h * num // den, crop_w * num // den)))
    return out


# ---------------------------------------------------------------------------
# Quantization-noise degradation
# ---------------------------------------------------------------------------


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    c[0] = np.sqrt(1.0 / n)
    return c


def qstep(qp: int) -> float:
    """Quantization step on the 0..255 scale for a quantization parameter."""
    return 2.0 ** ((qp - 4) / 6.0)


def degrade(img: GrayImage, cfg: DegradeConfig) -> GrayImage:
    """Blockwise DCT quantization standing in for encoder reconstruction."""
    b = DEGRADE_BLOCK
    h, w = img.pixels.shape
    pad_h = (-h) % b
    pad_w = (-w) % b
    x = np.pad(img.pixels.astype(np.float64), ((0, pad_h), (0, pad_w)), mode="edge")
    c = _dct_matrix(b)
    hb, wb = x.shape[0] // b, x.shape[1] // b
    tiles = x.reshape(hb, b, wb, b).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,abjk,lk->abil", c, tiles, c)
    step = qstep(cfg.qp) / 255.0
    coeff = np.round(coeff / step) * step
    rec = np.einsum("ji,abjk,kl->abil", c, coeff, c)
    rec = rec.transpose(0, 2, 1, 3).reshape(hb * b, wb * b)[:h, :w]
    return GrayImage(np.clip(rec, 0.0, 1.0).astype(np.float32))


# ---------------------------------------------------------------------------
# Context sampling
# ---------------------------------------------------------------------------


def cut_contexts(degraded: np.ndarray, clean: np.ndarray, ys, xs,
                 out: SampleSet) -> SampleSet:
    """Fill `out` with the samples of the windows at (ys[i], xs[i]), one
    piece of at most SLAB_BYTES at a time, so cutting needs no more than one
    piece beyond the set; N and the availability are the set's.

    Each window is cut from `degraded` but for its bottom-right quadrant,
    which holds the clean target; a three-block set takes no bottom-left
    quadrant.
    """
    if clean.shape != degraded.shape:
        raise ShapeError("clean and degraded images must have the same shape")
    ys, xs = np.asarray(ys, dtype=np.intp), np.asarray(xs, dtype=np.intp)
    if len(ys) != len(out):
        raise ShapeError(f"{len(ys)} windows do not fill a set of {len(out)}")
    n = out.n
    h, w = degraded.shape
    # fancy indexing would wrap a negative origin around instead of failing
    inside = (0 <= ys) & (ys <= h - 2 * n) & (0 <= xs) & (xs <= w - 2 * n)
    if h < 2 * n or w < 2 * n or not inside.all():
        raise SizeError(f"{2*n}x{2*n} windows at these origins do not fit image {w}x{h}")
    halves = sliding_window_view(degraded, (n, 2 * n))
    quadrants = sliding_window_view(degraded, (n, n))
    blocks = sliding_window_view(clean, (n, n))
    row_bytes = n * (out.upper.shape[2] + out.lower.shape[2]) * out.upper.itemsize
    bounds = split_bounds(len(ys), SLAB_BYTES // max(1, row_bytes))
    for i, j in zip(bounds, bounds[1:]):
        y, x = ys[i:j], xs[i:j]
        out.upper[i:j] = halves[y, x]
        if not out.three_block:
            out.lower[i:j, :, :n] = quadrants[y + n, x]
        out.lower[i:j, :, -n:] = blocks[y + n, x + n]
    return out


def is_three_block(availability_mode: str) -> bool:
    """SampleSet.empty's `three_block` flag for an AVAILABILITY_MODES name."""
    if availability_mode not in AVAILABILITY_MODES:
        raise UsageError(f"unknown availability mode {availability_mode!r}")
    return availability_mode == THREE_BLOCK


def make_context(degraded: np.ndarray, clean: np.ndarray, origin: tuple[int, int],
                 n: int, availability_mode: str, fill: float) -> ContextBlock:
    """Cut one context/target pair at a window origin (top-left of 2n x 2n)."""
    contexts, targets = cut_contexts(
        degraded, clean, [origin[0]], [origin[1]],
        SampleSet.empty(1, n, fill, is_three_block(availability_mode))).take(slice(None))
    return ContextBlock(context=contexts[0], target=targets[0])


def fill_samples(samples: SampleSet, counts, source) -> SampleSet:
    """Fill `samples` in order: counts[i] samples from source i, cut into its
    own slice; the counts sum to len(samples). source(i) gives that source's
    (clean, degraded, seed) and is called only for a source with a sample, so
    one source is loaded at a time. A source's window origins are drawn
    uniformly from its `seed`, all before its first window is cut."""
    n = samples.n
    offsets = np.cumsum([0, *counts])
    for i, (start, stop) in enumerate(zip(offsets, offsets[1:])):
        if stop > start:
            clean, degraded, seed = source(i)
            h, w = clean.pixels.shape
            if h < 2 * n or w < 2 * n:
                raise SizeError(f"image {w}x{h} too small for {2*n}x{2*n} windows")
            gen = stream(seed, f"contexts/n{n}")
            ys = gen.integers(0, h - 2 * n + 1, size=stop - start)
            xs = gen.integers(0, w - 2 * n + 1, size=stop - start)
            cut_contexts(degraded.pixels, clean.pixels, ys, xs, samples[start:stop])
    return samples


# ---------------------------------------------------------------------------
# Synthetic textures
# ---------------------------------------------------------------------------

TEXTURE_KINDS = ("flat", "directional", "sinusoid", "rings")


def synth_texture(kind: str, size: int, seed: int = 0, noise: float = 0.0,
                  **params) -> GrayImage:
    """Analytic test texture in [0, 1], optionally with Gaussian noise.

    Kinds and their parameters:
      flat(value) - constant image
      directional(angle) - linear ramp along `angle` degrees (0 varies by row)
      sinusoid(freq, phase, angle) - plane wave, freq in cycles per image
      rings(center, period) - concentric cosine rings, period in pixels
    """
    if size < 8:
        raise UsageError(f"texture size must be >= 8, got {size}")
    if noise < 0:
        raise UsageError("noise sigma must be non-negative")
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind == "flat":
        value = float(params.pop("value", 0.5))
        img = np.full((size, size), value)
    elif kind == "directional":
        angle = np.deg2rad(float(params.pop("angle", 0.0)))
        proj = np.cos(angle) * ys + np.sin(angle) * xs
        span = proj.max() - proj.min()
        img = (proj - proj.min()) / (span if span > 0 else 1.0)
    elif kind == "sinusoid":
        freq = float(params.pop("freq", 4.0))
        phase = float(params.pop("phase", 0.0))
        angle = np.deg2rad(float(params.pop("angle", 0.0)))
        proj = (np.cos(angle) * ys + np.sin(angle) * xs) / size
        img = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * proj + phase)
    elif kind == "rings":
        cy, cx = params.pop("center", (size / 2.0, size / 2.0))
        period = float(params.pop("period", 12.0))
        if period <= 0:
            raise UsageError("ring period must be positive")
        r = np.hypot(ys - cy, xs - cx)
        img = 0.5 + 0.5 * np.cos(2.0 * np.pi * r / period)
    else:
        raise UsageError(f"unknown texture kind {kind!r}; choose from {TEXTURE_KINDS}")
    if params:
        raise UsageError(f"unexpected parameters for {kind}: {sorted(params)}")
    if noise > 0:
        img = img + stream(seed, f"texture/{kind}").normal(0.0, noise, img.shape)
    return GrayImage(np.clip(img, 0.0, 1.0).astype(np.float32))


def synthetic_corpus(size: int, seed: int, kinds: tuple[str, ...] = ("directional", "sinusoid"),
                     per_kind: int = 12) -> list[GrayImage]:
    """A deck of varied synthetic images used for smoke training and demos."""
    gen = stream(seed, "corpus")
    images = []
    for kind in kinds:
        for i in range(per_kind):
            if kind == "flat":
                images.append(synth_texture("flat", size, seed=seed + i,
                                            value=float(gen.uniform(0.1, 0.9))))
            elif kind == "directional":
                images.append(synth_texture(
                    "directional", size, seed=seed + i,
                    noise=float(gen.uniform(0.0, 0.04)),
                    angle=float(gen.uniform(0.0, 180.0))))
            elif kind == "sinusoid":
                images.append(synth_texture(
                    "sinusoid", size, seed=seed + i,
                    noise=float(gen.uniform(0.0, 0.04)),
                    freq=float(gen.uniform(2.0, 9.0)),
                    phase=float(gen.uniform(0.0, 6.28)),
                    angle=float(gen.uniform(0.0, 180.0))))
            elif kind == "rings":
                images.append(synth_texture(
                    "rings", size, seed=seed + i,
                    period=float(gen.uniform(8.0, 24.0)),
                    center=(float(gen.uniform(0, size)), float(gen.uniform(0, size)))))
            else:
                raise UsageError(f"unknown corpus kind {kind!r}")
    return images


def build_training_samples(images: list[GrayImage], n: int, count: int, seed: int,
                           qps: tuple[int, ...] = TRAIN_QPS,
                           availability_mode: str = THREE_BLOCK,
                           fill: float = CONTEXT_FILL) -> SampleSet:
    """Degrade a deck of images at mixed qps and sample contexts evenly."""
    if not images:
        raise UsageError("no source images")
    if count < 1:
        raise UsageError(f"sample count must be positive, got {count}")
    # before any draw of `count` values
    samples = SampleSet.empty(count, n, fill, is_three_block(availability_mode))
    gen = stream(seed, "assign")
    per_image = np.bincount(gen.integers(0, len(images), size=count),
                            minlength=len(images))

    def source(i):
        img = images[i]
        return img, degrade(img, DegradeConfig(qp=qps[i % len(qps)])), seed + 7919 * i

    return fill_samples(samples, per_image, source)
