"""The progressive spatial recurrent predictor.

Data flow for a context of size 2N x 2N (the bottom-right N x N quadrant is
the region being predicted):

    context (2N, 2N, 1)
      -> two 3x3 conv + PReLU preprocessing layers        (2N, 2N, c)
      -> recurrent unit 1 (two directional sweeps)        (2N, 2N, k1)
      -> stride-2 3x3 conv + PReLU downsampling           (N, N, k1)
      -> recurrent units 2..m                             (N, N, km)
      -> 3x3 conv + PReLU, then 3x3 conv (no activation)  (N, N, 1)
      -> clip to [0, 1]                                   (N, N)

Each recurrent unit splits its feature tensor into row planes (swept top to
bottom) and column planes (swept left to right), runs a GRU over each plane
sequence with the plane flattened to a vector, reshapes the hidden sequences
back into feature maps, concatenates them channel-wise and fuses them with a
3x3 convolution. Sweeps always move from the known context toward the
unknown quadrant. The per-direction hidden width is `unit_hidden[i]` channels
per spatial position, so the GRU state for an n-wide plane has n *
unit_hidden[i] entries.

_layout states this sequence once, as (parameter prefix, layer) pairs. A
network holds that list: build_network and parameter_count derive from it,
the forward and backward passes walk it, and parameters() lists it in the
model file's order (FILE_ORDER).

Model files use a small self-describing binary format (see save_model) with
a trailing CRC32 so truncation and corruption are detected on load.
"""

from __future__ import annotations

import copy
import functools
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .data import AVAILABILITY_MODES, CONTEXT_FILL, THREE_BLOCK
from .errors import ConfigError, IntegrityError, ShapeError, UsageError, VersionError
from .layers import (GATE_ACTIVATIONS, GruParams, glorot_uniform,
                     gru_sweep_backward, gru_sweep_forward, init_gru,
                     prelu_backward, prelu_forward)
from .rng import stream
from .tensor import ConvSpec, conv2d_backward_batch, conv2d_forward_batch

PU_SIZES = (4, 8, 16, 32)

MODEL_MAGIC = b"PSRNNMDL"
MODEL_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    pu_size: int = 8
    preproc_channels: tuple[int, ...] = (8, 8)
    unit_hidden: tuple[int, ...] = (8, 4, 4)
    recon_channels: tuple[int, ...] = (8,)
    fusion_kernel: int = 3
    gate_activation: str = "sigmoid"
    availability_mode: str = THREE_BLOCK
    fill_value: float = CONTEXT_FILL

    def __post_init__(self):
        if self.pu_size not in PU_SIZES:
            raise ConfigError(f"pu_size must be one of {PU_SIZES}, got {self.pu_size}")
        if not self.preproc_channels or not self.unit_hidden:
            raise ConfigError("preproc_channels and unit_hidden must be non-empty")
        if any(c < 1 for c in self.preproc_channels + self.unit_hidden + self.recon_channels):
            raise ConfigError("channel widths must be positive")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ConfigError(f"gate_activation must be one of {GATE_ACTIVATIONS}")
        if self.availability_mode not in AVAILABILITY_MODES:
            raise ConfigError(f"availability_mode must be one of {AVAILABILITY_MODES}")
        if self.fusion_kernel % 2 != 1:
            raise ConfigError("fusion_kernel must be odd")
        if not 0.0 <= self.fill_value <= 1.0:
            raise ConfigError("fill_value must lie in [0, 1]")

    @property
    def context_size(self) -> int:
        return 2 * self.pu_size


@dataclass
class ConvLayer:
    w: np.ndarray  # (kh, kw, cin, cout) float32
    b: np.ndarray  # (cout,) float32
    alpha: np.ndarray | None  # (cout,) PReLU slopes, None for linear output
    stride: int

    @property
    def spec(self) -> ConvSpec:
        kh, kw, cin, cout = self.w.shape
        return ConvSpec(kernel_h=kh, kernel_w=kw, stride=self.stride,
                        padding=kh // 2, in_channels=cin, out_channels=cout)

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}.w": self.w, f"{prefix}.b": self.b}
        if self.alpha is not None:
            out[f"{prefix}.alpha"] = self.alpha
        return out


@dataclass
class PsRnnUnitParams:
    gru_h: GruParams
    gru_v: GruParams
    fusion: ConvLayer  # its output width is the unit's hidden width per position

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for tag, gru in (("h", self.gru_h), ("v", self.gru_v)):
            for k, v in gru.named().items():
                out[f"{prefix}.{tag}.{k}"] = v
        out.update(self.fusion.named(f"{prefix}.fuse"))
        return out


@dataclass
class PsRnnNetwork:
    config: NetworkConfig
    layers: list[tuple[str, ConvLayer | PsRnnUnitParams]]  # _layout's pairs, in data order


def _layout(config: NetworkConfig, conv, unit) -> list[tuple[str, object]]:
    """The network as (parameter prefix, layer) pairs in data order: the
    preprocessing convs `pre*` at 2N, the first recurrent unit `u0`, the
    stride-2 downsampling conv `down`, the further units `u1…` at N, and the
    reconstruction convs `rec*`, the last of them linear.

    conv(k, cin, cout, stride=, activation=) and unit(n, cin, k, fusion_kernel),
    with k the unit's hidden width per position, make each layer, called in
    this order: build_network's draw the weights, parameter_count's count them.
    """
    layers, cin = [], 1
    for i, cout in enumerate(config.preproc_channels):
        layers.append((f"pre{i}", conv(3, cin, cout, stride=1, activation=True)))
        cin = cout
    for i, k in enumerate(config.unit_hidden):
        n = config.pu_size if i else config.context_size
        layers.append((f"u{i}", unit(n, cin, k, config.fusion_kernel)))
        cin = k
        if i == 0:
            layers.append(("down", conv(3, cin, cin, stride=2, activation=True)))
    for i, cout in enumerate(config.recon_channels + (1,)):
        layers.append((f"rec{i}", conv(3, cin, cout, stride=1,
                                       activation=i < len(config.recon_channels))))
        cin = cout
    return layers


def _init_conv(gen, k: int, cin: int, cout: int, stride: int, activation: bool) -> ConvLayer:
    w = glorot_uniform(gen, (k, k, cin, cout), k * k * cin, k * k * cout)
    # the linear output conv starts at a mid-gray bias, which keeps the fresh
    # network inside the clip range, so gradients flow from the first step
    # even on flat inputs
    b = np.full(cout, 0.0 if activation else 0.5, dtype=np.float32)
    alpha = np.full(cout, 0.25, dtype=np.float32) if activation else None
    return ConvLayer(w=w, b=b, alpha=alpha, stride=stride)


def _init_unit(gen, n: int, cin: int, k: int, fusion_kernel: int) -> PsRnnUnitParams:
    return PsRnnUnitParams(init_gru(gen, n * k, n * cin), init_gru(gen, n * k, n * cin),
                           _init_conv(gen, fusion_kernel, 2 * k, k, stride=1, activation=True))


def build_network(config: NetworkConfig, seed: int = 0) -> PsRnnNetwork:
    """Construct a randomly initialized network for `config`, drawing every
    layer's weights from one stream in data order."""
    gen = stream(seed, f"init/n{config.pu_size}/{config.availability_mode}")
    return PsRnnNetwork(config, _layout(config, functools.partial(_init_conv, gen),
                                        functools.partial(_init_unit, gen)))


def parameter_count(config: NetworkConfig) -> int:
    """The floats build_network(config) allocates, counted without building it."""
    def conv(k: int, cin: int, cout: int, stride: int, activation: bool) -> int:
        return k * k * cin * cout + cout + (cout if activation else 0)

    def unit(n: int, cin: int, k: int, fusion_kernel: int) -> int:
        h, d = n * k, n * cin
        return (2 * (3 * h * d + 3 * h * h + h)
                + conv(fusion_kernel, 2 * k, k, stride=1, activation=True))

    return sum(size for _, size in _layout(config, conv, unit))


# Model files store the layers' records grouped by prefix kind in this order;
# it differs from data order only in that `down` follows the last unit.
FILE_ORDER = ("pre", "u", "down", "rec")


def parameters(net: PsRnnNetwork) -> dict[str, np.ndarray]:
    """Name -> live float32 array, in the model file's order."""
    out: dict[str, np.ndarray] = {}
    for prefix, layer in sorted(net.layers,
                                key=lambda pl: FILE_ORDER.index(pl[0].rstrip("0123456789"))):
        out.update(layer.named(prefix))
    return out


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _conv_forward(layer: ConvLayer, x64: np.ndarray, need_cache: bool = True):
    """Conv (+ PReLU); the cache holds the input and the pre-activation.

    need_cache=False keeps neither, applies PReLU in place and returns None
    for the cache.
    """
    w, b = layer.w.astype(np.float64), layer.b.astype(np.float64)
    pre = conv2d_forward_batch(x64, w, b, layer.spec)
    out = pre if layer.alpha is None else prelu_forward(
        pre, layer.alpha.astype(np.float64), inplace=not need_cache)
    if not need_cache:
        return out, None
    return out, (x64, None if layer.alpha is None else pre)


def _conv_backward(layer: ConvLayer, cache, grad_out, grads: dict, prefix: str,
                   need_grad_x: bool = True):
    """Store the layer's parameter gradients; returns the input gradient (or None)."""
    x64, pre = cache
    if layer.alpha is not None:
        grad_out, g_alpha = prelu_backward(pre, layer.alpha.astype(np.float64), grad_out)
        grads[f"{prefix}.alpha"] = g_alpha
    gx, gw, gb = conv2d_backward_batch(x64, layer.w.astype(np.float64), layer.spec,
                                       grad_out, need_grad_x)
    grads[f"{prefix}.w"] = gw
    grads[f"{prefix}.b"] = gb
    return gx


HORIZONTAL = "horizontal"
VERTICAL = "vertical"
_PLANE_ORDER = {HORIZONTAL: ((1, 0, 2, 3), (1, 0, 2, 3)),
                VERTICAL: ((2, 0, 1, 3), (1, 2, 0, 3))}


def _to_planes(fmap: np.ndarray, axis: str) -> np.ndarray:
    """Split a (b, n, n, c) map into a step-major (n, b, n * c) plane stack.

    `horizontal` steps through the rows top to bottom, `vertical` through
    the columns left to right; each plane is flattened to one vector per
    sample. _from_planes inverts this bit for bit.
    """
    if fmap.ndim != 4 or fmap.shape[1] != fmap.shape[2]:
        raise ShapeError(f"expected a spatially square (b, n, n, c) map, got {fmap.shape}")
    b, n, _, c = fmap.shape
    split, _ = _PLANE_ORDER[axis]
    return np.ascontiguousarray(fmap.transpose(split)).reshape(n, b, n * c)


def _from_planes(planes: np.ndarray, axis: str, channels: int) -> np.ndarray:
    """Reassemble an (n, b, n * channels) plane stack into a (b, n, n, channels) view."""
    n, b, _ = planes.shape
    _, merge = _PLANE_ORDER[axis]
    return planes.reshape(n, b, n, channels).transpose(merge)


def unit_forward_batch(unit: PsRnnUnitParams, feat: np.ndarray, gate_activation: str,
                       need_cache: bool = True):
    """One recurrent unit over a (b, n, n, c) float64 feature stack.

    need_cache=False returns None for the cache and stores no sweep state.
    """
    h0 = np.zeros((len(feat), unit.gru_h.hidden), dtype=np.float64)
    hs_h, cache_h = gru_sweep_forward(unit.gru_h, _to_planes(feat, HORIZONTAL), h0,
                                      gate_activation, need_cache)
    hs_v, cache_v = gru_sweep_forward(unit.gru_v, _to_planes(feat, VERTICAL), h0,
                                      gate_activation, need_cache)
    ch = unit.fusion.w.shape[3]
    concat = np.concatenate([_from_planes(hs_h, HORIZONTAL, ch),
                             _from_planes(hs_v, VERTICAL, ch)], axis=-1)
    # without a cache, the sweep states are freed before the fusion conv runs
    del hs_h, hs_v
    out, fuse_cache = _conv_forward(unit.fusion, concat, need_cache)
    return out, (feat.shape[3], cache_h, cache_v, fuse_cache) if need_cache else None


def unit_backward_batch(unit: PsRnnUnitParams, cache, grad_out, grads: dict,
                        prefix: str):
    c, cache_h, cache_v, fuse_cache = cache
    ch = unit.fusion.w.shape[3]
    g_concat = _conv_backward(unit.fusion, fuse_cache, grad_out, grads, f"{prefix}.fuse")
    gp_h, _, gx_h = gru_sweep_backward(unit.gru_h, cache_h,
                                       _to_planes(g_concat[..., :ch], HORIZONTAL))
    gp_v, _, gx_v = gru_sweep_backward(unit.gru_v, cache_v,
                                       _to_planes(g_concat[..., ch:], VERTICAL))
    for k, v in gp_h.items():
        grads[f"{prefix}.h.{k}"] = v
    for k, v in gp_v.items():
        grads[f"{prefix}.v.{k}"] = v
    g_feat = _from_planes(gx_h, HORIZONTAL, c).copy()
    g_feat += _from_planes(gx_v, VERTICAL, c)
    return g_feat


# OpenBLAS multiplies a GEMM with fewer rows than this (a GRU step's product
# at batch 1 takes the vector-matrix path) with results that differ from
# those of a taller one, so a smaller batch runs padded to this many samples.
MIN_BATCH = 4


def forward_batch(net: PsRnnNetwork, contexts: np.ndarray, need_cache: bool = True):
    """Predict a (b, N, N) stack from (b, 2N, 2N) contexts; returns (pred, cache).

    The cache is (one cache per net.layers entry, pre-clip output).
    need_cache=False is the inference pass: no layer keeps its input,
    pre-activation or GRU state, each activation is freed once the next
    layer has read it, and the cache returned is None. The bits are the same
    either way, and a context's prediction has the same bits in any batch:
    a batch under MIN_BATCH runs with its first context repeated to that
    size, and the cache keeps the padded rows.
    """
    cs = net.config.context_size
    if contexts.ndim != 3 or contexts.shape[1:] != (cs, cs):
        raise ShapeError(f"contexts must be (b, {cs}, {cs}), got {contexts.shape}")
    gate = net.config.gate_activation
    b = len(contexts)
    if 0 < b < MIN_BATCH:
        contexts = np.concatenate([contexts, np.repeat(contexts[:1], MIN_BATCH - b, axis=0)])
    x = contexts.astype(np.float64)[..., None]
    caches = []
    for _, layer in net.layers:
        if isinstance(layer, ConvLayer):
            x, c = _conv_forward(layer, x, need_cache)
        else:
            x, c = unit_forward_batch(layer, x, gate, need_cache)
        caches.append(c)
    pred = np.clip(x[:b, :, :, 0], 0.0, 1.0)
    if not need_cache:
        return pred, None
    return pred, (caches, x[..., 0])


def backward_batch(net: PsRnnNetwork, caches, grad_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Float64 gradients for every parameter, given d(loss)/d(prediction).

    The rows forward_batch padded its batch with get zero gradient. A cache
    serves one backward: each layer's entry is taken out of it (set to None)
    before that layer's backward runs, so it is freed once the layer is done,
    and a second backward on the same cache is a UsageError.
    """
    layer_caches, pre_clip = caches
    g = np.zeros(pre_clip.shape + (1,))
    g[: len(grad_pred), :, :, 0] = grad_pred
    # clip01 passes gradient where the pre-clip value is inside [0, 1]
    g[..., 0] *= (pre_clip >= 0.0) & (pre_clip <= 1.0)
    grads: dict[str, np.ndarray] = {}
    for k in range(len(net.layers) - 1, -1, -1):
        prefix, layer = net.layers[k]
        cache, layer_caches[k] = layer_caches[k], None
        if cache is None:
            raise UsageError("this forward cache has served a backward already")
        if isinstance(layer, ConvLayer):
            # k = 0 is the first conv: nothing needs the network input's gradient
            g = _conv_backward(layer, cache, g, grads, prefix, need_grad_x=k > 0)
        else:
            g = unit_backward_batch(layer, cache, g, grads, prefix)
    return grads


def clone_network(net: PsRnnNetwork) -> PsRnnNetwork:
    return copy.deepcopy(net)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _config_text(config: NetworkConfig) -> bytes:
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _config_from_text(text: str) -> NetworkConfig:
    """Invert _config_text, converting each field by the type of its default.

    The text must hold one key=value line per NetworkConfig field, and no other.
    """
    pairs = [line.partition("=") for line in text.strip().splitlines()]
    kw = {key: val for key, sep, val in pairs if sep}
    if len(kw) != len(pairs) or kw.keys() != {f.name for f in fields(NetworkConfig)}:
        raise ValueError("config text is not one key=value line per NetworkConfig field")
    values = {}
    for f in fields(NetworkConfig):
        val = kw[f.name]
        if isinstance(f.default, tuple):
            values[f.name] = tuple(int(x) for x in val.split(",") if x)
        else:
            values[f.name] = type(f.default)(val)
    return NetworkConfig(**values)


def save_model(net: PsRnnNetwork, path) -> None:
    """Write magic, version, config text, parameter records, trailing CRC32."""
    blob = bytearray()
    blob += MODEL_MAGIC
    blob += struct.pack("<I", MODEL_VERSION)
    cfg = _config_text(net.config)
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    for name, arr in parameters(net).items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            blob += struct.pack("<I", extent)
        blob += arr.astype("<f4").tobytes(order="C")
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise IntegrityError("model file truncated")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def load_model(path) -> PsRnnNetwork:
    """Read a model file; verifies checksum, magic and version.

    Any unreadable content raises IntegrityError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 8:
        raise IntegrityError("model file truncated")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise IntegrityError("model file checksum mismatch")
    r = _Reader(data[:-4])
    if r.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise IntegrityError("bad magic; not a model file")
    version = r.u32()
    if version != MODEL_VERSION:
        raise VersionError(f"unsupported model version {version}")
    records: dict[str, np.ndarray] = {}
    try:
        # a CRC-valid file can still carry text that does not parse: a missing,
        # unknown or repeated key, a line without "=", a non-numeric value,
        # bytes that are not UTF-8
        config = _config_from_text(r.take(r.u32()).decode("utf-8"))
        while r.pos < len(r.data):
            name = r.take(r.u32()).decode("utf-8")
            if name in records:
                raise IntegrityError(f"parameter {name} is stored more than once")
            rank = r.u8()
            shape = tuple(r.u32() for _ in range(rank))
            count = int(np.prod(shape))
            arr = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
            records[name] = np.ascontiguousarray(arr)
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"corrupt model file content: {type(exc).__name__}: {exc}") from None
    # the records must hold every parameter, so a small file cannot make the
    # network it describes allocate more than the file's floats
    if parameter_count(config) > sum(v.size for v in records.values()):
        raise IntegrityError("parameter records are smaller than the stored config")
    net = build_network(config, seed=0)
    params = parameters(net)
    if set(params) != set(records):
        raise IntegrityError("parameter records do not match the stored config")
    for k, v in params.items():
        if records[k].shape != v.shape:
            raise IntegrityError(f"parameter {k} has shape {records[k].shape}, expected {v.shape}")
        v[...] = records[k]
    return net

