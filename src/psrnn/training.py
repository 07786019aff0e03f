"""Training loop, loss plumbing, and the RDO-lite evaluation harness.

Training follows the reference recipe at desk scale: Adam, a learning rate
that TrainConfig divides by ten at each milestone (by default at 50/75/85%
of the run), minibatches of context windows, and checkpoint selection by the
lowest validation loss inside the final 20% of iterations. The loss is
either the tiled SATD of the residue or plain MSE; both are checked against
finite differences in the tests.

Evaluation tiles held-out images into blocks, runs the 35-mode angular
search and the network on every block, charges the network one flag bit and
a baseline mode six bits, and keeps whichever total cost is lower. Costs
use the 8-bit pixel scale so the HM-style lambda is in its usual regime.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (FOUR_BLOCK, THREE_BLOCK, DegradeConfig, GrayImage, SampleSet, cut_contexts,
                   degrade, is_three_block)
from .errors import ConfigError, DivergenceError, UsageError
from .hadamard import SatdConfig, satd_batch, satd_loss_grad_batch
from .intra import (DEFAULT_MODE_BITS, NETWORK, SPLIT_FLAG_BITS, ModeCost, best_modes,
                    hm_lambda, network_mode_cost, reference_lines, smooth_lines)
from .layers import AdamState, adam_step, clip_global_norm
from .model import (PU_SIZES, NetworkConfig, PsRnnNetwork, backward_batch, build_network,
                    forward_batch, parameters)
from .rng import stream
from .tensor import split_bounds

LOG_HEADER = "iteration,lr,train_loss,val_loss"


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "satd"
    total_iters: int = 5_000
    milestones: tuple[int, ...] | None = None  # None: 50/75/85% of total
    base_lr: float = 0.001
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.1
    selection_window: float = 0.2  # final fraction searched for the best model
    satd: SatdConfig = field(default_factory=SatdConfig)
    availability_mode: str = THREE_BLOCK
    clip_grad_norm: float = 5.0  # <= 0: no clipping
    val_subset_cap: int = 512
    checkpoint_every: int | None = None  # None: total_iters // 100

    def __post_init__(self):
        if self.loss not in ("satd", "mse"):
            raise ConfigError(f"loss must be 'satd' or 'mse', got {self.loss!r}")
        if self.total_iters < 0 or self.batch_size < 1:
            raise ConfigError("total_iters must be >= 0 and batch_size >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in (0, 1)")
        if not 0.0 < self.selection_window <= 1.0:
            raise ConfigError("selection_window must lie in (0, 1]")
        if self.val_subset_cap < 1:
            raise ConfigError(f"val_subset_cap must be >= 1, got {self.val_subset_cap}")
        ms = self.lr_milestones()
        if ms and ms[0] < 1:
            raise ConfigError(f"milestones {ms} must start at 1 or later")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing: {ms}")
        if ms and ms[-1] >= self.total_iters:
            raise ConfigError(f"milestones {ms} must stay below total_iters {self.total_iters}")

    def lr_milestones(self) -> tuple[int, ...]:
        """The given milestones, or the reference 100k-iteration schedule's
        50/75/85% scaled to the run; a short run drops the scaled milestones
        that collide or fall outside it."""
        if self.milestones is not None:
            return self.milestones
        ms: list[int] = []
        for frac in (0.5, 0.75, 0.85):
            v = int(round(self.total_iters * frac))
            if 0 < v < self.total_iters and (not ms or v > ms[-1]):
                ms.append(v)
        return tuple(ms)

    def lr(self, iteration: int) -> float:
        """Step decay: base_lr, divided by ten at every milestone passed."""
        passed = sum(1 for m in self.lr_milestones() if m <= iteration)
        return self.base_lr * 0.1 ** passed

    def selection_start(self) -> int:
        """Checkpoints logged after this iteration make up the selection window."""
        return self.total_iters - int(round(self.total_iters * self.selection_window))

    def cadence(self) -> int:
        if self.checkpoint_every is not None:
            return max(1, self.checkpoint_every)
        return max(1, self.total_iters // 100)


def as_sample_set(data) -> SampleSet:
    if not isinstance(data, SampleSet) or len(data) == 0:
        raise UsageError("training data must be a non-empty SampleSet")
    return data


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_and_grad(preds: np.ndarray, targets: np.ndarray, loss_kind: str,
                  satd_cfg: SatdConfig = SatdConfig(), need_grad: bool = True):
    """Mean per-sample loss over a (b, n, n) stack and d(loss)/d(preds).

    Both run in float64. With need_grad=False the gradient is skipped and
    returned as None.
    """
    if preds.shape != targets.shape:
        raise UsageError(f"shapes differ: {preds.shape} vs {targets.shape}")
    d = preds - targets.astype(np.float64)
    b = d.shape[0]
    if loss_kind == "satd":
        loss = float(satd_batch(d, satd_cfg).mean())
        grad = satd_loss_grad_batch(d, satd_cfg) / b if need_grad else None
    elif loss_kind == "mse":
        per = d.shape[1] * d.shape[2]
        loss = float((d * d).sum(axis=(1, 2)).mean() / per)
        grad = 2.0 * d / (per * b) if need_grad else None
    else:
        raise ConfigError(f"loss must be 'satd' or 'mse', got {loss_kind!r}")
    return loss, grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class LogRow:
    iteration: int
    lr: float
    train_loss: float
    val_loss: float

    def csv(self) -> str:
        return f"{self.iteration},{self.lr!r},{self.train_loss!r},{self.val_loss!r}"


def write_training_log(rows: list[LogRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(LOG_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")


# Pixels of the blocks one network forward covers: a stack of k contexts of
# size n runs in the fewest near-equal chunks of at most
# max(16, EVAL_CHUNK_PIXELS // n**2) contexts (64 at N=8, 16 at N=16 and
# N=32), so the memory a pass needs does not grow with the stack, and no
# chunk is a short tail. A context's prediction does not depend on its chunk
# (see model.forward_batch), so this sets speed and memory only. The floor of
# 16 keeps N=32 passes from running slower per context on smaller chunks; an
# N=32 inference pass holds about 14 MiB for one context and 1.8 MiB for
# each further one.
EVAL_CHUNK_PIXELS = 4096


def _chunks(n: int, k: int) -> list[tuple[int, int]]:
    """(start, stop) of the chunks a stack of k contexts of size n runs in."""
    bounds = split_bounds(k, max(16, EVAL_CHUNK_PIXELS // (n * n)))
    return list(zip(bounds, bounds[1:]))


def validation_metric(net: PsRnnNetwork, contexts, targets, loss_kind: str,
                      satd_cfg: SatdConfig) -> float:
    preds = np.concatenate([forward_batch(net, contexts[i:j], need_cache=False)[0]
                            for i, j in _chunks(net.config.pu_size, len(contexts))])
    return loss_and_grad(preds, targets, loss_kind, satd_cfg, need_grad=False)[0]


def _validation_split(n_samples: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """(val_idx, train_idx) of a sample set: a permutation drawn from cfg.seed
    whose first validation_fraction validates, capped at val_subset_cap."""
    split = stream(cfg.seed, "split").permutation(n_samples)
    n_val = max(1, int(round(n_samples * cfg.validation_fraction)))
    if n_val >= n_samples:
        raise UsageError("not enough samples to split off a validation set")
    return split[:n_val][: cfg.val_subset_cap], split[n_val:]


def train(net: PsRnnNetwork, data, cfg: TrainConfig):
    """Run the minibatch loop; returns (best network, validation log rows).

    The returned network is the checkpoint with the lowest validation loss
    inside the final selection window (it is `net` itself, with its
    parameters overwritten). Deterministic given cfg.seed. A set whose window
    size, fill or availability differs from the network config's is a
    ConfigError: the network would learn one context and be evaluated with
    another.
    """
    samples = as_sample_set(data)
    if 2 * samples.n != net.config.context_size:
        raise ConfigError(
            f"samples sized {2 * samples.n} != context {net.config.context_size}")
    if samples.fill != net.config.fill_value:
        raise ConfigError(f"samples masked with fill {samples.fill} != the network's "
                          f"fill_value {net.config.fill_value}")
    if samples.three_block != is_three_block(net.config.availability_mode):
        cut = THREE_BLOCK if samples.three_block else FOUR_BLOCK
        raise ConfigError(f"samples cut {cut} != the network's availability_mode "
                          f"{net.config.availability_mode}")

    val_idx, train_idx = _validation_split(len(samples), cfg)
    val_ctx, val_tgt = samples.take(val_idx)

    params = parameters(net)
    state = AdamState()
    cadence = cfg.cadence()
    window_start = cfg.selection_start()

    rows = [LogRow(0, cfg.lr(0), float("nan"),
                   validation_metric(net, val_ctx, val_tgt, cfg.loss, cfg.satd))]
    if cfg.total_iters == 0:
        return net, rows

    batches = stream(cfg.seed, "batches")
    best_val = math.inf
    best_params: dict[str, np.ndarray] | None = None
    recent: list[float] = []

    for it in range(cfg.total_iters):
        idx = batches.integers(0, len(train_idx), size=cfg.batch_size)
        contexts, targets = samples.take(train_idx[idx])
        preds, caches = forward_batch(net, contexts)
        loss, grad_pred = loss_and_grad(preds, targets, cfg.loss, cfg.satd)
        if not math.isfinite(loss):
            raise DivergenceError(it)
        grads = backward_batch(net, caches, grad_pred)
        clip_global_norm(grads, cfg.clip_grad_norm)
        adam_step(params, grads, state, cfg.lr(it))
        del preds, caches, grad_pred, grads  # not held through the next forward
        recent.append(loss)

        done = it + 1
        if done % cadence == 0 or done == cfg.total_iters:
            val = validation_metric(net, val_ctx, val_tgt, cfg.loss, cfg.satd)
            rows.append(LogRow(done, cfg.lr(it), float(np.mean(recent)), val))
            recent = []
            if done > window_start and val < best_val:
                best_val = val
                best_params = {k: v.copy() for k, v in params.items()}

    if best_params is not None:
        for k, v in params.items():
            v[...] = best_params[k]
    return net, rows


# ---------------------------------------------------------------------------
# RDO-lite evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalConfig:
    block_sizes: tuple[int, ...] = (8,)
    policy: str = "fixed"  # fixed tiling, or greedy top-down splitting
    oracle: bool = False
    ref_smoothing: bool = False

    def __post_init__(self):
        if self.policy not in ("fixed", "greedy"):
            raise ConfigError(f"policy must be fixed or greedy, got {self.policy!r}")
        if not self.block_sizes or any(s not in PU_SIZES for s in self.block_sizes):
            raise ConfigError(f"block sizes must be one or more of {PU_SIZES}: {self.block_sizes}")
        if len(set(self.block_sizes)) != len(self.block_sizes):
            raise ConfigError(f"block sizes must not repeat: {self.block_sizes}")
        if self.policy == "greedy":
            chain = self.greedy_sizes()
            if len(chain) < 2:
                raise ConfigError("greedy policy needs at least two block sizes")
            if any(a != 2 * b for a, b in zip(chain, chain[1:])):
                raise ConfigError(
                    f"greedy block sizes must halve from one to the next: {self.block_sizes}")

    def greedy_sizes(self) -> list[int]:
        """Block sizes, largest first: the greedy quad-tree levels."""
        return sorted(self.block_sizes, reverse=True)


@dataclass
class BlockRecord:
    origin: tuple[int, int]
    n: int
    base: ModeCost
    net: ModeCost | None
    winner: str  # "baseline" or "network"
    base_mse: float
    net_mse: float | None

    @property
    def winner_total(self) -> float:
        if self.winner == NETWORK and self.net is not None:
            return self.net.total
        return self.base.total


@dataclass
class EvalReport:
    records: list[BlockRecord]
    summary: dict

    def csv_rows(self):
        yield ("origin_y,origin_x,n,base_mode,base_satd,base_bits,base_total,"
               "net_satd,net_bits,net_total,winner")
        for r in self.records:
            net_satd = "" if r.net is None else repr(r.net.satd)
            net_bits = "" if r.net is None else repr(r.net.bits_proxy)
            net_total = "" if r.net is None else repr(r.net.total)
            yield (f"{r.origin[0]},{r.origin[1]},{r.n},{r.base.mode},"
                   f"{r.base.satd!r},{r.base.bits_proxy!r},{r.base.total!r},"
                   f"{net_satd},{net_bits},{net_total},{r.winner}")


def evaluate(nets: dict[int, PsRnnNetwork] | None, images: Iterable[GrayImage], qp: int,
             cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Tile images, race the angular baseline against the network per block.

    `nets` maps a block size to its network, or is None (baseline only /
    oracle). Contexts are built with the availability mode and fill value
    the corresponding model was trained with. Each image is scored one
    block size (fixed) or one quad-tree level (greedy) at a time, in
    bounded chunks of blocks (see EVAL_CHUNK_PIXELS), so peak memory does
    not grow with the image. `images` is iterated once, so it may decode
    each image as it is reached.
    """
    if nets is not None and not cfg.oracle:
        for n in cfg.block_sizes:
            if n not in nets:
                raise ConfigError(f"no model loaded for block size {n}")
    live = {} if nets is None or cfg.oracle else nets
    lam = hm_lambda(qp)
    records: list[BlockRecord] = []
    for image in images:
        recon = degrade(image, DegradeConfig(qp=qp))
        if cfg.policy == "fixed":
            for n in cfg.block_sizes:
                records.extend(_level_records(live.get(n), image, recon,
                                              _tile_origins(image.pixels.shape, n), n, lam, cfg))
        else:
            records.extend(_eval_greedy(live, image, recon, lam, cfg))
    return _make_report(records, qp, lam)


def _contexts(net: PsRnnNetwork, image: GrayImage, recon: GrayImage, origins) -> np.ndarray:
    c = net.config
    ys, xs = (np.array(origins, dtype=np.intp).reshape(-1, 2) - c.pu_size).T
    out = SampleSet.empty(len(ys), c.pu_size, c.fill_value, is_three_block(c.availability_mode))
    return cut_contexts(recon.pixels, image.pixels, ys, xs, out).take(slice(None))[0]


def _tile_origins(shape: tuple[int, int], n: int) -> np.ndarray:
    """(k, 2) origins of the n x n tiles at n, 2n, ... that leave an n margin, row-major."""
    h, w = shape
    ys, xs = np.meshgrid(np.arange(n, h - n + 1, n), np.arange(n, w - n + 1, n), indexing="ij")
    return np.stack([ys.ravel(), xs.ravel()], axis=1)


def _mse(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return ((preds - targets) ** 2).reshape(len(preds), -1).mean(axis=1)


def _level_records(net: PsRnnNetwork | None, image: GrayImage, recon: GrayImage,
                   origins: np.ndarray, n: int, lam: float,
                   cfg: EvalConfig) -> list[BlockRecord]:
    """Race the baseline against the network on every n x n block at `origins`,
    one chunk of blocks (see EVAL_CHUNK_PIXELS) at a time."""
    if not len(origins):
        return []
    blocks = sliding_window_view(image.pixels, (n, n))
    records: list[BlockRecord] = []
    for i, j in _chunks(n, len(origins)):
        part = origins[i:j]
        targets = blocks[part[:, 0], part[:, 1]].astype(np.float64)
        lines = reference_lines(recon.pixels, part, n)
        if cfg.ref_smoothing:
            lines = smooth_lines(lines)
        modes, satds, base_preds = best_modes(lines, targets, n, lam)
        base_mse = _mse(base_preds, targets)
        net_preds = targets if cfg.oracle else None
        if net is not None:
            net_preds, _ = forward_batch(net, _contexts(net, image, recon, part),
                                         need_cache=False)
        if net_preds is not None:
            net_satds = satd_batch(net_preds - targets)
            net_mse = _mse(net_preds, targets)
        for k, origin in enumerate(map(tuple, part.tolist())):
            base = ModeCost(mode=int(modes[k]), satd=float(satds[k]),
                            bits_proxy=DEFAULT_MODE_BITS, lam=lam)
            net_cost = None if net_preds is None else network_mode_cost(float(net_satds[k]),
                                                                        lam)
            records.append(BlockRecord(
                origin=origin, n=n, base=base, net=net_cost,
                winner=NETWORK if net_cost is not None and net_cost.total < base.total
                else "baseline",
                base_mse=float(base_mse[k]),
                net_mse=None if net_cost is None else float(net_mse[k])))
    return records


def _eval_greedy(nets: dict[int, PsRnnNetwork], image: GrayImage, recon: GrayImage,
                 lam: float, cfg: EvalConfig) -> list[BlockRecord]:
    """Score every quad-tree level of the whole image, then split top-down."""
    sizes = cfg.greedy_sizes()
    roots = level = _tile_origins(image.pixels.shape, sizes[0])
    table: dict[tuple[tuple[int, int], int], BlockRecord] = {}
    for n in sizes:
        records = _level_records(nets.get(n), image, recon, level, n, lam, cfg)
        table.update(((r.origin, n), r) for r in records)
        half = n // 2
        level = (level[:, None] + np.array([(0, 0), (0, half), (half, 0), (half, half)])
                 ).reshape(-1, 2)
    out: list[BlockRecord] = []
    for y, x in roots.tolist():
        out.extend(_descend(table, (y, x), sizes[0], sizes[-1], lam)[0])
    return out


def _descend(table: dict, origin: tuple[int, int], n: int, smallest: int,
             lam: float) -> tuple[list[BlockRecord], float]:
    """The cheaper of a block's own record and its four children's best
    splits, and its cost: a split costs its children's costs, each with the
    split flags inside it, plus its own flag.

    Module-level on purpose: a nested recursive closure is a reference cycle
    that keeps each image's table alive until the cyclic garbage collector
    runs, which raised the greedy eval's peak memory from image to image.
    """
    whole = table[origin, n]
    if n == smallest:
        return [whole], whole.winner_total
    half = n // 2
    children: list[BlockRecord] = []
    costs: list[float] = []
    for dy in (0, half):
        for dx in (0, half):
            records, cost = _descend(table, (origin[0] + dy, origin[1] + dx), half, smallest,
                                     lam)
            children.extend(records)
            costs.append(cost)
    split_cost = sum(costs) + lam * SPLIT_FLAG_BITS
    if split_cost < whole.winner_total:
        return children, split_cost
    return [whole], whole.winner_total


def _make_report(records: list[BlockRecord], qp: int, lam: float) -> EvalReport:
    n_blocks = len(records)
    base_total = sum(r.base.total for r in records)
    winner_total = sum(r.winner_total for r in records)
    with_net = [r for r in records if r.net is not None]
    selected = sum(1 for r in records if r.winner == NETWORK)
    summary = {
        "blocks": n_blocks,
        "qp": qp,
        "lambda": lam,
        "selection_rate_pct": 100.0 * selected / n_blocks if n_blocks else 0.0,
        "mean_cost_reduction_pct":
            100.0 * (base_total - winner_total) / base_total if base_total else 0.0,
        "mean_satd_baseline":
            float(np.mean([r.base.satd for r in records])) if records else 0.0,
        "mean_satd_network":
            float(np.mean([r.net.satd for r in with_net])) if with_net else float("nan"),
        "mean_mse_baseline":
            float(np.mean([r.base_mse for r in records])) if records else 0.0,
        "mean_mse_network":
            float(np.mean([r.net_mse for r in with_net])) if with_net else float("nan"),
    }
    return EvalReport(records=records, summary=summary)


# ---------------------------------------------------------------------------
# Experiments: loss comparison and unit-count ablation
# ---------------------------------------------------------------------------


def comparison_seeds(seeds) -> list[int]:
    """compare_losses' seeds as a list: at least three, none repeated."""
    seeds = list(seeds)
    if len(seeds) < 3:
        raise UsageError("loss comparison needs at least 3 seeds")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise UsageError(f"loss comparison seeds must differ; repeated: "
                         f"{', '.join(map(str, repeated))}")
    return seeds


def compare_losses(data, cfg_base: TrainConfig, seeds, net_config: NetworkConfig) -> dict:
    """Train paired SATD/MSE models of net_config per seed on identical sample streams.

    Both arms of a seed share the init and the batch sequence, so only the
    training loss differs. Returns per-seed validation SATD and MSE of both
    arms plus the median SATD gap between the MSE and the SATD arm
    (positive favors SATD).
    """
    seeds = comparison_seeds(seeds)
    samples = as_sample_set(data)
    rows = []
    for seed in seeds:
        row = {"seed": seed}
        for arm in ("satd", "mse"):
            cfg = replace(cfg_base, loss=arm, seed=seed)
            net, _ = train(build_network(net_config, seed=seed), samples, cfg)
            val_idx, _ = _validation_split(len(samples), cfg)
            ctx, tgt = samples.take(val_idx)
            row[f"{arm}_val_satd"] = validation_metric(net, ctx, tgt, "satd", cfg.satd)
            row[f"{arm}_val_mse"] = validation_metric(net, ctx, tgt, "mse", cfg.satd)
        row["satd_gap"] = row["mse_val_satd"] - row["satd_val_satd"]
        rows.append(row)
    gaps = sorted(r["satd_gap"] for r in rows)
    return {"rows": rows, "median_gap": float(np.median(gaps)),
            "median_satd_trained": float(np.median([r["satd_val_satd"] for r in rows])),
            "median_mse_trained": float(np.median([r["mse_val_satd"] for r in rows]))}


def ablate_units(data, unit_counts, cfg: TrainConfig, eval_images: list[GrayImage],
                 qp: int = 32) -> list[dict]:
    """Train one model per recurrent-unit count at a fixed budget: default
    widths but for the units, an 8-wide first unit and 4-wide others."""
    samples = as_sample_set(data)
    n = samples.n
    if min(unit_counts, default=1) < 1:
        raise UsageError("network must contain at least one recurrent unit")
    rows = []
    for count in unit_counts:
        config = NetworkConfig(pu_size=n, availability_mode=cfg.availability_mode,
                               unit_hidden=(8,) + (4,) * (count - 1))
        net, log = train(build_network(config, seed=cfg.seed), samples, cfg)
        report = evaluate({n: net}, eval_images, qp, EvalConfig(block_sizes=(n,)))
        rows.append({
            "units": count,
            "final_val_loss": log[-1].val_loss,
            "selection_rate_pct": report.summary["selection_rate_pct"],
            "cost_reduction_pct": report.summary["mean_cost_reduction_pct"],
        })
    return rows

