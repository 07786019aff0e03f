"""The three benchmark workloads: set-up, one operation, and its output check.

Every workload builds its inputs from the workload seed alone, runs one
library entry point per operation (`training.train` or `training.evaluate`,
the functions the `psrnn train` and `psrnn eval` verbs call), and checks the
operation's output independently of the code path that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from psrnn import data as D
from psrnn import model as M
from psrnn import training as TR
from psrnn.hadamard import SatdConfig, satd
from psrnn.intra import (DEFAULT_MODE_BITS, N_MODES, NETWORK, NETWORK_FLAG_BITS,
                         PIXEL_SCALE, build_reference_samples, hm_lambda, predict_mode)


class CheckFailure(Exception):
    """An operation produced output that does not match its independent check."""


# Sizes of each workload. "full" is the benchmark; "tiny" only exercises the
# code paths quickly for the benchmark's own tests.
SIZES = {
    "full": {"corpus_size": 128, "per_kind": 12, "samples": 50_000, "iters": 50,
             "checkpoint_every": 50, "batch": 32, "image_size": 128, "image_pool": 6,
             "checked_blocks": 6},
    "tiny": {"corpus_size": 32, "per_kind": 2, "samples": 400, "iters": 4,
             "checkpoint_every": 2, "batch": 8, "image_size": 48, "image_pool": 3,
             "checked_blocks": 3},
}

EVAL_KINDS = ("directional", "sinusoid", "rings")
QP = 32


def _tiles(extent: int, n: int) -> int:
    # matches the fixed tiling of training.evaluate: origins n, 2n, ... <= extent - n
    return len(range(n, extent - n + 1, n))


def candidate_blocks(extent: int, sizes: tuple[int, ...], policy: str) -> int:
    """Blocks the evaluator scores per image, from the tiling geometry alone."""
    if policy == "fixed":
        return sum(_tiles(extent, n) ** 2 for n in sizes)
    top = max(sizes)
    per_tree, level, n = 0, 1, top
    while n in sizes:
        per_tree += level
        level *= 4
        n //= 2
    return _tiles(extent, top) ** 2 * per_tree


# ---------------------------------------------------------------------------
# train-n8
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    pristine: M.PsRnnNetwork
    samples: TR.SampleSet
    cfg: TR.TrainConfig
    reference: tuple[str, float] | None = None


class TrainN8:
    name = "train-n8"
    unit = "samples"
    metric = "train.samples_per_s"

    def __init__(self, size: str, workdir):
        self.size = SIZES[size]
        self.workdir = workdir

    def setup(self, seed: int) -> TrainState:
        s = self.size
        images = D.synthetic_corpus(s["corpus_size"], seed, kinds=("directional", "sinusoid"),
                                    per_kind=s["per_kind"])
        blocks = D.build_training_samples(images, 8, s["samples"], seed,
                                          availability_mode=D.THREE_BLOCK)
        samples = TR.as_sample_set(blocks)
        net = M.build_network(M.NetworkConfig(pu_size=8, availability_mode=D.THREE_BLOCK),
                              seed=seed)
        cfg = TR.TrainConfig(loss="satd", total_iters=s["iters"], batch_size=s["batch"],
                             seed=seed, checkpoint_every=s["checkpoint_every"],
                             val_subset_cap=512, availability_mode=D.THREE_BLOCK)
        return TrainState(pristine=net, samples=samples, cfg=cfg)

    def items_per_op(self, state: TrainState) -> int:
        return state.cfg.total_iters * state.cfg.batch_size

    def prepare(self, state: TrainState, op: int):
        return (M.clone_network(state.pristine),)

    def run(self, state: TrainState, op: int, net):
        return TR.train(net, state.samples, state.cfg)

    def model_digest(self, net) -> str:
        path = self.workdir / "check-model.psrnn"
        M.save_model(net, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        return digest

    def check(self, state: TrainState, op: int, output) -> dict:
        net, rows = output
        losses = [r.train_loss for r in rows[1:]] + [r.val_loss for r in rows]
        if len(rows) < 2 or not all(math.isfinite(v) for v in losses):
            raise CheckFailure("non-finite training or validation loss")
        val_satd = rows[-1].val_loss
        outcome = (self.model_digest(net), val_satd)
        if state.reference is None:
            state.reference = outcome
        elif outcome[0] != state.reference[0]:
            raise CheckFailure(f"model bytes differ from the first operation "
                               f"({outcome[0][:12]} != {state.reference[0][:12]})")
        elif outcome[1] != state.reference[1]:
            raise CheckFailure(f"val_satd {outcome[1]!r} != first operation "
                               f"{state.reference[1]!r}")
        return {"val_satd": val_satd}


# ---------------------------------------------------------------------------
# eval-fixed-n8 and eval-greedy-16-8
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    nets: dict
    images: list
    cfg: TR.EvalConfig
    seed: int
    recon: dict = field(default_factory=dict)       # image index -> degraded image
    digests: dict = field(default_factory=dict)     # image index -> first report digest


def report_digest(report: TR.EvalReport) -> str:
    h = hashlib.sha256()
    for record in report.records:
        h.update(repr(record).encode() + b"\n")
    h.update(json.dumps(report.summary, sort_keys=True).encode())
    return h.hexdigest()


class EvalWorkload:
    unit = "blocks"
    metric = "eval.blocks_per_s"

    def __init__(self, name: str, sizes: tuple[int, ...], policy: str, size: str):
        self.name = name
        self.sizes = sizes
        self.policy = policy
        self.size = SIZES[size]

    def setup(self, seed: int) -> EvalState:
        s = self.size
        nets = {n: M.build_network(M.NetworkConfig(pu_size=n), seed=seed) for n in self.sizes}
        images = []
        for i in range(s["image_pool"]):
            kind = EVAL_KINDS[i % len(EVAL_KINDS)]
            images.append(D.synthetic_corpus(s["image_size"], seed * 1000 + 1013 + i,
                                             kinds=(kind,), per_kind=1)[0])
        cfg = TR.EvalConfig(block_sizes=self.sizes, policy=self.policy)
        return EvalState(nets=nets, images=images, cfg=cfg, seed=seed)

    def items_per_op(self, state: EvalState) -> int:
        return candidate_blocks(self.size["image_size"], self.sizes, self.policy)

    def prepare(self, state: EvalState, op: int):
        return (op % len(state.images),)

    def run(self, state: EvalState, op: int, image_index: int):
        return TR.evaluate(state.nets, [state.images[image_index]], QP, state.cfg)

    def check(self, state: EvalState, op: int, output) -> dict:
        report = output
        index = op % len(state.images)
        image = state.images[index]
        self._check_geometry(report, image)
        digest = report_digest(report)
        first = state.digests.setdefault(index, digest)
        if digest != first:
            raise CheckFailure(f"report for repeated image {index} differs from its first")
        if index not in state.recon:
            state.recon[index] = D.degrade(image, D.DegradeConfig(qp=QP))
        gen = np.random.default_rng([state.seed, op])
        count = min(self.size["checked_blocks"], len(report.records))
        for i in sorted(gen.choice(len(report.records), size=count, replace=False)):
            self._check_block(state, image, state.recon[index], report.records[int(i)])
        return {}

    def _check_geometry(self, report: TR.EvalReport, image) -> None:
        h, w = image.pixels.shape
        top = max(self.sizes)
        area = sum(r.n * r.n for r in report.records)
        if self.policy == "fixed":
            expected = candidate_blocks(h, self.sizes, "fixed")
            if len(report.records) != expected:
                raise CheckFailure(f"{len(report.records)} records != {expected} tiles")
        elif area != (_tiles(h, top) * top) * (_tiles(w, top) * top):
            raise CheckFailure(f"greedy records cover {area} pixels, not the tiled area")
        if report.summary["blocks"] != len(report.records):
            raise CheckFailure("summary block count disagrees with the records")

    def _check_block(self, state: EvalState, image, recon, record) -> None:
        """Recompute one block's baseline and network costs independently."""
        (y, x), n = record.origin, record.n
        lam = hm_lambda(QP)
        target = image.pixels[y : y + n, x : x + n].astype(np.float64)
        refs = build_reference_samples(recon.pixels, (y, x), n)
        best_mode, best_satd, best_total = -1, math.inf, math.inf
        for mode in range(N_MODES):
            s = satd(predict_mode(refs, mode, n) - target, SatdConfig()) * PIXEL_SCALE
            if s + lam * DEFAULT_MODE_BITS < best_total:
                best_mode, best_satd, best_total = mode, s, s + lam * DEFAULT_MODE_BITS
        if (record.base.mode, record.base.satd) != (best_mode, best_satd):
            raise CheckFailure(
                f"block {record.origin} n={n}: baseline mode {record.base.mode} "
                f"satd {record.base.satd!r} != recomputed {best_mode} {best_satd!r}")
        net = state.nets[n]
        ctx = D.make_context(recon.pixels, image.pixels, (y - n, x - n), n,
                             net.config.availability_mode, net.config.fill_value).context
        pred, _ = M.forward_batch(net, ctx[None], need_cache=False)
        net_satd = satd(pred[0] - target, SatdConfig()) * PIXEL_SCALE
        net_total = net_satd + lam * NETWORK_FLAG_BITS
        if record.net is None or not math.isclose(record.net.satd, net_satd,
                                                  rel_tol=1e-9, abs_tol=1e-9):
            got = None if record.net is None else record.net.satd
            raise CheckFailure(f"block {record.origin} n={n}: network satd {got!r} "
                               f"!= recomputed {net_satd!r}")
        winner = NETWORK if net_total < best_total else "baseline"
        if record.winner != winner and not math.isclose(net_total, best_total, rel_tol=1e-9):
            raise CheckFailure(f"block {record.origin} n={n}: winner {record.winner} "
                               f"!= recomputed {winner}")


def make_workload(name: str, size: str, workdir):
    if name == "train-n8":
        return TrainN8(size, workdir)
    if name == "eval-fixed-n8":
        return EvalWorkload(name, (8,), "fixed", size)
    if name == "eval-greedy-16-8":
        return EvalWorkload(name, (16, 8), "greedy", size)
    raise KeyError(name)


WORKLOADS = ("train-n8", "eval-fixed-n8", "eval-greedy-16-8")
