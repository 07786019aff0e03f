"""Batch command-line front end.

Verbs: prepare, train, eval, demo, compare-losses, ablate-units.
Common flags: --config PATH, --out DIR, --set KEY=VALUE, and --seed U64 for
every verb but prepare, which draws no random numbers. Eval only: --oracle.
A flag on a verb without its key is a usage error.

Runs are driven by plain key=value config files (one pair per line, #
comments allowed). Unknown keys are rejected, and every run writes its fully
resolved configuration next to its outputs, so feeding that file back
reproduces the run byte for byte. All randomness flows from the single run
seed through named substreams.

Exit codes: 0 success, 1 usage/config error (a config that asks for more
memory than can be allocated included), 2 runtime/numeric failure.

CSV schemas:
  training log: iteration,lr,train_loss,val_loss
  eval blocks:  origin_y,origin_x,n,base_mode,base_satd,base_bits,base_total,
                net_satd,net_bits,net_total,winner
  eval summary: JSON object with blocks, qp, lambda, selection_rate_pct,
                mean_cost_reduction_pct, mean_satd_*/mean_mse_* per scheme.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as D
from .errors import ConfigError, UsageError
from .hadamard import SatdConfig
from .model import NetworkConfig, build_network, forward_batch, load_model, save_model
from .training import (EvalConfig, TrainConfig, ablate_units, compare_losses,
                       comparison_seeds, evaluate, train, write_training_log)
from .intra import best_modes, hm_lambda, reference_lines

# ---------------------------------------------------------------------------
# key=value config handling
# ---------------------------------------------------------------------------


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in s.split(",") if t.strip())


def _strs(s: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in s.split(",") if t.strip())


def _int_from(low: int):
    """An int converter that rejects values below low."""
    def conv(s: str) -> int:
        v = int(s)
        if v < low:
            raise ValueError(s)
        return v
    return conv


_count, _nonneg = _int_from(1), _int_from(0)


def _ints_from(low: int):
    """A converter of non-empty int lists that rejects values below low."""
    def conv(s: str) -> tuple[int, ...]:
        v = _ints(s)
        if not v or min(v) < low:
            raise ValueError(s)
        return v
    return conv


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {s!r}")


SCHEMAS: dict[str, dict[str, tuple]] = {
    "prepare": {
        "manifest": (str, None),
        "out": (str, "prepare_out"),
        "scales": (_bool, True),
        "qps": (_ints_from(0), D.TRAIN_QPS),
    },
    "train": {
        "out": (str, "train_out"),
        "data": (str, "synthetic"),
        "n": (int, NetworkConfig.pu_size),
        "availability": (str, NetworkConfig.availability_mode),
        "loss": (str, TrainConfig.loss),
        "iters": (_nonneg, TrainConfig.total_iters),
        "batch": (_count, TrainConfig.batch_size),
        "base_lr": (float, TrainConfig.base_lr),
        "milestones": (_ints, ()),  # (): scaled to the run, TrainConfig's None
        "seed": (int, 0),
        "samples": (_count, 50000),
        "val_fraction": (float, TrainConfig.validation_fraction),
        "selection_window": (float, TrainConfig.selection_window),
        "partition": (int, SatdConfig.partition),
        "epsilon": (float, SatdConfig.epsilon),
        "fill": (float, NetworkConfig.fill_value),
        "gate_activation": (str, NetworkConfig.gate_activation),
        "preproc_channels": (_ints, NetworkConfig.preproc_channels),
        "unit_hidden": (_ints, NetworkConfig.unit_hidden),
        "recon_channels": (_ints, NetworkConfig.recon_channels),
        "fusion_kernel": (int, NetworkConfig.fusion_kernel),
        "clip_grad_norm": (float, TrainConfig.clip_grad_norm),
        "qps": (_ints_from(0), D.TRAIN_QPS),
        "corpus_size": (_count, 128),
        "corpus_kinds": (_strs, ("directional", "sinusoid")),
        "corpus_per_kind": (_count, 12),
    },
    "eval": {
        "out": (str, "eval_out"),
        "models": (_strs, ()),
        "images": (str, "synthetic"),
        "qp": (_nonneg, 32),
        "block_policy": (str, EvalConfig.policy),
        "sizes": (_ints, EvalConfig.block_sizes),
        "oracle": (_bool, EvalConfig.oracle),
        "ref_smoothing": (_bool, EvalConfig.ref_smoothing),
        "seed": (int, 0),
        "eval_size": (int, 128),
        "eval_count": (_count, 4),
    },
    "demo": {
        "out": (str, "demo_out"),
        "model": (str, None),
        "kind": (str, "directional"),
        "cases": (_count, 4),
        "qp": (_nonneg, 32),
        "seed": (int, 0),
    },
    "compare-losses": {
        "out": (str, "compare_out"),
        "seeds": (_ints, (1, 2, 3)),
        "n": (int, NetworkConfig.pu_size),
        "availability": (str, NetworkConfig.availability_mode),
        "iters": (_nonneg, 600),
        "batch": (_count, TrainConfig.batch_size),
        "samples": (_count, 6000),
        "seed": (int, 0),
        "corpus_size": (_count, 128),
    },
    "ablate-units": {
        "out": (str, "ablate_out"),
        "counts": (_ints_from(1), (1, 2, 3, 4)),
        "n": (int, NetworkConfig.pu_size),
        "availability": (str, NetworkConfig.availability_mode),
        "iters": (_nonneg, 400),
        "batch": (_count, TrainConfig.batch_size),
        "samples": (_count, 6000),
        "seed": (int, 0),
        "corpus_size": (_count, 128),
        "qp": (_nonneg, 32),
    },
}


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a text file: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def resolve(command: str, raw: dict[str, str], overrides: dict) -> dict:
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {', '.join(unknown)}")
    resolved = {}
    for key, (conv, default) in schema.items():
        if key in raw:
            try:
                resolved[key] = conv(raw[key])
            except (ValueError, TypeError):
                raise UsageError(f"bad value for {key}: {raw[key]!r}") from None
        else:
            resolved[key] = default
    for key, value in overrides.items():
        if value is not None:
            if key not in schema:
                raise UsageError(f"{command} takes no {key}")
            resolved[key] = value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise UsageError(f"missing required keys for {command}: {', '.join(missing)}")
    return resolved


def write_resolved(command: str, resolved: dict, out_dir: Path) -> None:
    lines = []
    for key in SCHEMAS[command]:
        value = resolved[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    (out_dir / f"{command}.config").write_text("\n".join(lines) + "\n")


def _out_dir(resolved: dict) -> Path:
    """The --out directory, made once the run has checked its inputs, so a
    run that exits 1 leaves none behind."""
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_prepare(resolved: dict) -> int:
    paths = D.read_manifest(resolved["manifest"])
    if not paths:
        raise UsageError("no inputs in manifest")
    out = Path(resolved["out"])
    img_dir = out / "images"
    index_lines = []
    counts: dict[tuple[int, int], int] = {}
    failures = 0
    for path in paths:
        try:
            img = D.load_image(path)
            scales = D.multi_scale(img) if resolved["scales"] else [img]
        except Exception as exc:  # per-file: report and continue
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        stem = Path(path).stem
        img_dir.mkdir(parents=True, exist_ok=True)  # once an input has loaded
        for si, scaled in enumerate(scales):
            clean_name = f"{stem}_s{si}_clean.pgm"
            D.save_pgm(scaled, img_dir / clean_name)
            for qp in resolved["qps"]:
                deg = D.degrade(scaled, D.DegradeConfig(qp=qp))
                deg_name = f"{stem}_s{si}_qp{qp}.pgm"
                D.save_pgm(deg, img_dir / deg_name)
                index_lines.append(f"images/{clean_name}\timages/{deg_name}\t{si}\t{qp}")
                counts[(si, qp)] = counts.get((si, qp), 0) + 1
    if failures == len(paths):
        raise RuntimeError("all manifest inputs failed to load")
    (out / "index.tsv").write_text("\n".join(index_lines) + "\n")
    write_resolved("prepare", resolved, out)
    for (si, qp) in sorted(counts):
        print(f"scale {si} qp {qp}: {counts[(si, qp)]} images")
    print(f"prepared {len(index_lines)} degraded images -> {out}")
    return 0


def _train_defaults(resolved: dict) -> dict:
    """resolved over the train schema's defaults, for verbs that train with fewer keys."""
    return {**{key: default for key, (_, default) in SCHEMAS["train"].items()}, **resolved}


def _network_config(resolved: dict) -> NetworkConfig:
    return NetworkConfig(
        pu_size=resolved["n"],
        preproc_channels=resolved["preproc_channels"],
        unit_hidden=resolved["unit_hidden"],
        recon_channels=resolved["recon_channels"],
        fusion_kernel=resolved["fusion_kernel"],
        gate_activation=resolved["gate_activation"],
        availability_mode=resolved["availability"],
        fill_value=resolved["fill"],
    )


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        loss=resolved["loss"],
        total_iters=resolved["iters"],
        milestones=resolved["milestones"] or None,
        base_lr=resolved["base_lr"],
        batch_size=resolved["batch"],
        seed=resolved["seed"],
        validation_fraction=resolved["val_fraction"],
        selection_window=resolved["selection_window"],
        satd=SatdConfig(partition=resolved["partition"], epsilon=resolved["epsilon"]),
        availability_mode=resolved["availability"],
        clip_grad_norm=resolved["clip_grad_norm"],
    )


def _load_samples(resolved: dict):
    seed = resolved["seed"]
    n = resolved["n"]
    count = resolved["samples"]
    fill = resolved["fill"]
    availability = resolved["availability"]
    source = resolved["data"]
    if source == "synthetic":
        images = D.synthetic_corpus(resolved["corpus_size"], seed,
                                    kinds=resolved["corpus_kinds"],
                                    per_kind=resolved["corpus_per_kind"])
        return D.build_training_samples(images, n, count, seed, qps=resolved["qps"],
                                        availability_mode=availability, fill=fill)
    src = Path(source)
    if src.is_dir():
        index = src / "index.tsv"
        if not index.exists():
            raise ConfigError(f"{src} has no index.tsv (not a prepared archive)")
        pairs = [line.split("\t")[:2] for line in index.read_text().splitlines() if line]
        if not pairs:
            raise UsageError("prepared archive produced no samples")
        samples = D.SampleSet.empty(count, n, fill, D.is_three_block(availability))
        # the first count % len(pairs) pairs give one sample more, so the set
        # has exactly `count` samples
        per, extra = divmod(count, len(pairs))

        def source(i):
            clean_rel, deg_rel = pairs[i]
            return D.load_image(src / clean_rel), D.load_image(src / deg_rel), seed + i

        return D.fill_samples(samples, [per + (i < extra) for i in range(len(pairs))], source)
    images = [D.load_image(p) for p in D.read_manifest(src)]
    if not images:
        raise UsageError("no inputs in manifest")
    return D.build_training_samples(images, n, count, seed, qps=resolved["qps"],
                                    availability_mode=availability, fill=fill)


def cmd_train(resolved: dict) -> int:
    cfg = _train_config(resolved)
    net = build_network(_network_config(resolved), seed=resolved["seed"])
    samples = _load_samples(resolved)
    net, rows = train(net, samples, cfg)
    out = _out_dir(resolved)
    model_path = out / "model.psrnn"
    save_model(net, model_path)
    write_training_log(rows, out / "train_log.csv")
    write_resolved("train", resolved, out)
    # the saved network: the window's best checkpoint, else the last row's
    window = [r.val_loss for r in rows if r.iteration > cfg.selection_start()]
    print(f"trained {cfg.total_iters} iterations; best val loss "
          f"{min(window, default=rows[-1].val_loss)!r}; model -> {model_path}")
    return 0


def _eval_images(resolved: dict):
    """The eval images: a list of synthetic ones, or the manifest's, each
    decoded as it is reached, so eval holds one at a time."""
    if resolved["images"] == "synthetic":
        seed = resolved["seed"] + 1013  # held out from the training corpus
        size = resolved["eval_size"]
        images = []
        kinds = ("directional", "sinusoid", "rings")
        for i in range(resolved["eval_count"]):
            kind = kinds[i % len(kinds)]
            images.append(D.synthetic_corpus(size, seed + i, kinds=(kind,), per_kind=1)[0])
        return images
    paths = D.read_manifest(resolved["images"])
    if not paths:
        raise UsageError("no inputs in manifest")
    return (D.load_image(p) for p in paths)


def _eval_config(resolved: dict) -> EvalConfig:
    return EvalConfig(block_sizes=resolved["sizes"], policy=resolved["block_policy"],
                      oracle=resolved["oracle"], ref_smoothing=resolved["ref_smoothing"])


def cmd_eval(resolved: dict) -> int:
    nets = None
    if resolved["models"]:
        nets = {}
        for path in resolved["models"]:
            net = load_model(path)
            if net.config.pu_size in nets:
                raise ConfigError(f"more than one model for block size {net.config.pu_size}")
            nets[net.config.pu_size] = net
    elif not resolved["oracle"]:
        print("no models given: baseline-only evaluation", file=sys.stderr)
    cfg = _eval_config(resolved)
    report = evaluate(nets, _eval_images(resolved), resolved["qp"], cfg)
    if not report.records:
        # the size that needs the smallest image: the greedy quad-tree's root,
        # or fixed tiling's smallest size
        n = max(cfg.block_sizes) if cfg.policy == "greedy" else min(cfg.block_sizes)
        raise UsageError(f"no block scored: block size {n} needs an image of at least "
                         f"{2 * n}x{2 * n} pixels")
    out = _out_dir(resolved)
    with open(out / "eval_blocks.csv", "w") as fh:
        for row in report.csv_rows():
            fh.write(row + "\n")
    with open(out / "eval_summary.json", "w") as fh:
        json.dump(report.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_resolved("eval", resolved, out)
    print(f"blocks: {report.summary['blocks']}")
    print(f"mean cost reduction: {report.summary['mean_cost_reduction_pct']:.3f}%")
    print(f"network selection rate: {report.summary['selection_rate_pct']:.3f}%")
    return 0


def cmd_demo(resolved: dict) -> int:
    net = load_model(resolved["model"])
    kind = resolved["kind"]
    if kind not in D.TEXTURE_KINDS:
        raise UsageError(f"unknown texture kind {kind!r}; choose from {D.TEXTURE_KINDS}")
    out = _out_dir(resolved)
    n = net.config.pu_size
    qp = resolved["qp"]
    lam = hm_lambda(qp)
    for case in range(resolved["cases"]):
        seed = resolved["seed"] + case
        params = {}
        if kind == "directional":
            params = {"angle": 45.0 * case, "noise": 0.02}
        elif kind == "sinusoid":
            params = {"freq": 3.0 + 2.0 * case, "angle": 30.0 * case, "noise": 0.02}
        elif kind == "rings":
            params = {"period": 10.0 + 4.0 * case}
        elif kind == "flat":
            params = {"value": 0.2 + 0.15 * case}
        img = D.synth_texture(kind, max(8 * n, 64), seed=seed, **params)
        recon = D.degrade(img, D.DegradeConfig(qp=qp))
        origin = (2 * n, 2 * n)
        block = D.make_context(recon.pixels, img.pixels,
                               (origin[0] - n, origin[1] - n), n,
                               net.config.availability_mode, net.config.fill_value)
        # the calls eval runs, on a batch of one block
        pred_net, _ = forward_batch(net, block.context[None], need_cache=False)
        lines = reference_lines(recon.pixels, [origin], n)
        _, _, pred_base = best_modes(lines, block.target[None], n, lam)
        D.save_pgm(block.context, out / f"{kind}_{case}_context.pgm")
        D.save_pgm(pred_net[0].astype(np.float32), out / f"{kind}_{case}_psrnn.pgm")
        D.save_pgm(pred_base[0], out / f"{kind}_{case}_baseline.pgm")
        D.save_pgm(block.target, out / f"{kind}_{case}_truth.pgm")
    write_resolved("demo", resolved, out)
    print(f"wrote {resolved['cases']} prediction quads -> {out}")
    return 0


def cmd_compare_losses(resolved: dict) -> int:
    base = _train_defaults(resolved)
    seeds = comparison_seeds(resolved["seeds"])  # before the set is built
    result = compare_losses(_load_samples(base), _train_config(base), seeds,
                            _network_config(base))
    out = _out_dir(resolved)
    with open(out / "compare_losses.csv", "w") as fh:
        fh.write("seed,satd_val_satd,satd_val_mse,mse_val_satd,mse_val_mse,satd_gap\n")
        for row in result["rows"]:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k])
                              for k in ("seed", "satd_val_satd", "satd_val_mse",
                                        "mse_val_satd", "mse_val_mse", "satd_gap")) + "\n")
    write_resolved("compare-losses", resolved, out)
    print(f"median val SATD, satd-trained: {result['median_satd_trained']!r}")
    print(f"median val SATD, mse-trained:  {result['median_mse_trained']!r}")
    print(f"median gap (positive favors satd): {result['median_gap']!r}")
    return 0


def cmd_ablate_units(resolved: dict) -> int:
    base = _train_defaults(resolved)
    samples = _load_samples(base)
    cfg = _train_config(base)
    images = _eval_images({**resolved, "images": "synthetic",
                           "eval_size": resolved["corpus_size"], "eval_count": 3})
    rows = ablate_units(samples, resolved["counts"], cfg, images, qp=resolved["qp"])
    out = _out_dir(resolved)
    with open(out / "ablate_units.csv", "w") as fh:
        fh.write("units,final_val_loss,selection_rate_pct,cost_reduction_pct\n")
        for row in rows:
            fh.write(f"{row['units']},{row['final_val_loss']!r},"
                     f"{row['selection_rate_pct']!r},{row['cost_reduction_pct']!r}\n")
    write_resolved("ablate-units", resolved, out)
    for row in rows:
        print(f"units={row['units']} val_loss={row['final_val_loss']!r} "
              f"selection={row['selection_rate_pct']:.2f}% "
              f"reduction={row['cost_reduction_pct']:.2f}%")
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "demo": cmd_demo,
    "compare-losses": cmd_compare_losses,
    "ablate-units": cmd_ablate_units,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="psrnn",
        description="Recurrent intra prediction pipeline: data prep, training, "
                    "RDO-lite evaluation, ablations and demos.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", help="overrides the config output directory")
    parser.add_argument("--oracle", action="store_true",
                        help="eval only: use the ground-truth oracle predictor")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        overrides = {"seed": args.seed, "out": args.out, "oracle": args.oracle or None}
        resolved = resolve(args.command, raw, overrides)
        return COMMANDS[args.command](resolved)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config asking for more than can be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
