#!/usr/bin/env python3
"""SHA-256 digests of the outputs that must stay byte-identical.

Prints one `<name> <sha256>` line for each of:

- the model file and the training log of the determinism-test config
  (lean N=8 network, 60 iterations, batch 16, seed 31);
- the contexts and targets of the `train-n8` sample set (50,000 N=8
  three-block samples from 24 synthetic 128x128 images);
- the model file and the training log of the reference `train-n8` config
  (default N=8 network, that sample set, 50 iterations, batch 32);
- the eval reports (CSV rows and summary) of untrained default-width
  networks on six seeded 128x128 synthetic images at qp 32: fixed N=8,
  greedy 16/8, greedy 32/16/8, fixed N=8 with [1 2 1] reference
  smoothing, and fixed N=16 and N=32 (whose inference convs gather their
  patch matrices in several slabs);
- the output directories of five CLI verbs, files and written `.config`
  included: `psrnn demo` of an untrained N=8 network built from the seed
  (kind=directional, cases=2); the tiny `compare-losses` and
  `ablate-units` runs of tests/test_cli.py (config seed 0); a tiny
  `psrnn train` (lean widths, 6 iterations, 300 samples, the seed) and a
  `psrnn eval` of its model on three 64x64 synthetic images. Every verb
  writes to a relative `--out`, so the `.config` text, defaults included,
  is pinned byte for byte.

Run it on two checkouts and diff the output to check that a change keeps
model files, training logs and eval reports byte for byte:

    PYTHONPATH=src python scripts/output_digests.py --seed 1

The checkout's own src/ is searched after PYTHONPATH, so pointing PYTHONPATH
at another checkout's src/ digests that checkout's library with this script.

The digests depend on the OpenBLAS kernel set, not only on the code: a
DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU at run time, and other
kernels give other low-order bits. The lines CHANGES.md records were made
with the SkylakeX (AVX-512) kernels, so compare two checkouts on one
machine, or under one forced OPENBLAS_CORETYPE.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from psrnn import cli
from psrnn import data as D
from psrnn import model as M
from psrnn import training as TR


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_digests(net, samples, cfg, workdir: Path) -> tuple[str, str]:
    net, rows = TR.train(net, samples, cfg)
    M.save_model(net, workdir / "model.psrnn")
    TR.write_training_log(rows, workdir / "train_log.csv")
    return (_sha((workdir / "model.psrnn").read_bytes()),
            _sha((workdir / "train_log.csv").read_bytes()))


def determinism_config(workdir: Path) -> tuple[str, str]:
    images = D.synthetic_corpus(96, seed=31, per_kind=4)
    samples = TR.as_sample_set(D.build_training_samples(images, 8, 2000, seed=31,
                                                        availability_mode=D.THREE_BLOCK))
    lean = M.NetworkConfig(pu_size=8, preproc_channels=(4, 4), unit_hidden=(4, 2, 2),
                           recon_channels=(4,))
    cfg = TR.TrainConfig(total_iters=60, batch_size=16, seed=31, val_subset_cap=128,
                         checkpoint_every=10)
    return train_digests(M.build_network(lean, seed=31), samples, cfg, workdir)


def train_n8_samples(seed: int):
    images = D.synthetic_corpus(128, seed, kinds=("directional", "sinusoid"), per_kind=12)
    return TR.as_sample_set(D.build_training_samples(images, 8, 50_000, seed,
                                                     availability_mode=D.THREE_BLOCK))


def samples_digest(samples) -> str:
    """The contexts, then the targets, as the network and the loss read them."""
    h = hashlib.sha256()
    for arr in samples.take(slice(None)):
        h.update(arr)
    return h.hexdigest()


def train_n8_config(seed: int, samples, workdir: Path) -> tuple[str, str]:
    net = M.build_network(M.NetworkConfig(pu_size=8, availability_mode=D.THREE_BLOCK),
                          seed=seed)
    cfg = TR.TrainConfig(loss="satd", total_iters=50, batch_size=32, seed=seed,
                         checkpoint_every=50, val_subset_cap=512,
                         availability_mode=D.THREE_BLOCK)
    return train_digests(net, samples, cfg, workdir)


def eval_digest(seed: int, sizes: tuple[int, ...], policy: str,
                ref_smoothing: bool = False) -> str:
    kinds = ("directional", "sinusoid", "rings")
    images = [D.synthetic_corpus(128, seed * 1000 + 1013 + i, kinds=(kinds[i % 3],),
                                 per_kind=1)[0] for i in range(6)]
    nets = {n: M.build_network(M.NetworkConfig(pu_size=n), seed=seed) for n in sizes}
    report = TR.evaluate(nets, images, 32, TR.EvalConfig(block_sizes=sizes, policy=policy,
                                                         ref_smoothing=ref_smoothing))
    text = "\n".join(report.csv_rows()) + "\n" + json.dumps(report.summary, sort_keys=True)
    return _sha(text.encode())


def verb_digest(workdir: Path, verb: str, *args: str) -> str:
    """Run a CLI verb with --out out/ inside workdir (made if missing); digest
    every file it wrote.

    Paths in the written config are relative to workdir, so the digest does
    not depend on where the temporary directory lies.
    """
    workdir.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([verb, "--out", "out", *args])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise SystemExit(f"psrnn {verb} failed")
    h = hashlib.sha256()
    for path in sorted((workdir / "out").iterdir()):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def demo_digest(seed: int, workdir: Path) -> str:
    M.save_model(M.build_network(M.NetworkConfig(pu_size=8), seed=seed),
                 workdir / "model.psrnn")
    return verb_digest(workdir, "demo", "--seed", str(seed), "--set", "model=model.psrnn",
                       "--set", "kind=directional", "--set", "cases=2")


def train_eval_digests(seed: int, workdir: Path) -> tuple[str, str]:
    """`psrnn train` of a lean N=8 network, then `psrnn eval` of the model it saved."""
    train = verb_digest(workdir / "train", "train", "--seed", str(seed),
                        "--set", "iters=6", "--set", "samples=300", "--set", "batch=8",
                        "--set", "corpus_size=32", "--set", "corpus_per_kind=2",
                        "--set", "preproc_channels=2,2", "--set", "unit_hidden=2,2,2",
                        "--set", "recon_channels=2")
    evaluation = verb_digest(workdir / "eval", "eval", "--seed", str(seed),
                             "--set", "models=../train/out/model.psrnn",
                             "--set", "eval_size=64", "--set", "eval_count=3")
    return train, evaluation


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the train-n8 run and the eval networks and images")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        model, log = determinism_config(workdir)
        print(f"determinism.model {model}")
        print(f"determinism.train_log {log}")
        samples = train_n8_samples(args.seed)
        print(f"train-n8.samples {samples_digest(samples)}")
        model, log = train_n8_config(args.seed, samples, workdir)
        print(f"train-n8.model {model}")
        print(f"train-n8.train_log {log}")
    print(f"eval-fixed-n8.report {eval_digest(args.seed, (8,), 'fixed')}")
    print(f"eval-greedy-16-8.report {eval_digest(args.seed, (16, 8), 'greedy')}")
    print(f"eval-greedy-32-16-8.report {eval_digest(args.seed, (32, 16, 8), 'greedy')}")
    print(f"eval-fixed-n8-smoothing.report {eval_digest(args.seed, (8,), 'fixed', True)}")
    print(f"eval-fixed-n16.report {eval_digest(args.seed, (16,), 'fixed')}")
    print(f"eval-fixed-n32.report {eval_digest(args.seed, (32,), 'fixed')}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"demo.out {demo_digest(args.seed, Path(tmp))}")
    with tempfile.TemporaryDirectory() as tmp:
        print("compare-losses.out " + verb_digest(
            Path(tmp), "compare-losses", "--set", "iters=12", "--set", "samples=400",
            "--set", "batch=8", "--set", "corpus_size=64", "--set", "seeds=1,2,3"))
    with tempfile.TemporaryDirectory() as tmp:
        print("ablate-units.out " + verb_digest(
            Path(tmp), "ablate-units", "--set", "counts=1,2", "--set", "iters=10",
            "--set", "samples=400", "--set", "batch=8", "--set", "corpus_size=64"))
    with tempfile.TemporaryDirectory() as tmp:
        train, evaluation = train_eval_digests(args.seed, Path(tmp))
        print(f"train.out {train}")
        print(f"eval.out {evaluation}")


if __name__ == "__main__":
    main()
