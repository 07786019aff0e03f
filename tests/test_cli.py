import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_config_text
from oracles import sample_contexts_loop, stack_blocks
from psrnn import cli
from psrnn import data as D
from psrnn import training as TR
from psrnn.model import NetworkConfig, build_network, forward_batch, load_model, save_model


def write_pgm(path, seed=0, size=64):
    gen = np.random.default_rng(seed)
    D.save_pgm(D.GrayImage(gen.random((size, size)).astype(np.float32)), path)


def run_cli(*argv):
    return cli.main(list(argv))


def hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


TRAIN_FAST = ["--set", "preproc_channels=4,4", "--set", "unit_hidden=4,2,2",
              "--set", "recon_channels=4", "--set", "samples=1500",
              "--set", "corpus_size=96", "--set", "corpus_per_kind=4"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    import time

    out = tmp_path_factory.mktemp("trained")
    t0 = time.perf_counter()
    code = run_cli("train", "--out", str(out), "--seed", "5",
                   "--set", "iters=100", "--set", "batch=16", *TRAIN_FAST)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0  # the 100-iteration synthetic smoke config is quick
    return out


class TestConfigHandling:
    def test_unknown_keys_listed(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_key=1\nother=2\n")
        assert run_cli("train", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err and "other" in err

    def test_bad_value(self, capsys):
        assert run_cli("train", "--set", "iters=soon") == 1
        assert "iters" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, key, value", [
        ("demo", "cases", "-2"), ("eval", "eval_count", "-1"), ("train", "samples", "0"),
        ("train", "batch", "0"), ("train", "corpus_size", "-4"),
        ("train", "corpus_per_kind", "0"), ("train", "iters", "-1"),
        ("train", "qps", ""), ("prepare", "qps", ""), ("ablate-units", "counts", ""),
        ("prepare", "qps", "22,-3"), ("train", "qps", "22,-3"), ("demo", "qp", "-3"),
        ("eval", "qp", "-1"), ("ablate-units", "qp", "-1"), ("ablate-units", "counts", "2,0")])
    def test_counts_checked(self, verb, key, value, tmp_path, capsys):
        # counts below 1 (iters below 0), empty qps and unit-count lists,
        # negative qps and unit counts below 1 stop the run before it writes
        # anything; an empty list used to make train divide by zero, prepare
        # write an empty index and ablate-units a header-only table, and a
        # negative qp was caught only after prepare had written images, demo
        # its --out directory and ablate-units had trained every network
        out = tmp_path / "out"
        assert run_cli(verb, "--out", str(out), "--set", f"{key}={value}") == 1
        err = capsys.readouterr().err
        assert f"bad value for {key}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (("eval", "--set", "eval_size=8"), "block size 8"),
        (("train", *TRAIN_FAST, "--set", "samples=1"), "validation set"),
        # 768 TB of three-block samples at N=8, past the 128 TiB a process
        # maps: the allocation fails before any page is touched, and before
        # the draws it sizes
        (("train", *TRAIN_FAST, "--set", "samples=1000000000000"),
         "samples=1000000000000 at N=8 asks for 768,000,000,000,000 bytes"),
        # ablate-units cuts its samples, here zero-byte windows, before the
        # network config rejects the block size
        (("ablate-units", "--set", "n=0", "--set", "samples=50", "--set", "corpus_size=32",
          "--set", "counts=1"), "pu_size must be one of")],
        ids=["eval-no-block", "train-no-validation", "train-unallocatable-set",
             "ablate-block-size-0"])
    def test_failed_run_makes_no_out_dir(self, argv, named, tmp_path, capsys):
        # inputs that fail only once the run has started used to leave an
        # empty --out directory behind
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_fill_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        # the verbs build the set and the network from one fill key, so only
        # a set built with another fill reaches train's check
        build = cli.D.build_training_samples
        monkeypatch.setattr(cli.D, "build_training_samples",
                            lambda *args, **kw: build(*args, **{**kw, "fill": 0.25}))
        out = tmp_path / "out"
        assert run_cli("train", "--out", str(out), *TRAIN_FAST, "--set", "iters=2") == 1
        err = capsys.readouterr().err
        assert "fill 0.25 != the network's fill_value 0.5" in err and "Traceback" not in err
        assert not out.exists()

    def test_availability_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        # as with the fill, only a set built with another availability than
        # the network's reaches train's check
        build = cli.D.build_training_samples
        monkeypatch.setattr(cli.D, "build_training_samples", lambda *args, **kw: build(
            *args, **{**kw, "availability_mode": cli.D.THREE_BLOCK}))
        out = tmp_path / "out"
        assert run_cli("train", "--out", str(out), *TRAIN_FAST, "--set", "iters=2",
                       "--set", "availability=four-block") == 1
        err = capsys.readouterr().err
        assert ("samples cut three-block != the network's availability_mode four-block" in err
                and "Traceback" not in err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("eval", "--set", "eval_size=300000"),
                                      ("train", "--set", "corpus_size=300000")],
                             ids=["eval", "train"])
    def test_unallocatable_image_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        # a 300000x300000 synthetic image used to end in numpy's
        # _ArrayMemoryError traceback; the failed allocation is simulated
        def no_memory(kind, size, **kwargs):
            raise MemoryError(f"Unable to allocate {16 * size * size:,} bytes")
        monkeypatch.setattr(cli.D, "synth_texture", no_memory)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: out of memory: Unable to allocate 1,440,000,000,000 bytes")
        assert not out.exists()

    @pytest.mark.parametrize("milestones", ["10,10", "12,20", "30", "-5,0", "0"],
                             ids=["repeated", "at-iters", "past-iters", "-5,0", "0"])
    def test_bad_milestones(self, milestones, tmp_path, capsys, monkeypatch):
        # the schedule is checked as the config is built, before any sample is cut
        def no_samples(*args, **kwargs):
            raise AssertionError("samples built before the milestones were checked")
        monkeypatch.setattr(cli.D, "build_training_samples", no_samples)
        assert run_cli("train", "--out", str(tmp_path / "t"), "--set", "iters=20",
                       "--set", "samples=200", "--set", f"milestones={milestones}") == 1
        err = capsys.readouterr().err
        assert "milestones" in err and "Traceback" not in err

    def test_defaults_are_the_config_dataclasses(self):
        train = cli.resolve("train", {}, {})
        assert cli._network_config(train) == NetworkConfig()
        assert cli._train_config(train) == TR.TrainConfig()
        assert cli._eval_config(cli.resolve("eval", {}, {})) == TR.EvalConfig()

    def test_zero_iters_accepted(self):
        assert cli.resolve("train", {"iters": "0"}, {})["iters"] == 0

    def test_missing_required(self, capsys):
        assert run_cli("prepare") == 1
        assert "manifest" in capsys.readouterr().err

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\niters=0\n")
        raw = cli.parse_config_file(cfg)
        assert raw == {"iters": "0"}

    def test_threads_flag_removed(self, capsys):
        # thread-count independence is tested on the model bytes instead
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--threads", "1")
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [("train", "--seed", "abc"), ("frobnicate",), ()])
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        assert "usage: psrnn" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["prepare", "demo"])
    def test_oracle_is_eval_only(self, verb, capsys):
        # a flag the verb has no key for is an error, not ignored
        assert run_cli(verb, "--oracle") == 1
        assert f"{verb} takes no oracle" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0


class TestPrepare:
    def test_empty_manifest(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("\n")
        assert run_cli("prepare", "--set", f"manifest={m}",
                       "--out", str(tmp_path / "out")) == 1
        assert "no inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--seed", "3"), ("--set", "seed=3")])
    def test_seed_rejected(self, tmp_path, capsys, argv):
        # prepare draws no random numbers, so it has no seed to set
        img = tmp_path / "img.pgm"
        write_pgm(img)
        m = tmp_path / "m.txt"
        m.write_text(f"{img}\n")
        assert run_cli("prepare", "--set", f"manifest={m}", *argv,
                       "--out", str(tmp_path / "out")) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_image_two_qps(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        write_pgm(img, size=64)
        m = tmp_path / "m.txt"
        m.write_text(f"{img}\n")
        out = tmp_path / "out"
        assert run_cli("prepare", "--set", f"manifest={m}", "--set", "qps=22,37",
                       "--set", "scales=false", "--out", str(out)) == 0
        files = sorted(p.name for p in (out / "images").iterdir())
        assert files == ["img_s0_clean.pgm", "img_s0_qp22.pgm", "img_s0_qp37.pgm"]
        index = (out / "index.tsv").read_text().strip().splitlines()
        assert len(index) == 2
        assert "qp 22: 1 images" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        img = tmp_path / "img.pgm"
        write_pgm(img, seed=3)
        m = tmp_path / "m.txt"
        m.write_text(f"{img}\n")
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run_cli("prepare", "--set", f"manifest={m}",
                           "--set", "scales=false", "--out", str(out)) == 0
            tree = hash_tree(out)
            # the resolved config legitimately embeds the output path itself
            tree.pop("prepare.config")
            outs.append(tree)
        assert outs[0] == outs[1]

    def test_missing_file_continues(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        write_pgm(img)
        m = tmp_path / "m.txt"
        m.write_text(f"{tmp_path/'gone.pgm'}\n{img}\n")
        out = tmp_path / "out"
        assert run_cli("prepare", "--set", f"manifest={m}",
                       "--set", "scales=false", "--out", str(out)) == 0
        assert "gone.pgm" in capsys.readouterr().err

    def test_all_files_missing_is_runtime_error(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text(f"{tmp_path/'a.pgm'}\n{tmp_path/'b.pgm'}\n")
        assert run_cli("prepare", "--set", f"manifest={m}",
                       "--out", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()  # it used to keep an empty images/


class TestTrain:
    def test_outputs_and_reload(self, trained):
        assert (trained / "model.psrnn").exists()
        log = (trained / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,lr,train_loss,val_loss"
        assert len(log) > 2
        net = load_model(trained / "model.psrnn")
        assert net.config.pu_size == 8
        resolved = (trained / "train.config").read_text()
        assert "iters=100" in resolved and "seed=5" in resolved

    def test_mse_loss_accepted(self, tmp_path):
        out = tmp_path / "mse"
        assert run_cli("train", "--out", str(out), "--set", "loss=mse",
                       "--set", "iters=5", "--set", "batch=8", *TRAIN_FAST) == 0

    def test_reproducible_outputs(self, tmp_path):
        hashes = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("train", "--out", str(out), "--seed", "9",
                           "--set", "iters=20", "--set", "batch=8", *TRAIN_FAST) == 0
            hashes.append((hashlib.sha256((out / "model.psrnn").read_bytes()).hexdigest(),
                           hashlib.sha256((out / "train_log.csv").read_bytes()).hexdigest()))
        assert hashes[0] == hashes[1]

    def test_printed_val_loss_is_the_saved_models(self, tmp_path, capsys):
        # row 0, the untrained network, has the lowest loss of the log here,
        # but the saved model is the best checkpoint of the selection window
        keys = {"iters": "10", "samples": "300", "corpus_size": "32", "corpus_per_kind": "2",
                "base_lr": "0.05", "preproc_channels": "2,2", "unit_hidden": "2,2,2",
                "recon_channels": "2"}
        out = tmp_path / "t"
        assert run_cli("train", "--seed", "0", "--out", str(out),
                       *[a for k, v in keys.items() for a in ("--set", f"{k}={v}")]) == 0
        printed = float(capsys.readouterr().out.split("best val loss ")[1].split(";")[0])
        resolved = cli.resolve("train", keys, {"seed": 0})
        samples, cfg = cli._load_samples(resolved), cli._train_config(resolved)
        val_idx, _ = TR._validation_split(len(samples), cfg)
        saved = TR.validation_metric(load_model(out / "model.psrnn"), *samples.take(val_idx),
                                     cfg.loss, cfg.satd)
        assert printed == saved

    def test_resolved_config_reproduces_run(self, tmp_path):
        out1 = tmp_path / "first"
        assert run_cli("train", "--out", str(out1), "--seed", "9",
                       "--set", "iters=20", "--set", "batch=8", *TRAIN_FAST) == 0
        out2 = tmp_path / "second"
        assert run_cli("train", "--config", str(out1 / "train.config"),
                       "--out", str(out2)) == 0
        assert (out1 / "model.psrnn").read_bytes() == (out2 / "model.psrnn").read_bytes()


class TestTrainFromFiles:
    # the two file-based sample sources: a prepared archive and a manifest
    FAST = ["--set", "preproc_channels=4,4", "--set", "unit_hidden=4,2,2",
            "--set", "recon_channels=4", "--set", "samples=300",
            "--set", "iters=3", "--set", "batch=8"]

    @pytest.fixture()
    def manifest(self, tmp_path):
        paths = []
        for seed in (1, 2):
            paths.append(tmp_path / f"img{seed}.pgm")
            write_pgm(paths[-1], seed=seed, size=64)
        m = tmp_path / "m.txt"
        m.write_text("".join(f"{p}\n" for p in paths))
        return m

    def train_twice(self, tmp_path, data):
        blobs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run_cli("train", "--out", str(out), "--set", f"data={data}",
                           *self.FAST) == 0
            load_model(out / "model.psrnn")
            blobs.append((out / "model.psrnn").read_bytes())
        assert blobs[0] == blobs[1]

    def test_prepared_archive(self, tmp_path, manifest):
        archive = tmp_path / "prepared"
        assert run_cli("prepare", "--set", f"manifest={manifest}", "--set", "scales=false",
                       "--out", str(archive)) == 0
        self.train_twice(tmp_path, archive)

    @pytest.mark.parametrize("count", [5, 300])
    def test_archive_samples_match_per_pair_oracle(self, tmp_path, manifest, count):
        # 8 prepared pairs: 5 samples take one from each of the first 5 pairs;
        # 300 take 38 from each of the first 4 pairs and 37 from the rest
        archive = tmp_path / "prepared"
        assert run_cli("prepare", "--set", f"manifest={manifest}", "--set", "scales=false",
                       "--out", str(archive)) == 0
        resolved = cli.resolve("train", {"data": str(archive), "samples": str(count),
                                         "fill": "0.8", "availability": "four-block"}, {})
        got = cli._load_samples(resolved)
        pairs = [line.split("\t")[:2] for line in (archive / "index.tsv").read_text().splitlines()]
        blocks = []
        for i, (clean, deg) in enumerate(pairs):
            per = count // len(pairs) + (i < count % len(pairs))
            if per:
                blocks += sample_contexts_loop(D.load_image(archive / clean),
                                               D.load_image(archive / deg), 8, per, seed=i,
                                               fill=0.8, availability_mode=D.FOUR_BLOCK)
        assert len(got) == len(blocks) == count
        want = stack_blocks(blocks, 8)
        contexts, targets = got.take(slice(None))
        assert contexts.tobytes() == want[0].tobytes()
        assert targets.tobytes() == want[1].tobytes()

    def test_archive_rejects_nonpositive_count(self, tmp_path, manifest, capsys):
        archive = tmp_path / "prepared"
        assert run_cli("prepare", "--set", f"manifest={manifest}", "--set", "scales=false",
                       "--out", str(archive)) == 0
        assert run_cli("train", "--out", str(tmp_path / "t"), "--set", f"data={archive}",
                       *self.FAST, "--set", "samples=0") == 1
        assert "bad value for samples" in capsys.readouterr().err

    def test_manifest(self, tmp_path, manifest):
        self.train_twice(tmp_path, manifest)

    def test_directory_without_index(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run_cli("train", "--out", str(tmp_path / "t"),
                       "--set", f"data={tmp_path / 'empty'}", *self.FAST) == 1
        assert "index.tsv" in capsys.readouterr().err


class TestEval:
    def test_oracle_full_selection(self, tmp_path):
        out = tmp_path / "oracle"
        assert run_cli("eval", "--oracle", "--out", str(out),
                       "--set", "eval_count=2", "--set", "eval_size=64") == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["selection_rate_pct"] == 100.0

    def test_baseline_only(self, tmp_path):
        out = tmp_path / "base"
        assert run_cli("eval", "--out", str(out),
                       "--set", "eval_count=2", "--set", "eval_size=64") == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["mean_cost_reduction_pct"] == 0.0
        assert summary["selection_rate_pct"] == 0.0

    def test_model_eval_and_csv_audit(self, trained, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--out", str(out),
                       "--set", f"models={trained/'model.psrnn'}",
                       "--set", "eval_count=2", "--set", "eval_size=64") == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        rows = (out / "eval_blocks.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        records = [dict(zip(header, r.split(","))) for r in rows[1:]]
        assert len(records) == summary["blocks"]
        base_total = sum(float(r["base_total"]) for r in records)
        winner_total = sum(
            float(r["net_total"]) if r["winner"] == "network" else float(r["base_total"])
            for r in records)
        want = 100.0 * (base_total - winner_total) / base_total
        assert summary["mean_cost_reduction_pct"] == pytest.approx(want, rel=1e-9)
        selected = sum(r["winner"] == "network" for r in records)
        assert summary["selection_rate_pct"] == pytest.approx(
            100.0 * selected / len(records), rel=1e-9)

    def test_composite_key_removed(self, trained, tmp_path, capsys):
        assert run_cli("eval", "--out", str(tmp_path / "plus"),
                       "--set", f"models={trained/'model.psrnn'}",
                       "--set", f"psrnn_plus_base={trained/'model.psrnn'}") == 1
        assert "psrnn_plus_base" in capsys.readouterr().err

    def test_corrupt_model_config_is_runtime_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.psrnn"
        bad.write_bytes((trained / "model.psrnn").read_bytes())
        rewrite_config_text(bad, b"fill_value=0.5\n", b"")
        assert run_cli("eval", "--out", str(tmp_path / "ev"),
                       "--set", f"models={bad}") == 2
        assert "corrupt model file" in capsys.readouterr().err

    def test_empty_sizes_rejected(self, tmp_path, capsys):
        # used to write an empty report ("blocks": 0) and exit 0
        assert run_cli("eval", "--oracle", "--out", str(tmp_path / "none"),
                       "--set", "sizes=") == 1
        assert "block sizes" in capsys.readouterr().err
        assert not (tmp_path / "none" / "eval_summary.json").exists()

    @pytest.mark.parametrize("policy, sizes, side, named", [
        ("fixed", "8", 8, 8), ("fixed", "16,8", 15, 8), ("greedy", "16,8", 24, 16)])
    def test_no_block_scored(self, tmp_path, capsys, policy, sizes, side, named):
        # images too small for any block used to give a 0-block report and exit 0
        assert run_cli("eval", "--out", str(tmp_path / "ev"), "--set", f"block_policy={policy}",
                       "--set", f"sizes={sizes}", "--set", f"eval_size={side}",
                       "--set", "eval_count=1") == 1
        assert f"block size {named} needs" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "eval_summary.json").exists()

    def test_empty_manifest(self, tmp_path, capsys):
        # used to write a 0-block report and exit 0, unlike prepare and train
        m = tmp_path / "m.txt"
        m.write_text("# no images\n\n")
        assert run_cli("eval", "--out", str(tmp_path / "ev"),
                       "--set", f"images={m}") == 1
        assert "no inputs" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "eval_summary.json").exists()

    def test_greedy_sizes_not_halving_rejected(self, tmp_path, capsys):
        assert run_cli("eval", "--oracle", "--out", str(tmp_path / "bad"),
                       "--set", "block_policy=greedy", "--set", "sizes=32,8") == 1
        assert "halve" in capsys.readouterr().err

    def test_two_models_for_one_size_rejected(self, trained, tmp_path, capsys):
        # keyed by block size, the second model used to replace the first unnoticed
        twin = tmp_path / "twin.psrnn"
        twin.write_bytes((trained / "model.psrnn").read_bytes())
        assert run_cli("eval", "--out", str(tmp_path / "ev"),
                       "--set", f"models={trained/'model.psrnn'},{twin}") == 1
        assert "block size 8" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "eval_blocks.csv").exists()

    def test_sizes_without_models_rejected(self, trained, tmp_path):
        assert run_cli("eval", "--out", str(tmp_path / "bad"),
                       "--set", f"models={trained/'model.psrnn'}",
                       "--set", "sizes=8,16") == 1


class TestDemo:
    def test_flat_quads_near_constant(self, trained, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("demo", "--out", str(out), "--set", "kind=flat",
                       "--set", "cases=2", "--set",
                       f"model={trained/'model.psrnn'}") == 0
        files = sorted(p.name for p in out.iterdir() if p.suffix == ".pgm")
        assert len(files) == 8  # 2 cases x 4 panels
        truth = D.load_image(out / "flat_0_truth.pgm")
        assert float(truth.pixels.std()) < 0.02

    def test_directional_quads_reload(self, trained, tmp_path):
        out = tmp_path / "demo2"
        assert run_cli("demo", "--out", str(out), "--set", "kind=directional",
                       "--set", "cases=1", "--set",
                       f"model={trained/'model.psrnn'}") == 0
        for panel in ("context", "psrnn", "baseline", "truth"):
            img = D.load_image(out / f"directional_0_{panel}.pgm")
            assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_unknown_kind_makes_no_out_dir(self, tmp_path, capsys):
        model = tmp_path / "m.psrnn"
        save_model(build_network(NetworkConfig(pu_size=4)), model)
        out = tmp_path / "demo"
        assert run_cli("demo", "--out", str(out), "--set", "kind=bogus",
                       "--set", f"model={model}") == 1
        assert "unknown texture kind 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model(self, tmp_path):
        assert run_cli("demo", "--out", str(tmp_path / "x"),
                       "--set", "model=/nonexistent.psrnn") in (1, 2)

    def test_prediction_matches_chunked_eval(self, tmp_path, monkeypatch):
        # demo predicts its block as a batch of one; eval of the same image
        # predicts it inside a chunk (the 49 N=16 tiles of a 128x128 image
        # run in four), with the same bits
        model = tmp_path / "n16.psrnn"
        save_model(build_network(NetworkConfig(pu_size=16, preproc_channels=(4, 4),
                                               unit_hidden=(4, 2, 2), recon_channels=(4,)),
                                 seed=3), model)
        calls = []

        def recording(net, contexts, need_cache=True):
            pred, cache = forward_batch(net, contexts, need_cache)
            calls.append((contexts, pred))
            return pred, cache

        monkeypatch.setattr(cli, "forward_batch", recording)
        monkeypatch.setattr(TR, "forward_batch", recording)
        assert run_cli("demo", "--out", str(tmp_path / "demo"), "--seed", "7",
                       "--set", "kind=directional", "--set", "cases=1",
                       "--set", f"model={model}") == 0
        [(demo_ctx, demo_pred)] = calls
        image = D.synth_texture("directional", 128, seed=7, angle=0.0, noise=0.02)
        TR.evaluate({16: load_model(model)}, [image], 32, TR.EvalConfig(block_sizes=(16,)))
        assert [len(c) for c, _ in calls[1:]] == [12, 12, 12, 13]
        # demo's block at (32, 32) is the ninth of the 7 x 7 tiles
        ctx, pred = calls[1][0][8], calls[1][1][8]
        assert np.array_equal(ctx, demo_ctx[0])
        assert pred.tobytes() == demo_pred[0].tobytes()


class TestExperimentverbs:
    def test_compare_losses_verb(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run_cli("compare-losses", "--out", str(out),
                       "--set", "iters=12", "--set", "samples=400",
                       "--set", "batch=8", "--set", "corpus_size=64",
                       "--set", "seeds=1,2,3") == 0
        rows = (out / "compare_losses.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert "median" in capsys.readouterr().out

    def test_compare_losses_repeated_seed(self, tmp_path, capsys):
        # seeds=1,1,1 used to exit 0 with medians taken over one seed's run
        out = tmp_path / "cmp"
        assert run_cli("compare-losses", "--out", str(out), "--set", "iters=1",
                       "--set", "samples=64", "--set", "corpus_size=32",
                       "--set", "seeds=2,1,3,1") == 1
        assert "repeated: 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds, named", [("1,1,2", "repeated: 1"), ("1,2", "at least 3")])
    def test_compare_losses_seeds_checked_before_samples(self, seeds, named, tmp_path, capsys,
                                                         monkeypatch):
        def no_samples(*args, **kwargs):
            raise AssertionError("samples built before the seeds were checked")
        monkeypatch.setattr(cli.D, "build_training_samples", no_samples)
        out = tmp_path / "cmp"
        assert run_cli("compare-losses", "--out", str(out), "--set", f"seeds={seeds}") == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_ablate_units_verb(self, tmp_path, capsys):
        out = tmp_path / "abl"
        assert run_cli("ablate-units", "--out", str(out),
                       "--set", "counts=1,2", "--set", "iters=10",
                       "--set", "samples=400", "--set", "batch=8",
                       "--set", "corpus_size=64") == 0
        rows = (out / "ablate_units.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert "units=1" in capsys.readouterr().out
