import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import rel_err
from psrnn import data as D
from psrnn import training as TR
from psrnn.errors import ConfigError, DivergenceError, UsageError
from oracles import fixed_baseline_loop, greedy_eval_batch1, satd_smooth
from psrnn.hadamard import SatdConfig, satd, satd_batch, satd_loss_grad_batch
from psrnn.model import NetworkConfig, build_network, forward_batch, parameters
from psrnn.tensor import HEAP_KEPT


def make_samples(n=8, count=600, seed=0, size=64):
    images = D.synthetic_corpus(size, seed=seed, per_kind=3)
    return D.build_training_samples(images, n, count, seed=seed,
                                    availability_mode=D.THREE_BLOCK)


def small_cfg(**kw):
    base = dict(total_iters=40, batch_size=8, seed=1, val_subset_cap=64,
                checkpoint_every=10)
    base.update(kw)
    return TR.TrainConfig(**base)


SMALL_NET = NetworkConfig(pu_size=8, preproc_channels=(4, 4), unit_hidden=(4, 2, 2),
                          recon_channels=(4,))


class TestLossAndGrad:
    # the one loss function: mean over a (b, n, n) stack, float64
    def test_zero_residue_both_kinds(self):
        x = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
        for kind in ("satd", "mse"):
            loss, grad = TR.loss_and_grad(x, x, kind)
            assert loss == 0.0
            assert not grad.any()

    def test_mse_value(self):
        pred = np.full((2, 4, 4), 0.5, dtype=np.float32)
        target = np.zeros((2, 4, 4), dtype=np.float32)
        loss, grad = TR.loss_and_grad(pred, target, "mse")
        assert loss == pytest.approx(0.25)
        np.testing.assert_allclose(grad, 2 * 0.5 / 16 / 2, rtol=1e-6)
        assert TR.loss_and_grad(pred, target, "mse", need_grad=False) == (loss, None)

    def test_satd_delegates_exactly(self):
        gen = np.random.default_rng(5)
        pred = gen.random((3, 8, 8))
        target = gen.random((3, 8, 8)).astype(np.float32)
        cfg = SatdConfig()
        loss, grad = TR.loss_and_grad(pred, target, "satd", cfg)
        d = pred - target.astype(np.float64)
        assert loss == float(satd_batch(d, cfg).mean())
        assert loss == float(np.mean([satd(d[i], cfg) for i in range(3)]))
        np.testing.assert_array_equal(grad, satd_loss_grad_batch(d, cfg) / 3)
        assert TR.loss_and_grad(pred, target, "satd", cfg, need_grad=False) == (loss, None)

    @pytest.mark.parametrize("kind", ["satd", "mse"])
    def test_finite_differences(self, kind):
        # the satd gradient is the exact gradient of the eps-smoothed
        # objective, so that surrogate is what the reference differentiates
        gen = np.random.default_rng(7)
        cfg = SatdConfig()

        def f(pred, target):
            if kind == "satd":
                return float(np.mean([satd_smooth(p - t, cfg) for p, t in zip(pred, target)]))
            return TR.loss_and_grad(pred, target, kind, cfg, need_grad=False)[0]

        for _ in range(10):
            pred = gen.random((2, 8, 8))
            target = gen.random((2, 8, 8))
            _, grad = TR.loss_and_grad(pred, target, kind, cfg)
            ref = np.zeros(pred.shape)
            h = 1e-5
            for idx in np.ndindex(*pred.shape):
                pp = pred.copy(); pp[idx] += h
                pm = pred.copy(); pm[idx] -= h
                ref[idx] = (f(pp, target) - f(pm, target)) / (2 * h)
            assert rel_err(grad, ref) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            TR.loss_and_grad(np.zeros((1, 4, 4)), np.zeros((1, 8, 8)), "mse")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            TR.loss_and_grad(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), "huber")


class TestTrain:
    def test_zero_iterations_returns_unchanged(self):
        samples = make_samples(count=200)
        net = build_network(SMALL_NET, seed=2)
        before = {k: v.copy() for k, v in parameters(net).items()}
        net, rows = TR.train(net, samples, small_cfg(total_iters=0))
        for k, v in parameters(net).items():
            np.testing.assert_array_equal(v, before[k])
        assert len(rows) == 1 and rows[0].iteration == 0

    def test_empty_stream_rejected(self):
        net = build_network(SMALL_NET, seed=2)
        with pytest.raises(UsageError):
            TR.train(net, [], small_cfg())
        img = D.synth_texture("flat", 32)
        with pytest.raises(UsageError):
            TR.train(net, D.sample_contexts(img, img, 8, 0, D.THREE_BLOCK), small_cfg())

    def test_sample_size_mismatch(self):
        # N=16 contexts are 32x32; the N=8 network reads 16x16
        net = build_network(SMALL_NET, seed=2)
        with pytest.raises(ConfigError, match="samples sized 32"):
            TR.train(net, make_samples(n=16, count=100), small_cfg())

    def test_determinism_bitwise(self):
        samples = make_samples(count=300)
        logs = []
        weights = []
        for _ in range(2):
            net = build_network(SMALL_NET, seed=3)
            net, rows = TR.train(net, samples, small_cfg(seed=11))
            logs.append([r.csv() for r in rows])
            weights.append({k: v.tobytes() for k, v in parameters(net).items()})
        assert logs[0] == logs[1]
        assert weights[0] == weights[1]

    @pytest.mark.slow
    def test_model_bytes_independent_of_blas_threads(self, tmp_path):
        # same lean training run under one and two BLAS threads, each in a
        # fresh interpreter so the thread count is read at numpy import
        script = (
            "import sys\n"
            "from psrnn import data as D, model as M, training as TR\n"
            "images = D.synthetic_corpus(64, seed=3, per_kind=3)\n"
            "samples = D.build_training_samples(images, 8, 600, seed=3,\n"
            "                                   availability_mode=D.THREE_BLOCK)\n"
            "lean = M.NetworkConfig(pu_size=8, preproc_channels=(4, 4),\n"
            "                       unit_hidden=(4, 2, 2), recon_channels=(4,))\n"
            "cfg = TR.TrainConfig(total_iters=40, batch_size=16, seed=3,\n"
            "                     val_subset_cap=64, checkpoint_every=10)\n"
            "net, _ = TR.train(M.build_network(lean, seed=3), samples, cfg)\n"
            "M.save_model(net, sys.argv[1])\n"
        )
        src = str(Path(TR.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            path = tmp_path / f"t{threads}.psrnn"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                           check=True, timeout=300)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_reported_with_iteration(self):
        samples = make_samples(count=200)
        bad = TR.as_sample_set(samples)
        bad.targets[0:: 2] = np.nan
        net = build_network(SMALL_NET, seed=2)
        with pytest.raises(DivergenceError) as exc:
            TR.train(net, bad, small_cfg())
        assert exc.value.iteration >= 0

    def test_selected_checkpoint_beats_final(self):
        samples = make_samples(count=400)
        net = build_network(SMALL_NET, seed=4)
        net, rows = TR.train(net, samples, small_cfg(total_iters=60, seed=5))
        window_start = 60 - int(round(60 * 0.2))
        window = [r.val_loss for r in rows if r.iteration > window_start]
        final_val = rows[-1].val_loss
        cap = TR.TrainConfig(total_iters=60).val_subset_cap
        best = TR.validation_metric(
            net, *_val_arrays(samples, 5, cap), "satd", SatdConfig())
        assert best == pytest.approx(min(window), rel=1e-9)
        assert best <= final_val + 1e-9

    @pytest.mark.slow
    def test_constant_images_learn_the_constant(self):
        images = [D.synth_texture("flat", 64, value=v) for v in (0.25, 0.5, 0.75)]
        samples = D.build_training_samples(images, 8, 1200, seed=0,
                                           availability_mode=D.THREE_BLOCK)
        net = build_network(NetworkConfig(pu_size=8), seed=6)
        cfg = TR.TrainConfig(total_iters=500, batch_size=32, seed=6,
                             val_subset_cap=96, checkpoint_every=25)
        net, rows = TR.train(net, samples, cfg)
        # windowed validation trend is monotone downward
        vals = [r.val_loss for r in rows[1:]]
        thirds = np.array_split(np.array(vals), 3)
        means = [t.mean() for t in thirds]
        assert means[0] > means[1] > means[2]
        sset = TR.as_sample_set(samples)
        preds, _ = forward_batch(net, sset.contexts[0:160:8], need_cache=False)
        err = float(np.max(np.abs(preds - sset.targets[0:160:8])))
        assert err < 0.05


def _val_arrays(samples, seed, cap):
    from psrnn.rng import stream

    sset = TR.as_sample_set(samples)
    split = stream(seed, "split").permutation(len(sset))
    n_val = max(1, int(round(len(sset) * 0.1)))
    idx = split[:n_val][:cap]
    return sset.contexts[idx], sset.targets[idx]


class TestEvaluate:
    def _images(self, count=2, size=64):
        return [D.synth_texture("directional", size, seed=i, angle=30.0 * i, noise=0.02)
                for i in range(count)]

    def test_oracle_full_selection(self):
        report = TR.evaluate(None, self._images(), 32,
                             TR.EvalConfig(block_sizes=(8,), oracle=True))
        assert report.summary["selection_rate_pct"] == 100.0
        for r in report.records:
            assert r.net.satd == 0.0
            assert r.winner == "network"

    def test_baseline_only_zero_reduction(self):
        report = TR.evaluate(None, self._images(), 32, TR.EvalConfig(block_sizes=(8,)))
        assert report.summary["selection_rate_pct"] == 0.0
        assert report.summary["mean_cost_reduction_pct"] == 0.0
        assert all(r.net is None for r in report.records)

    def test_untrained_network_barely_selected(self):
        net = build_network(SMALL_NET, seed=9)
        report = TR.evaluate({8: net}, self._images(), 32,
                             TR.EvalConfig(block_sizes=(8,)))
        assert report.summary["selection_rate_pct"] < 15.0

    def test_double_entry_audit(self):
        net = build_network(SMALL_NET, seed=9)
        report = TR.evaluate({8: net}, self._images(), 32,
                             TR.EvalConfig(block_sizes=(8,)))
        for r in report.records:
            want = min(r.base.total, r.net.total)
            assert r.winner_total == want
            if r.net.total < r.base.total:
                assert r.winner == "network"
            else:
                assert r.winner == "baseline"

    def test_determinism(self):
        net = build_network(SMALL_NET, seed=9)
        cfg = TR.EvalConfig(block_sizes=(8,))
        r1 = TR.evaluate({8: net}, self._images(), 32, cfg)
        r2 = TR.evaluate({8: net}, self._images(), 32, cfg)
        assert list(r1.csv_rows()) == list(r2.csv_rows())
        assert r1.summary == r2.summary

    @pytest.mark.skipif(not HEAP_KEPT, reason="libc took no mallopt thresholds")
    def test_eval_does_not_refault_its_heap(self):
        # freed slabs and activations stay in the heap for the next chunk
        # (see psrnn.tensor); with glibc's dynamic trim each fixed N=8 eval
        # of a 128x128 image took about 11,800 minor faults
        import resource  # where HEAP_KEPT holds, this is a POSIX system
        net = build_network(NetworkConfig(pu_size=8), seed=9)
        img, cfg = self._images(count=1, size=128), TR.EvalConfig(block_sizes=(8,))
        TR.evaluate({8: net}, img, 32, cfg)
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            TR.evaluate({8: net}, img, 32, cfg)
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_missing_model_rejected(self):
        net = build_network(SMALL_NET, seed=9)
        with pytest.raises(ConfigError):
            TR.evaluate({8: net}, self._images(), 32, TR.EvalConfig(block_sizes=(8, 16)))

    def test_greedy_policy_covers_image(self):
        nets = {8: build_network(SMALL_NET, seed=9),
                16: build_network(NetworkConfig(pu_size=16, preproc_channels=(4, 4),
                                                unit_hidden=(4, 2, 2),
                                                recon_channels=(4,)), seed=9)}
        img = self._images(count=1, size=96)
        report = TR.evaluate(nets, img, 32,
                             TR.EvalConfig(block_sizes=(8, 16), policy="greedy"))
        area = sum(r.n * r.n for r in report.records)
        h, w = img[0].pixels.shape
        tiles = [(y, x) for y in range(16, h - 16 + 1, 16)
                 for x in range(16, w - 16 + 1, 16)]
        assert area == len(tiles) * 16 * 16
        assert {r.n for r in report.records} <= {8, 16}

    def test_greedy_needs_two_sizes(self):
        with pytest.raises(ConfigError):
            TR.evaluate(None, self._images(), 32,
                        TR.EvalConfig(block_sizes=(8,), policy="greedy", oracle=True))

    @pytest.mark.parametrize("policy", ["fixed", "greedy"])
    def test_empty_sizes_rejected(self, policy):
        # fixed tiling with no sizes used to write an empty report
        with pytest.raises(ConfigError):
            TR.EvalConfig(block_sizes=(), policy=policy)

    @pytest.mark.parametrize("sizes", [(32, 8), (16, 4), (32, 16, 4), (8, 32)])
    def test_greedy_sizes_must_halve(self, sizes):
        # a gap in the chain used to stop the descent early: (32, 8) scored 32x32 only
        with pytest.raises(ConfigError, match="halve"):
            TR.EvalConfig(block_sizes=sizes, policy="greedy")
        TR.EvalConfig(block_sizes=sizes)  # fixed tiling takes any set

    @pytest.mark.parametrize("policy, sizes", [("fixed", (8, 8)), ("fixed", (16, 8, 16)),
                                               ("greedy", (16, 8, 8))])
    def test_repeated_sizes_rejected(self, policy, sizes):
        # fixed sizes=8,8 used to score every tile twice and double-count the summary
        with pytest.raises(ConfigError, match="repeat"):
            TR.EvalConfig(block_sizes=sizes, policy=policy)

    @pytest.mark.parametrize("sizes", [(16, 8), (32, 16, 8)])
    def test_greedy_matches_batch1_reference(self, sizes):
        nets = {n: build_network(replace(SMALL_NET, pu_size=n), seed=9) for n in sizes}
        images = D.synthetic_corpus(96, 3, kinds=("sinusoid", "directional"), per_kind=1)
        cfg = TR.EvalConfig(block_sizes=sizes, policy="greedy")
        report = TR.evaluate(nets, images, 32, cfg)
        want = greedy_eval_batch1(nets, images, 32, cfg)
        assert {r.n for r in report.records} == set(sizes)
        # a block's prediction has the same bits in a chunk as in a batch of one
        assert report.records == want
        again = TR.evaluate(nets, images, 32, cfg)
        assert list(again.csv_rows()) == list(report.csv_rows())

    @pytest.mark.parametrize("policy, sizes", [("fixed", (8,)), ("greedy", (16, 8))])
    def test_image_without_tiles_scores_no_blocks(self, policy, sizes):
        # a 40x12 image has no tile with an n margin at these sizes; it used to
        # abort the eval of every other image once a model was loaded
        small = D.GrayImage(np.random.default_rng(4).random((12, 40)).astype(np.float32))
        big = self._images(count=1)[0]
        cfg = TR.EvalConfig(block_sizes=sizes, policy=policy)
        nets = {n: build_network(replace(SMALL_NET, pu_size=n), seed=9) for n in sizes}
        for models in (nets, None):
            mixed = TR.evaluate(models, [small, big, small], 32, cfg)
            alone = TR.evaluate(models, [big], 32, cfg)
            assert list(mixed.csv_rows()) == list(alone.csv_rows())
            assert json.dumps(mixed.summary) == json.dumps(alone.summary)  # NaN-safe
            assert TR.evaluate(models, [small], 32, cfg).summary["blocks"] == 0

    @pytest.mark.parametrize("policy, sizes", [("fixed", (8,)), ("greedy", (16, 8))])
    def test_ref_smoothing_matches_per_block_oracle(self, policy, sizes):
        images = self._images(count=2, size=48) + [self._images(count=1)[0]]
        cfg = TR.EvalConfig(block_sizes=sizes, policy=policy, ref_smoothing=True)
        report = TR.evaluate(None, images, 32, cfg)
        if policy == "fixed":
            want = fixed_baseline_loop(images, 32, cfg)
        else:
            want = greedy_eval_batch1({}, images, 32, cfg)
        key = lambda r: (r.origin, r.n, r.base.mode, r.base.satd, r.base_mse, r.winner)
        assert [key(r) for r in report.records] == [key(r) for r in want]
        plain = TR.evaluate(None, images, 32, replace(cfg, ref_smoothing=False))
        assert [r.base for r in plain.records] != [r.base for r in report.records]

    @staticmethod
    def _second_eval_peak(sizes: tuple[int, ...], policy: str) -> int:
        """tracemalloc peak of a second eval of one 128x128 image, default widths."""
        nets = {n: build_network(NetworkConfig(pu_size=n), seed=1) for n in sizes}
        image = D.synthetic_corpus(128, 1013, kinds=("directional",), per_kind=1)
        cfg = TR.EvalConfig(block_sizes=sizes, policy=policy)
        TR.evaluate(nets, image, 32, cfg)
        tracemalloc.start()
        try:
            TR.evaluate(nets, image, 32, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_greedy_eval_memory_is_bounded(self):
        # one image's level runs in chunks of at most 16 blocks at N=16 and
        # 64 at N=8: about 8 MiB at 16/8 on a 128x128 image, where one pass
        # per whole level takes over 100 MiB
        assert self._second_eval_peak((16, 8), "greedy") < 12 * 2**20

    def test_fixed_eval_memory_is_bounded(self):
        # the 225 tiles of a 128x128 image run as four N=8 network chunks of
        # 56-57; their convs gather their patch matrices and their sweeps
        # project their inputs in slabs of under 2 MiB (6.5 MiB peak; 19.7
        # MiB with all 225 in one chunk, 87 MiB with that chunk's whole 63
        # MiB first-unit fusion patch matrix)
        assert self._second_eval_peak((8,), "fixed") < 10 * 2**20

    def test_fixed_eval_network_chunks_are_bounded(self, monkeypatch):
        # an N=32 inference pass at default widths holds about 14 MiB for one
        # context and about 1.8 MiB for each further one (41 MiB for 16), so
        # fixed tiling runs at most 16 contexts per call there, in chunks
        # balanced to within one context
        sizes = []

        def recording(net, contexts, need_cache=True):
            sizes.append(len(contexts))
            return forward_batch(net, contexts, need_cache)

        monkeypatch.setattr(TR, "forward_batch", recording)
        narrow = NetworkConfig(pu_size=32, preproc_channels=(2, 2), unit_hidden=(2, 2),
                               recon_channels=(2,))
        image = D.synthetic_corpus(192, 5, kinds=("directional",), per_kind=1)
        report = TR.evaluate({32: build_network(narrow, seed=1)}, image, 32,
                             TR.EvalConfig(block_sizes=(32,)))
        assert report.summary["blocks"] == 25 and sizes == [12, 13]


class TestExperiments:
    def test_compare_losses_needs_three_seeds(self):
        with pytest.raises(UsageError):
            TR.compare_losses(make_samples(count=120), small_cfg(), [1, 2])

    def test_compare_losses_control_gap_zero(self):
        samples = make_samples(count=300)
        out = TR.compare_losses(samples, small_cfg(total_iters=20), [1, 2, 3],
                                kinds=("satd", "satd"))
        assert out["median_gap"] == 0.0
        for row in out["rows"]:
            assert row["satd_val_satd"] == row["mse_val_satd"]

    def test_compare_losses_rows_reproducible(self):
        samples = make_samples(count=300)
        a = TR.compare_losses(samples, small_cfg(total_iters=20), [4, 5, 6])
        b = TR.compare_losses(samples, small_cfg(total_iters=20), [4, 5, 6])
        assert a == b

    def test_ablate_rejects_zero_units(self):
        with pytest.raises(UsageError):
            TR.ablate_units(make_samples(count=120), [0], small_cfg(), [])

    def test_ablate_emits_row_per_count(self):
        samples = make_samples(count=300)
        images = [D.synth_texture("directional", 64, angle=20.0)]
        rows = TR.ablate_units(samples, [1, 2], small_cfg(total_iters=15), images)
        assert [r["units"] for r in rows] == [1, 2]
        for r in rows:
            assert np.isfinite(r["final_val_loss"])

