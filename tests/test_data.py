import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (build_training_samples_loop, context_loop, sample_contexts_loop,
                     stack_blocks)
from psrnn import cli
from psrnn import data as D
from psrnn.errors import FormatError, ShapeError, SizeError, UsageError
from psrnn.tensor import SLAB_BYTES


class TestPgm:
    def test_p5_normalization(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = D.load_image(p)
        np.testing.assert_allclose(
            img.pixels, [[0.0, 1.0], [128 / 255, 64 / 255]], rtol=1e-6)

    def test_p2_equals_p5(self, tmp_path):
        p2 = tmp_path / "a.pgm"
        p2.write_text("P2\n# comment\n2 2\n255\n0 255\n128 64\n")
        p5 = tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        np.testing.assert_array_equal(D.load_image(p2).pixels, D.load_image(p5).pixels)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes([0, 1, 2]))
        with pytest.raises(FormatError):
            D.load_image(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4")
        with pytest.raises(FormatError):
            D.load_image(p)

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            D.load_image(p)

    @pytest.mark.parametrize("magic, payload", [(b"P5", [0, 200]), (b"P6", [0, 0, 0, 9, 200, 9])],
                             ids=["P5", "P6"])
    def test_binary_sample_above_maxval(self, tmp_path, magic, payload):
        # the same samples in a P2/P3 file are rejected as well
        p = tmp_path / "a.pnm"
        p.write_bytes(magic + b"\n2 1\n100\n" + bytes(payload))
        with pytest.raises(FormatError, match="outside"):
            D.load_image(p)

    def test_ppm_bt601_luma(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = D.load_image(p)
        assert img.pixels[0, 0] == pytest.approx(0.299, abs=1e-6)

    def test_raw_plane_with_sidecar(self, tmp_path):
        p = tmp_path / "a.y"
        p.write_bytes(bytes([10, 20, 30, 40, 50, 60]))
        (tmp_path / "a.y.txt").write_text("3 2\n")
        img = D.load_image(p)
        assert img.pixels.shape == (2, 3)
        assert img.pixels[1, 2] == pytest.approx(60 / 255)

    def test_raw_plane_missing_sidecar(self, tmp_path):
        p = tmp_path / "a.y"
        p.write_bytes(b"\x00" * 4)
        with pytest.raises(FormatError):
            D.load_image(p)

    @pytest.mark.parametrize("sidecar", ["-1 4", "0 5", "6 -1"])
    def test_raw_plane_sizes_below_one(self, tmp_path, sidecar):
        # a negative size used to reshape to a wrong image, a zero one to an empty one
        p = tmp_path / "a.y"
        p.write_bytes(bytes(range(36)))
        (tmp_path / "a.y.txt").write_text(sidecar + "\n")
        with pytest.raises(FormatError, match="bad dimensions"):
            D.load_image(p)

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "a.png"
        p.write_bytes(b"\x89PNG....")
        with pytest.raises(FormatError):
            D.load_image(p)

    def test_save_load_round_trip(self, tmp_path):
        gen = np.random.default_rng(0)
        img = D.GrayImage((gen.integers(0, 256, (9, 7)) / 255.0).astype(np.float32))
        path = tmp_path / "rt.pgm"
        D.save_pgm(img, path)
        back = D.load_image(path)
        np.testing.assert_allclose(back.pixels, img.pixels, atol=1e-7)

    def test_read_manifest(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("# header\n\n/a/b.pgm\n  /c/d.pgm  \n")
        assert [str(p) for p in D.read_manifest(m)] == ["/a/b.pgm", "/c/d.pgm"]


class TestMultiScale:
    def test_reference_scales(self):
        ramp = np.linspace(0, 1, 1792 * 1024, dtype=np.float32).reshape(1024, 1792)
        scales = D.multi_scale(D.GrayImage(ramp))
        assert [s.pixels.shape[::-1] for s in scales] == list(D.PAPER_SCALES)

    def test_constant_image_stays_constant(self):
        img = D.GrayImage(np.full((256, 448), 0.37, dtype=np.float32))
        for s in D.multi_scale(img):
            np.testing.assert_allclose(s.pixels, 0.37, rtol=1e-6)

    def test_checkerboard_halves_to_mid_gray(self):
        yy, xx = np.mgrid[0:144, 0:252]
        board = ((yy + xx) % 2).astype(np.float32)
        scales = D.multi_scale(D.GrayImage(board))
        np.testing.assert_allclose(scales[2].pixels, 0.5, atol=1e-7)

    def test_proportional_ratios(self):
        img = D.GrayImage(np.zeros((200, 360), dtype=np.float32))
        s1, s2, s3 = D.multi_scale(img)
        h, w = s1.pixels.shape
        assert s2.pixels.shape == (h * 3 // 4, w * 3 // 4)
        assert s3.pixels.shape == (h // 2, w // 2)

    def test_too_small(self):
        with pytest.raises(SizeError):
            D.multi_scale(D.GrayImage(np.zeros((20, 20), dtype=np.float32)))

    def test_box_resize_integer_mean(self):
        x = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = D.box_resize(x, 2, 2)
        want = np.array([[x[:2, :2].mean(), x[:2, 2:].mean()],
                         [x[2:, :2].mean(), x[2:, 2:].mean()]])
        np.testing.assert_allclose(out, want, rtol=1e-6)


class TestDegrade:
    def test_qstep_values(self):
        assert D.qstep(22) == pytest.approx(8.0)
        assert D.qstep(4) == pytest.approx(1.0)

    def test_near_lossless_at_qp4(self):
        gen = np.random.default_rng(1)
        img = D.GrayImage(gen.random((64, 64)).astype(np.float32))
        out = D.degrade(img, D.DegradeConfig(qp=4))
        mse = float(np.mean((out.pixels - img.pixels) ** 2))
        psnr = -10 * np.log10(max(mse, 1e-12))
        assert psnr > 50.0

    def test_constant_image_within_one_step(self):
        img = D.GrayImage(np.full((32, 32), 0.42, dtype=np.float32))
        out = D.degrade(img, D.DegradeConfig(qp=32))
        assert np.max(np.abs(out.pixels - 0.42)) <= D.qstep(32) / 255.0

    def test_idempotent_within_one_step(self):
        gen = np.random.default_rng(2)
        img = D.GrayImage(gen.random((40, 40)).astype(np.float32))
        cfg = D.DegradeConfig(qp=27)
        once = D.degrade(img, cfg)
        twice = D.degrade(once, cfg)
        step = D.qstep(27) / 255.0
        assert np.max(np.abs(twice.pixels - once.pixels)) <= step + 1e-6

    def test_padding_for_odd_sizes(self):
        img = D.GrayImage(np.random.default_rng(3).random((19, 13)).astype(np.float32))
        out = D.degrade(img, D.DegradeConfig(qp=22))
        assert out.pixels.shape == (19, 13)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_heavier_qp_degrades_more(self):
        img = D.synth_texture("sinusoid", 64, freq=7.0, angle=30.0)
        e = []
        for qp in (22, 37):
            out = D.degrade(img, D.DegradeConfig(qp=qp))
            e.append(float(np.mean((out.pixels - img.pixels) ** 2)))
        assert e[1] > e[0]


def one_source(img, deg, n, count, mode, seed=0, fill=D.CONTEXT_FILL):
    """fill_samples with one source: `count` samples of one image pair."""
    return D.fill_samples(D.SampleSet.empty(count, n, fill, D.is_three_block(mode)), [count],
                          lambda i: (img, deg, seed))


class TestContexts:
    # array properties are read from fill_samples; origins and availability
    # modes from the per-sample oracle, which draws the same samples
    def _pair(self, size=64, seed=0):
        img = D.GrayImage(np.random.default_rng(seed).random((size, size)).astype(np.float32))
        deg = D.degrade(img, D.DegradeConfig(qp=32))
        return img, deg

    def test_count_zero(self):
        img, deg = self._pair()
        assert len(one_source(img, deg, 8, 0, D.THREE_BLOCK)) == 0
        assert sample_contexts_loop(img, deg, 8, 0, D.THREE_BLOCK) == []

    def test_same_seed_identical(self):
        img, deg = self._pair()
        a = one_source(img, deg, 8, 20, D.FOUR_BLOCK, seed=9)
        b = one_source(img, deg, 8, 20, D.FOUR_BLOCK, seed=9)
        for x, y in zip(a.take(slice(None)), b.take(slice(None))):
            np.testing.assert_array_equal(x, y)
        a = sample_contexts_loop(img, deg, 8, 20, D.FOUR_BLOCK, seed=9)
        b = sample_contexts_loop(img, deg, 8, 20, D.FOUR_BLOCK, seed=9)
        for s, t in zip(a, b):
            assert s.origin == t.origin and s.availability_mode == t.availability_mode

    def test_masking_audit(self):
        img, deg = self._pair()
        for mode in (D.FOUR_BLOCK, D.THREE_BLOCK):
            samples = one_source(img, deg, 8, 200, mode, seed=4, fill=0.5)
            blocks = sample_contexts_loop(img, deg, 8, 200, mode, seed=4, fill=0.5)
            for block, context in zip(blocks, samples.take(slice(None))[0]):
                assert np.all(context[8:, 8:] == 0.5)
                if block.availability_mode == D.THREE_BLOCK:
                    assert np.all(context[8:, :8] == 0.5)
                else:
                    assert not np.all(context[8:, :8] == 0.5)

    def test_alignment_audit(self):
        # degraded == clean: re-pasting the target must rebuild the window
        img, _ = self._pair(seed=5)
        samples = one_source(img, img, 8, 50, D.THREE_BLOCK, seed=6)
        blocks = sample_contexts_loop(img, img, 8, 50, D.THREE_BLOCK, seed=6)
        for block, context, target in zip(blocks, *samples.take(slice(None))):
            y, x = block.origin
            window = img.pixels[y : y + 16, x : x + 16].copy()
            rebuilt = context.copy()
            rebuilt[8:, 8:] = target
            np.testing.assert_array_equal(rebuilt[8:, 8:], window[8:, 8:])

    def test_forced_mode(self):
        img, deg = self._pair()
        blocks = sample_contexts_loop(img, deg, 8, 30, D.FOUR_BLOCK, seed=1)
        assert all(b.availability_mode == D.FOUR_BLOCK for b in blocks)

    def test_disjoint_seeds_disjoint_origins(self):
        img, deg = self._pair(size=128)
        a = {b.origin for b in sample_contexts_loop(img, deg, 8, 300, D.THREE_BLOCK, seed=100)}
        b = {b.origin for b in sample_contexts_loop(img, deg, 8, 300, D.THREE_BLOCK, seed=200)}
        overlap = len(a & b) / 300
        assert overlap <= 0.05

    def test_too_small_image(self):
        img = D.GrayImage(np.zeros((12, 12), dtype=np.float32))
        with pytest.raises(SizeError):
            one_source(img, img, 8, 1, D.THREE_BLOCK)

    def test_mismatched_pair(self):
        a = D.GrayImage(np.zeros((32, 32), dtype=np.float32))
        b = D.GrayImage(np.zeros((64, 64), dtype=np.float32))
        with pytest.raises(ShapeError):
            one_source(a, b, 8, 1, D.THREE_BLOCK)

    def test_range_invariant(self):
        img, deg = self._pair()
        samples = one_source(img, deg, 8, 50, D.THREE_BLOCK, seed=3)
        for arr in samples.take(slice(None)):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    @given(n=st.sampled_from([4, 8, 16, 32]), extra_h=st.integers(0, 40),
           extra_w=st.integers(0, 40), count=st.integers(0, 57),
           mode=st.sampled_from([D.FOUR_BLOCK, D.THREE_BLOCK]),
           fill=st.sampled_from([0.0, 0.5, 0.8]), seed=st.integers(0, 2**16))
    @example(n=8, extra_h=0, extra_w=0, count=0, mode=D.THREE_BLOCK, fill=0.5, seed=0)
    @example(n=32, extra_h=0, extra_w=3, count=57, mode=D.FOUR_BLOCK, fill=0.8, seed=1)
    def test_gather_matches_per_sample_oracle(self, n, extra_h, extra_w, count, mode, fill,
                                              seed):
        gen = np.random.default_rng(seed)
        shape = (2 * n + extra_h, 2 * n + extra_w)
        img = D.GrayImage(gen.random(shape).astype(np.float32))
        deg = D.GrayImage(gen.random(shape).astype(np.float32))
        got = one_source(img, deg, n, count, mode, seed=seed, fill=fill)
        want = stack_blocks(sample_contexts_loop(img, deg, n, count, mode, seed=seed, fill=fill), n)
        for arr, ref in zip(got.take(slice(None)), want):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert arr.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("origin", [(-1, 0), (0, -1), (-16, -16), (-40, 0),
                                        (25, 0), (0, 35), (25, 35)])
    def test_window_outside_image_rejected(self, origin):
        # negative origins included: a gather would wrap them around silently
        pixels = np.zeros((40, 50), dtype=np.float32)
        with pytest.raises(SizeError):
            D.make_context(pixels, pixels, origin, 8, D.FOUR_BLOCK, D.CONTEXT_FILL)
        with pytest.raises(SizeError):
            D.cut_contexts(pixels, pixels, [0, origin[0]], [0, origin[1]],
                           D.SampleSet.empty(2, 8, D.CONTEXT_FILL, True))

    def test_edge_windows_accepted(self):
        pixels = np.random.default_rng(1).random((40, 50)).astype(np.float32)
        got = D.cut_contexts(pixels, pixels, [0, 24, 0, 24], [0, 0, 34, 34],
                             D.SampleSet.empty(4, 8, D.CONTEXT_FILL, False)).take(slice(None))
        want = stack_blocks([context_loop(pixels, pixels, (y, x), 8, D.FOUR_BLOCK)
                             for y, x in ((0, 0), (24, 0), (0, 34), (24, 34))], 8)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_origin_count_must_fill_the_set(self):
        pixels = np.zeros((40, 50), dtype=np.float32)
        with pytest.raises(ShapeError):
            D.cut_contexts(pixels, pixels, [0, 8], [0, 8],
                           D.SampleSet.empty(3, 8, D.CONTEXT_FILL, False))

    def test_unknown_mode_rejected(self):
        img, deg = self._pair()
        with pytest.raises(UsageError):
            one_source(img, deg, 8, 3, "two-block")
        with pytest.raises(UsageError):
            D.make_context(deg.pixels, img.pixels, (0, 0), 8, "two-block", D.CONTEXT_FILL)


class TestSynthTextures:
    def test_flat(self):
        img = D.synth_texture("flat", 16, value=0.3)
        np.testing.assert_allclose(img.pixels, 0.3, rtol=1e-6)

    def test_directional_zero_degrees(self):
        img = D.synth_texture("directional", 16, angle=0.0)
        for row in img.pixels:
            np.testing.assert_allclose(row, row[0], atol=1e-6)
        col = img.pixels[:, 0]
        assert np.all(np.diff(col) > 0)

    def test_rings_periodicity(self):
        size, period = 64, 12.0
        img = D.synth_texture("rings", size, period=period, center=(0.0, 0.0))
        gen_val = lambda r: 0.5 + 0.5 * np.cos(2 * np.pi * r / period)
        assert gen_val(period) == pytest.approx(gen_val(2 * period))
        assert img.pixels[0, 12] == pytest.approx(gen_val(12.0), abs=1e-6)
        assert img.pixels[0, 24] == pytest.approx(gen_val(24.0), abs=1e-6)

    def test_invalid_kind(self):
        with pytest.raises(UsageError):
            D.synth_texture("plasma", 16)

    def test_invalid_params(self):
        with pytest.raises(UsageError):
            D.synth_texture("flat", 16, wavelength=3)
        with pytest.raises(UsageError):
            D.synth_texture("rings", 16, period=-1.0)
        with pytest.raises(UsageError):
            D.synth_texture("flat", 4)

    def test_noise_stays_in_range(self):
        img = D.synth_texture("directional", 32, seed=1, noise=0.5, angle=45.0)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_corpus_and_training_samples(self):
        images = D.synthetic_corpus(64, seed=3, per_kind=2)
        samples = D.build_training_samples(images, 8, 120, seed=3,
                                           availability_mode=D.THREE_BLOCK)
        blocks = build_training_samples_loop(images, 8, 120, seed=3,
                                             availability_mode=D.THREE_BLOCK)
        assert len(samples) == 120
        assert all(s.availability_mode == D.THREE_BLOCK for s in blocks)
        assert samples.upper.shape == (120, 8, 16) and samples.lower.shape == (120, 8, 8)
        contexts, targets = samples.take(slice(None))
        want = stack_blocks(blocks, 8)
        assert contexts.tobytes() == want[0].tobytes()
        assert targets.tobytes() == want[1].tobytes()

    def test_training_samples_need_a_positive_count(self):
        images = D.synthetic_corpus(32, seed=3, per_kind=1)
        with pytest.raises(UsageError):
            D.build_training_samples(images, 8, 0, seed=3)


class TestBuildMemory:
    # A set is allocated once and each source's samples are cut into its own
    # slice one piece (at most SLAB_BYTES of samples) at a time, so building
    # it holds the set plus one piece. Joining per-source parts held it twice.
    # A set stores no bottom-left quadrant in three-block availability, so a
    # sample costs 12 N^2 bytes there and 16 N^2 in four-block availability.
    COUNT = 6000  # 4.4 MiB three-block, 5.9 MiB four-block at N=8
    MARGIN = 2**19  # the origin draws (24 bytes a sample) and degrade()'s buffers

    def assert_one_set(self, build, mode=D.THREE_BLOCK):
        tracemalloc.start()
        try:
            samples = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        set_bytes = samples.upper.nbytes + samples.lower.nbytes
        assert len(samples) == self.COUNT
        assert set_bytes == (12 if mode == D.THREE_BLOCK else 16) * self.COUNT * 8**2
        assert peak < set_bytes + SLAB_BYTES + self.MARGIN, (peak, set_bytes)

    @pytest.mark.parametrize("per_kind", [6, 1], ids=["many-images", "one-image"])
    def test_building_holds_one_set(self, per_kind):
        images = D.synthetic_corpus(64, seed=3, kinds=("sinusoid",), per_kind=per_kind)
        for mode in D.AVAILABILITY_MODES:
            self.assert_one_set(lambda: D.build_training_samples(
                images, 8, self.COUNT, seed=3, availability_mode=mode), mode)

    def test_archive_holds_one_set(self, tmp_path):
        lines = []
        for i, img in enumerate(D.synthetic_corpus(64, seed=4, per_kind=2)):
            D.save_pgm(img, tmp_path / f"{i}_clean.pgm")
            D.save_pgm(D.degrade(img, D.DegradeConfig(qp=32)), tmp_path / f"{i}_qp32.pgm")
            lines.append(f"{i}_clean.pgm\t{i}_qp32.pgm\t0\t32\n")
        (tmp_path / "index.tsv").write_text("".join(lines))
        for mode in D.AVAILABILITY_MODES:
            resolved = cli.resolve("train", {"data": str(tmp_path), "samples": str(self.COUNT),
                                             "availability": mode}, {})
            self.assert_one_set(lambda: cli._load_samples(resolved), mode)

    def test_unallocatable_set_is_a_usage_error(self):
        # 10**12 samples at N=8 is 768 TB three-block and 1.02 PB four-block,
        # past the 128 TiB a process maps, so the allocation fails before a
        # page is touched, whatever the overcommit mode; it comes before the
        # draws, which would ask for 8 TB each
        img = D.synth_texture("flat", 32)
        for build, size in (
                (lambda: one_source(img, img, 8, 10**12, D.THREE_BLOCK), "768,000,000,000,000"),
                (lambda: one_source(img, img, 8, 10**12, D.FOUR_BLOCK), "1,024,000,000,000,000"),
                (lambda: D.build_training_samples([img], 8, 10**12, seed=3),
                 "768,000,000,000,000")):
            with pytest.raises(UsageError, match=f"samples=1000000000000 .* {size} bytes"):
                build()
