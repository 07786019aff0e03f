import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import (Refs, mode_search_loop, predict_mode_loop, reference_samples_loop,
                     scan_line, smooth_references_loop)
from psrnn import intra as I
from psrnn.errors import ModeError, ShapeError, SizeError
from psrnn.hadamard import SatdConfig, satd


def random_line(seed, n=8):
    return np.random.default_rng(seed).random(4 * n + 1)


def top_left(line, n):
    """A scan-order line's top row (corner first) and left column (top down)."""
    return line[2 * n :], line[: 2 * n][::-1]


def line_of(top, left):
    return np.concatenate([left[::-1], top])


def one_block(img, origin, n):
    """reference_lines of one block, checked byte for byte against the
    per-block oracle: its line, and the oracle's availability by segment."""
    line = I.reference_lines(img, [origin], n)[0]
    refs = reference_samples_loop(img, origin, n)
    assert line.tobytes() == scan_line(refs).tobytes()
    return line, refs.available


class TestReferenceConstruction:
    def test_interior_block_no_filling(self):
        gen = np.random.default_rng(0)
        img = gen.random((32, 32)).astype(np.float32)
        line, available = one_block(img, (8, 8), 4)
        assert all(available.values())
        top, left = top_left(line, 4)
        np.testing.assert_allclose(top[0], img[7, 7])
        np.testing.assert_allclose(top[1:], img[7, 8:16])
        np.testing.assert_allclose(left, img[8:16, 7])
        assert I.build_reference_samples(img, (8, 8), 4).tobytes() == line.tobytes()

    def test_corner_block_all_mid_gray(self):
        img = np.random.default_rng(1).random((32, 32)).astype(np.float32)
        line, available = one_block(img, (0, 0), 4)
        assert not any(available.values())
        assert np.all(line == I.FILL_VALUE) and I.FILL_VALUE == 0.5

    def test_left_edge_extends_first_above_sample(self):
        img = np.random.default_rng(2).random((32, 32)).astype(np.float32)
        line, available = one_block(img, (8, 0), 4)
        assert not available["left"] and not available["corner"]
        assert available["above"]
        top, left = top_left(line, 4)
        first_above = img[7, 0]
        np.testing.assert_allclose(left, first_above)
        np.testing.assert_allclose(top[0], first_above)

    def test_top_edge_extends_left_samples(self):
        img = np.random.default_rng(3).random((32, 32)).astype(np.float32)
        line, available = one_block(img, (0, 8), 4)
        assert available["left"] and not available["above"]
        # scan runs left-bottom -> corner -> top; top inherits the last left sample
        np.testing.assert_allclose(top_left(line, 4)[0], img[0, 7])

    def test_block_outside_image(self):
        img = np.zeros((16, 16), dtype=np.float32)
        with pytest.raises(SizeError):
            I.build_reference_samples(img, (12, 12), 8)


class TestPredictions:
    def test_dc_constant(self):
        n = 8
        np.testing.assert_array_equal(I.predict_mode(np.full(4 * n + 1, 0.5), I.MODE_DC, n),
                                      np.full((n, n), 0.5))

    def test_dc_is_the_mean_above_and_left(self):
        # HEVC's DC (Lainema et al., TCSVT 2012): the n samples above and the
        # n to the left; the corner, above-right and below-left do not count
        n = 8
        top = np.concatenate([[0.9], np.full(n, 0.2), np.full(n, 0.9)])
        left = np.concatenate([np.full(n, 0.6), np.full(n, 0.1)])
        pred = I.predict_mode(line_of(top, left), I.MODE_DC, n)
        np.testing.assert_allclose(pred, 0.4, rtol=1e-15)
        top[0], top[n + 1 :], left[n:] = 0.0, 1.0, 0.3
        assert I.predict_mode(line_of(top, left), I.MODE_DC, n).tobytes() == pred.tobytes()
        assert predict_mode_loop(Refs(top, left, {}), I.MODE_DC, n).tobytes() == pred.tobytes()

    def test_horizontal_row_copy(self):
        line = random_line(5)
        pred = I.predict_mode(line, I.MODE_HORIZONTAL, 8)
        left = top_left(line, 8)[1]
        for y in range(8):
            np.testing.assert_array_equal(pred[y], np.full(8, left[y]))

    def test_vertical_column_copy(self):
        line = random_line(6)
        pred = I.predict_mode(line, I.MODE_VERTICAL, 8)
        top = top_left(line, 8)[0]
        for x in range(8):
            np.testing.assert_array_equal(pred[:, x], np.full(8, top[1 + x]))

    def test_planar_on_linear_refs_is_bilinear_through_corners(self):
        n = 8
        a, bx, by = 0.3, 0.02, 0.015
        plane = lambda y, x: a + bx * x + by * y
        top = np.array([plane(-1, x) for x in range(-1, 2 * n)])
        left = np.array([plane(y, -1) for y in range(0, 2 * n)])
        pred = I.predict_mode(line_of(top, left), I.MODE_PLANAR, n)
        u = np.arange(n)[:, None] / (n - 1)
        v = np.arange(n)[None, :] / (n - 1)
        want = (pred[0, 0] * (1 - u) * (1 - v) + pred[0, -1] * (1 - u) * v
                + pred[-1, 0] * u * (1 - v) + pred[-1, -1] * u * v)
        assert np.max(np.abs(pred - want)) < 1.0 / 255
        # constant references reproduce the constant exactly
        np.testing.assert_allclose(I.predict_mode(np.full(4 * n + 1, 0.4), I.MODE_PLANAR, n),
                                   0.4, rtol=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ModeError):
            I.predict_mode(random_line(0), 35, 8)
        with pytest.raises(ModeError):
            I.predict_mode(random_line(0), -1, 8)

    def test_wrong_line_shape(self):
        with pytest.raises(ShapeError):
            I.predict_mode(random_line(0, n=4), I.MODE_DC, 8)
        with pytest.raises(ShapeError):
            I.predict_mode(random_line(0)[None], I.MODE_DC, 8)

    @given(seed=st.integers(0, 5000), mode=st.integers(1, 34))
    def test_convex_combination_bounds(self, seed, mode):
        line = random_line(seed)
        pred = I.predict_mode(line, mode, 8)
        assert pred.min() >= line.min() - 1e-12
        assert pred.max() <= line.max() + 1e-12

    @given(seed=st.integers(0, 5000), mode=st.sampled_from([1] + list(range(2, 35))),
           delta=st.floats(-0.2, 0.2))
    def test_translation_equivariance(self, seed, mode, delta):
        line = random_line(seed)
        p0 = I.predict_mode(line, mode, 8)
        p1 = I.predict_mode(line + delta, mode, 8)
        np.testing.assert_allclose(p1 - p0, delta, atol=1e-9)

    @given(n=st.sampled_from([4, 8, 16, 32]), seed=st.integers(0, 2**32 - 1),
           avail=st.fixed_dictionaries({k: st.booleans() for k in I.SEGMENTS}))
    @example(n=4, seed=0, avail={k: False for k in I.SEGMENTS})
    def test_tables_match_per_mode_oracle(self, n, seed, avail):
        # any availability mask at an interior block, bit for bit
        img = np.random.default_rng(seed).random((4 * n, 4 * n))
        refs = reference_samples_loop(img, (n, n), n, availability=avail)
        for mode in range(I.N_MODES):
            want = predict_mode_loop(refs, mode, n).tobytes()
            assert I.predict_mode(scan_line(refs), mode, n).tobytes() == want

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_all_modes_all_sizes(self, n):
        line = random_line(n, n=n)
        for mode in range(I.N_MODES):
            pred = I.predict_mode(line, mode, n)
            assert pred.shape == (n, n)
            assert np.isfinite(pred).all()


def smoothed(line):
    return I.smooth_lines(line[None])[0]


class TestSmoothing:
    def test_endpoints_unchanged(self):
        line = random_line(9)
        sm = smoothed(line)
        assert sm[0] == line[0] and sm[-1] == line[-1]

    def test_interior_is_121_filter(self):
        line = random_line(10)
        (top, left), (sm_top, sm_left) = top_left(line, 8), top_left(smoothed(line), 8)
        want_corner = (left[0] + 2 * top[0] + top[1]) / 4
        assert sm_top[0] == pytest.approx(want_corner)
        want_top3 = (top[2] + 2 * top[3] + top[4]) / 4
        assert sm_top[3] == pytest.approx(want_top3)
        want_left2 = (left[1] + 2 * left[2] + left[3]) / 4
        assert sm_left[2] == pytest.approx(want_left2)

    def test_constant_refs_invariant(self):
        np.testing.assert_allclose(smoothed(np.full(4 * 4 + 1, 0.3)), 0.3)


def search_one(line, target, n, lam):
    """best_modes on a batch of one block: (mode, satd, prediction)."""
    modes, satds, preds = I.best_modes(line[None], target[None], n, lam)
    return int(modes[0]), float(satds[0]), preds[0]


class TestBestModeSearch:
    def test_dc_wins_on_dc_target(self):
        line = random_line(11)
        target = I.predict_mode(line, I.MODE_DC, 8)
        mode, satd_, _ = search_one(line, target, 8, lam=10.0)
        assert (mode, satd_) == (I.MODE_DC, 0.0)

    def test_horizontal_stripes_pick_mode_10(self):
        line = random_line(12)
        target = np.repeat(top_left(line, 8)[1][:8, None], 8, axis=1)
        mode, satd_, _ = search_one(line, target, 8, lam=10.0)
        assert (mode, satd_) == (I.MODE_HORIZONTAL, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_recheck(self, seed):
        gen = np.random.default_rng(100 + seed)
        line = random_line(seed)
        target = gen.random((8, 8))
        lam = I.hm_lambda(32)
        mode, best_satd, best_pred = search_one(line, target, 8, lam)
        best_total = best_satd + lam * I.DEFAULT_MODE_BITS
        cfg = SatdConfig()
        for m in range(35):
            pred = I.predict_mode(line, m, 8)
            total = satd(pred - target, cfg) * I.PIXEL_SCALE + lam * I.DEFAULT_MODE_BITS
            assert best_total <= total + 1e-9
        # the winner's prediction and cost are attained exactly by its own mode
        pred = I.predict_mode(line, mode, 8)
        assert pred.tobytes() == best_pred.tobytes()
        assert best_satd == pytest.approx(satd(pred - target, cfg) * I.PIXEL_SCALE, rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        n = 4
        target = np.full((n, n), 0.5)
        mode, _, _ = search_one(np.full(4 * n + 1, 0.5), target, n, lam=1.0)
        assert mode == 0  # every mode ties at satd 0 and equal bits

    def test_network_cost_entry(self):
        cost = I.network_mode_cost(0.5, lam=2.0)
        assert cost.mode == I.NETWORK
        assert cost.bits_proxy == 1.0
        assert cost.satd == pytest.approx(0.5 * 255.0)
        assert cost.total == pytest.approx(0.5 * 255.0 + 2.0)

    def test_lambda_convention(self):
        assert I.hm_lambda(12) == pytest.approx(0.57)
        assert I.hm_lambda(32) == pytest.approx(0.57 * 2 ** (20 / 3))

    def test_wrong_target_shape(self):
        with pytest.raises(ShapeError):
            search_one(random_line(0), np.zeros((4, 4)), 8, lam=1.0)


class TestBatchedSearch:
    # the chunked search the evaluator runs, against the per-block oracle

    @given(n=st.sampled_from([4, 8, 16, 32]), seed=st.integers(0, 2**32 - 1),
           extra=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           avail=st.dictionaries(st.sampled_from(I.SEGMENTS), st.booleans()),
           smoothing=st.booleans())
    @example(n=4, seed=0, extra=(0, 0), avail={}, smoothing=False)
    @example(n=8, seed=1, extra=(3, 9), avail={k: False for k in I.SEGMENTS}, smoothing=True)
    def test_matches_per_block_oracle(self, n, seed, extra, avail, smoothing):
        gen = np.random.default_rng(seed)
        h, w = n + extra[0], n + extra[1]
        img = gen.random((h, w)).astype(np.float32)
        # every image edge and corner, the middle, and random interior blocks
        ys = [0, (h - n) // 2, h - n] + list(gen.integers(0, h - n + 1, 3))
        xs = [0, (w - n) // 2, w - n] + list(gen.integers(0, w - n + 1, 3))
        origins = np.array([(y, x) for y in ys for x in xs])
        targets = gen.random((len(origins), n, n))
        lam = I.hm_lambda(int(gen.integers(22, 38)))
        src_lines = I.reference_lines(img, origins, n)
        # the search runs on the oracle's lines with `avail` forced on top of
        # the image bounds; with nothing forced they are reference_lines'
        forced = [reference_samples_loop(img, (y, x), n, availability=avail)
                  for y, x in origins.tolist()]
        lines = np.stack([scan_line(refs) for refs in forced])
        if smoothing:
            lines = I.smooth_lines(lines)
        modes, satds, preds = I.best_modes(lines, targets, n, lam)
        for i, (y, x) in enumerate(origins.tolist()):
            want = scan_line(reference_samples_loop(img, (y, x), n)).tobytes()
            assert src_lines[i].tobytes() == want
            refs = smooth_references_loop(forced[i]) if smoothing else forced[i]
            assert lines[i].tobytes() == scan_line(refs).tobytes()
            best, pred = mode_search_loop(refs, targets[i], n, lam)
            assert (int(modes[i]), float(satds[i])) == (best.mode, best.satd)
            assert preds[i].tobytes() == pred.tobytes()
            # the one-block calls: a line of one origin, one mode's prediction
            assert I.build_reference_samples(img, (y, x), n).tobytes() == want
            assert I.predict_mode(lines[i], best.mode, n).tobytes() == pred.tobytes()

    def test_ties_break_to_lowest_index_per_block(self):
        # a flat image makes every mode predict the same block
        n = 4
        img = np.full((16, 16), 0.5, dtype=np.float32)
        origins = np.array([(0, 0), (4, 4), (8, 12)])
        lines = I.reference_lines(img, origins, n)
        modes, satds, _ = I.best_modes(lines, np.full((3, n, n), 0.5), n, lam=1.0)
        assert modes.tolist() == [0, 0, 0] and satds.tolist() == [0.0, 0.0, 0.0]

    def test_block_outside_image(self):
        img = np.zeros((16, 16), dtype=np.float32)
        for origin in [(12, 0), (0, 12), (-1, 0)]:
            with pytest.raises(SizeError):
                I.reference_lines(img, np.array([(0, 0), origin]), 8)

    def test_shapes_checked(self):
        lines = I.reference_lines(np.zeros((16, 16), np.float32), np.array([(4, 4)]), 4)
        with pytest.raises(ShapeError):
            I.best_modes(lines, np.zeros((2, 4, 4)), 4, lam=1.0)
        with pytest.raises(ShapeError):
            I.best_modes(lines, np.zeros((1, 4, 4)), 8, lam=1.0)
