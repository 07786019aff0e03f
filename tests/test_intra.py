import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import (mode_search_loop, predict_mode_loop, reference_samples_loop,
                     smooth_references_loop)
from psrnn import intra as I
from psrnn.errors import ModeError, ShapeError, SizeError
from psrnn.hadamard import SatdConfig, satd


def random_refs(seed, n=8):
    gen = np.random.default_rng(seed)
    return I.ReferenceSamples(top=gen.random(2 * n + 1), left=gen.random(2 * n),
                              available={k: True for k in I.SEGMENTS}, n=n)


class TestReferenceConstruction:
    def test_interior_block_no_filling(self):
        gen = np.random.default_rng(0)
        img = gen.random((32, 32)).astype(np.float32)
        refs = I.build_reference_samples(img, (8, 8), 4)
        assert all(refs.available.values())
        np.testing.assert_allclose(refs.top[0], img[7, 7])
        np.testing.assert_allclose(refs.top[1:], img[7, 8:16])
        np.testing.assert_allclose(refs.left, img[8:16, 7])

    def test_corner_block_all_mid_gray(self):
        img = np.random.default_rng(1).random((32, 32)).astype(np.float32)
        refs = I.build_reference_samples(img, (0, 0), 4)
        assert not any(refs.available.values())
        assert np.all(refs.top == 0.5)
        assert np.all(refs.left == 0.5)

    def test_left_edge_extends_first_above_sample(self):
        img = np.random.default_rng(2).random((32, 32)).astype(np.float32)
        refs = I.build_reference_samples(img, (8, 0), 4)
        assert not refs.available["left"] and not refs.available["corner"]
        assert refs.available["above"]
        first_above = img[7, 0]
        np.testing.assert_allclose(refs.left, first_above)
        np.testing.assert_allclose(refs.top[0], first_above)

    def test_top_edge_extends_left_samples(self):
        img = np.random.default_rng(3).random((32, 32)).astype(np.float32)
        refs = I.build_reference_samples(img, (0, 8), 4)
        assert refs.available["left"] and not refs.available["above"]
        # scan runs left-bottom -> corner -> top; top inherits the last left sample
        np.testing.assert_allclose(refs.top, img[0, 7])

    def test_forced_unavailability(self):
        img = np.full((32, 32), 0.25, dtype=np.float32)
        refs = I.build_reference_samples(img, (8, 8), 4,
                                         availability={"below-left": False})
        assert not refs.available["below-left"]
        np.testing.assert_allclose(refs.left[4:], img[11, 7])  # extended upward value

    def test_block_outside_image(self):
        img = np.zeros((16, 16), dtype=np.float32)
        with pytest.raises(SizeError):
            I.build_reference_samples(img, (12, 12), 8)

    def test_unknown_segment_rejected(self):
        img = np.zeros((32, 32), dtype=np.float32)
        with pytest.raises(ShapeError):
            I.build_reference_samples(img, (8, 8), 4, availability={"behind": True})


class TestPredictions:
    def test_dc_constant(self):
        n = 8
        refs = I.ReferenceSamples(top=np.full(2 * n + 1, 0.5), left=np.full(2 * n, 0.5),
                                  available={k: True for k in I.SEGMENTS}, n=n)
        np.testing.assert_array_equal(I.predict_mode(refs, I.MODE_DC, n), np.full((n, n), 0.5))

    def test_horizontal_row_copy(self):
        refs = random_refs(5)
        pred = I.predict_mode(refs, I.MODE_HORIZONTAL, 8)
        for y in range(8):
            np.testing.assert_array_equal(pred[y], np.full(8, refs.left[y]))

    def test_vertical_column_copy(self):
        refs = random_refs(6)
        pred = I.predict_mode(refs, I.MODE_VERTICAL, 8)
        for x in range(8):
            np.testing.assert_array_equal(pred[:, x], np.full(8, refs.top[1 + x]))

    def test_planar_on_linear_refs_is_bilinear_through_corners(self):
        n = 8
        a, bx, by = 0.3, 0.02, 0.015
        plane = lambda y, x: a + bx * x + by * y
        top = np.array([plane(-1, x) for x in range(-1, 2 * n)])
        left = np.array([plane(y, -1) for y in range(0, 2 * n)])
        refs = I.ReferenceSamples(top=top, left=left,
                                  available={k: True for k in I.SEGMENTS}, n=n)
        pred = I.predict_mode(refs, I.MODE_PLANAR, n)
        u = np.arange(n)[:, None] / (n - 1)
        v = np.arange(n)[None, :] / (n - 1)
        want = (pred[0, 0] * (1 - u) * (1 - v) + pred[0, -1] * (1 - u) * v
                + pred[-1, 0] * u * (1 - v) + pred[-1, -1] * u * v)
        assert np.max(np.abs(pred - want)) < 1.0 / 255
        # constant references reproduce the constant exactly
        flat = I.ReferenceSamples(top=np.full(2 * n + 1, 0.4), left=np.full(2 * n, 0.4),
                                  available={k: True for k in I.SEGMENTS}, n=n)
        np.testing.assert_allclose(I.predict_mode(flat, I.MODE_PLANAR, n), 0.4, rtol=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ModeError):
            I.predict_mode(random_refs(0), 35, 8)
        with pytest.raises(ModeError):
            I.predict_mode(random_refs(0), -1, 8)

    @given(seed=st.integers(0, 5000), mode=st.integers(1, 34))
    def test_convex_combination_bounds(self, seed, mode):
        refs = random_refs(seed)
        pred = I.predict_mode(refs, mode, 8)
        lo = min(refs.top.min(), refs.left.min())
        hi = max(refs.top.max(), refs.left.max())
        assert pred.min() >= lo - 1e-12
        assert pred.max() <= hi + 1e-12

    @given(seed=st.integers(0, 5000), mode=st.sampled_from([1] + list(range(2, 35))),
           delta=st.floats(-0.2, 0.2))
    def test_translation_equivariance(self, seed, mode, delta):
        refs = random_refs(seed)
        shifted = I.ReferenceSamples(top=refs.top + delta, left=refs.left + delta,
                                     available=refs.available, n=refs.n)
        p0 = I.predict_mode(refs, mode, 8)
        p1 = I.predict_mode(shifted, mode, 8)
        np.testing.assert_allclose(p1 - p0, delta, atol=1e-9)

    @given(n=st.sampled_from([4, 8, 16, 32]), seed=st.integers(0, 2**32 - 1),
           avail=st.fixed_dictionaries({k: st.booleans() for k in I.SEGMENTS}))
    @example(n=4, seed=0, avail={k: False for k in I.SEGMENTS})
    def test_tables_match_per_mode_oracle(self, n, seed, avail):
        # any availability mask at an interior block, bit for bit
        img = np.random.default_rng(seed).random((4 * n, 4 * n))
        refs = I.build_reference_samples(img, (n, n), n, availability=avail)
        for mode in range(I.N_MODES):
            want = predict_mode_loop(refs, mode, n).tobytes()
            assert I.predict_mode(refs, mode, n).tobytes() == want

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_all_modes_all_sizes(self, n):
        gen = np.random.default_rng(n)
        refs = I.ReferenceSamples(top=gen.random(2 * n + 1), left=gen.random(2 * n),
                                  available={k: True for k in I.SEGMENTS}, n=n)
        for mode in range(I.N_MODES):
            pred = I.predict_mode(refs, mode, n)
            assert pred.shape == (n, n)
            assert np.isfinite(pred).all()


def smoothed(refs):
    """smooth_lines on one block's line, split back into (top, left) like ReferenceSamples."""
    line = I.smooth_lines(refs.line()[None])[0]
    return I.ReferenceSamples(top=line[2 * refs.n :], left=line[: 2 * refs.n][::-1],
                              available=refs.available, n=refs.n)


class TestSmoothing:
    def test_endpoints_unchanged(self):
        refs = random_refs(9)
        sm = smoothed(refs)
        assert sm.top[-1] == refs.top[-1]
        assert sm.left[-1] == refs.left[-1]

    def test_interior_is_121_filter(self):
        refs = random_refs(10)
        sm = smoothed(refs)
        n = refs.n
        want_corner = (refs.left[0] + 2 * refs.top[0] + refs.top[1]) / 4
        assert sm.top[0] == pytest.approx(want_corner)
        want_top3 = (refs.top[2] + 2 * refs.top[3] + refs.top[4]) / 4
        assert sm.top[3] == pytest.approx(want_top3)
        want_left2 = (refs.left[1] + 2 * refs.left[2] + refs.left[3]) / 4
        assert sm.left[2] == pytest.approx(want_left2)

    def test_constant_refs_invariant(self):
        n = 4
        refs = I.ReferenceSamples(top=np.full(2 * n + 1, 0.3), left=np.full(2 * n, 0.3),
                                  available={k: True for k in I.SEGMENTS}, n=n)
        sm = smoothed(refs)
        np.testing.assert_allclose(sm.top, 0.3)
        np.testing.assert_allclose(sm.left, 0.3)


class TestBestModeSearch:
    def test_dc_wins_on_dc_target(self):
        refs = random_refs(11)
        target = I.predict_mode(refs, I.MODE_DC, 8)
        cost = I.best_mode_search(refs, target, 8, lam=10.0)
        assert cost.mode == I.MODE_DC
        assert cost.satd == 0.0

    def test_horizontal_stripes_pick_mode_10(self):
        refs = random_refs(12)
        target = np.repeat(refs.left[:8, None], 8, axis=1)
        cost = I.best_mode_search(refs, target, 8, lam=10.0)
        assert cost.mode == I.MODE_HORIZONTAL
        assert cost.satd == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_recheck(self, seed):
        gen = np.random.default_rng(100 + seed)
        refs = random_refs(seed)
        target = gen.random((8, 8))
        lam = I.hm_lambda(32)
        best = I.best_mode_search(refs, target, 8, lam)
        cfg = SatdConfig()
        for mode in range(35):
            pred = I.predict_mode(refs, mode, 8)
            total = satd(pred - target, cfg) * I.PIXEL_SCALE + lam * I.DEFAULT_MODE_BITS
            assert best.total <= total + 1e-9
        # and the winner's cost is attained exactly by its own mode
        pred = I.predict_mode(refs, best.mode, 8)
        recomputed = satd(pred - target, cfg) * I.PIXEL_SCALE
        assert best.satd == pytest.approx(recomputed, rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        n = 4
        refs = I.ReferenceSamples(top=np.full(2 * n + 1, 0.5), left=np.full(2 * n, 0.5),
                                  available={k: True for k in I.SEGMENTS}, n=n)
        target = np.full((n, n), 0.5)
        best = I.best_mode_search(refs, target, n, lam=1.0)
        assert best.mode == 0  # every mode ties at satd 0 and equal bits

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
            I.best_mode_search(random_refs(0), np.zeros((4, 4)), 8, lam=1.0)


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
        lines, available = I.reference_lines(img, origins, n, availability=avail)
        if smoothing:
            lines = I.smooth_lines(lines)
        modes, satds, preds = I.best_modes(lines, targets, n, lam)
        for i, (y, x) in enumerate(origins.tolist()):
            refs = reference_samples_loop(img, (y, x), n, availability=avail)
            assert available[i].tolist() == [refs.available[k] for k in I.SEGMENTS]
            if smoothing:
                refs = smooth_references_loop(refs)
            assert lines[i].tobytes() == np.concatenate([refs.left[::-1], refs.top]).tobytes()
            best, pred = mode_search_loop(refs, targets[i], n, lam)
            assert (int(modes[i]), float(satds[i])) == (best.mode, best.satd)
            assert preds[i].tobytes() == pred.tobytes()
            # the one-block API is a batch of one
            one = I.build_reference_samples(img, (y, x), n, availability=avail)
            if smoothing:
                one = smoothed(one)
            assert one.all_samples().tobytes() == refs.all_samples().tobytes()
            assert I.best_mode_search(one, targets[i], n, lam) == best

    def test_ties_break_to_lowest_index_per_block(self):
        # a flat image makes every mode predict the same block
        n = 4
        img = np.full((16, 16), 0.5, dtype=np.float32)
        origins = np.array([(0, 0), (4, 4), (8, 12)])
        lines, _ = I.reference_lines(img, origins, n)
        modes, satds, _ = I.best_modes(lines, np.full((3, n, n), 0.5), n, lam=1.0)
        assert modes.tolist() == [0, 0, 0] and satds.tolist() == [0.0, 0.0, 0.0]

    def test_block_outside_image(self):
        img = np.zeros((16, 16), dtype=np.float32)
        for origin in [(12, 0), (0, 12), (-1, 0)]:
            with pytest.raises(SizeError):
                I.reference_lines(img, np.array([(0, 0), origin]), 8)

    def test_shapes_checked(self):
        lines, _ = I.reference_lines(np.zeros((16, 16), np.float32), np.array([(4, 4)]), 4)
        with pytest.raises(ShapeError):
            I.best_modes(lines, np.zeros((2, 4, 4)), 4, lam=1.0)
        with pytest.raises(ShapeError):
            I.best_modes(lines, np.zeros((1, 4, 4)), 8, lam=1.0)
