import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dyadic_residue, fd_grad, rel_err
from oracles import satd_smooth
from psrnn import hadamard as H
from psrnn.errors import PartitionError, ShapeError


def brute_force_satd(d: np.ndarray, partition: int) -> float:
    """Independent oracle: naive triple-loop transform per tile, f64."""
    hm = H.hadamard_matrix(partition).astype(np.float64)
    p = partition
    total = 0.0
    for i in range(0, d.shape[0], p):
        for j in range(0, d.shape[1], p):
            tile = d[i : i + p, j : j + p]
            hd = np.zeros((p, p))
            for a in range(p):
                for bcol in range(p):
                    acc = 0.0
                    for k in range(p):
                        acc += hm[a, k] * tile[k, bcol]
                    hd[a, bcol] = acc
            for a in range(p):
                for bcol in range(p):
                    acc = 0.0
                    for k in range(p):
                        acc += hd[a, k] * hm[k, bcol]
                    total += abs(acc)
    return total


class TestHadamardMatrix:
    def test_order_one(self):
        np.testing.assert_array_equal(H.hadamard_matrix(1), [[1]])

    def test_order_two(self):
        np.testing.assert_array_equal(H.hadamard_matrix(2), [[1, 1], [1, -1]])

    def test_order_four_orthogonality(self):
        h4 = H.hadamard_matrix(4)
        np.testing.assert_array_equal(h4 @ h4.T, 4 * np.eye(4, dtype=np.int64))

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
    def test_exact_orthogonality_and_symmetry(self, order):
        h = H.hadamard_matrix(order)
        assert h.dtype == np.int64
        assert np.all(np.abs(h) == 1)
        np.testing.assert_array_equal(h, h.T)
        np.testing.assert_array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", [0, 3, 6, 12, -4])
    def test_invalid_order(self, order):
        with pytest.raises(ShapeError):
            H.hadamard_matrix(order)


class TestTransform:
    # the one tile transform behind satd, satd_batch and the gradient
    def test_zero_residue(self):
        out = H._transform_tiles(np.zeros((1, 4, 4)), 4)
        assert not out.any()

    def test_all_ones_concentrates_dc(self):
        out = H._transform_tiles(np.ones((1, 4, 4)), 4)[0, 0, 0]
        assert out[0, 0] == 16.0
        out[0, 0] = 0.0
        assert not out.any()

    def test_impulse_spreads_flat(self):
        d = np.zeros((1, 4, 4))
        d[0, 0, 0] = 1.0
        out = H._transform_tiles(d, 4)[0, 0, 0]
        np.testing.assert_array_equal(out, np.ones((4, 4)))

    def test_size_mismatch(self):
        with pytest.raises(PartitionError):
            H._transform_tiles(np.zeros((1, 4, 4)), 8)
        with pytest.raises(PartitionError):
            H._transform_tiles(np.zeros((1, 4, 2)), 4)
        with pytest.raises(ShapeError):
            H._transform_tiles(np.zeros((4, 4)), 4)


class TestSatd:
    def test_zero(self):
        assert H.satd(np.zeros((8, 8))) == 0.0

    def test_all_ones_4x4(self):
        assert H.satd(np.ones((4, 4)), H.SatdConfig(partition=4)) == 16.0

    def test_all_ones_8x8_tiles(self):
        assert H.satd(np.ones((8, 8)), H.SatdConfig(partition=4)) == 64.0

    def test_partition_must_divide(self):
        with pytest.raises(PartitionError):
            H.satd(np.zeros((6, 6)), H.SatdConfig(partition=4))

    def test_matches_brute_force_exactly(self):
        gen = np.random.default_rng(42)
        cfg = H.SatdConfig(partition=4)
        for _ in range(60):
            side = int(gen.choice([4, 8]))
            d = dyadic_residue(gen, (side, side))
            assert H.satd(d, cfg) == brute_force_satd(d, 4)

    @given(n=st.sampled_from([4, 8, 16, 32]), b=st.integers(1, 64),
           seed=st.integers(0, 10_000))
    def test_batch_agrees_with_scalar_path(self, n, b, seed):
        # the per-block mode search and the batched loss must agree bit for bit
        d = np.random.default_rng(seed).uniform(-1, 1, (b, n, n))
        cfg = H.SatdConfig(partition=4)
        got = H.satd_batch(d, cfg)
        want = [H.satd(d[i], cfg) for i in range(b)]
        assert got.tolist() == want

    @given(seed=st.integers(0, 10_000), scale=st.floats(-3.0, 3.0))
    def test_sign_symmetry_and_homogeneity(self, seed, scale):
        d = np.random.default_rng(seed).uniform(-1, 1, (8, 8))
        cfg = H.SatdConfig(partition=4)
        s = H.satd(d, cfg)
        assert np.isclose(H.satd(-d, cfg), s, rtol=1e-6)
        assert np.isclose(H.satd(scale * d, cfg), abs(scale) * s, rtol=1e-6, atol=1e-9)

    def test_identical_prediction_gives_exact_zero(self):
        pred = np.random.default_rng(1).random((8, 8)).astype(np.float32)
        d = pred.astype(np.float64) - pred.astype(np.float64)
        assert H.satd(d) == 0.0
        assert not H.satd_loss_grad_batch(d[None]).any()


class TestSatdGradient:
    def test_zero_residue_zero_gradient(self):
        assert not H.satd_loss_grad_batch(np.zeros((2, 8, 8))).any()

    def test_all_ones_gradient_is_one(self):
        g = H.satd_loss_grad_batch(np.ones((1, 4, 4)), H.SatdConfig(partition=4, epsilon=1e-8))
        assert np.max(np.abs(g - 1.0)) < 1e-3

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_matches_finite_differences(self, eps):
        gen = np.random.default_rng(17)
        cfg = H.SatdConfig(partition=4, epsilon=eps)
        h = 0.02 * np.sqrt(eps)  # resolve the sqrt(eps)-scale curvature
        for _ in range(12):
            d = gen.uniform(-1, 1, (4, 4))
            analytic = H.satd_loss_grad_batch(d[None], cfg)[0]
            ref = fd_grad(lambda x: satd_smooth(x, cfg), d, h=h)
            assert rel_err(analytic, ref) < 1e-4

    def test_batch_agrees_with_scalar_path(self):
        # a stack's gradients are each item's gradient as a batch of one
        gen = np.random.default_rng(23)
        d = gen.uniform(-1, 1, (6, 8, 8))
        cfg = H.SatdConfig(partition=4)
        got = H.satd_loss_grad_batch(d, cfg)
        for i in range(6):
            np.testing.assert_array_equal(got[i], H.satd_loss_grad_batch(d[i : i + 1], cfg)[0])

    def test_smoothed_loss_upper_bounds_satd(self):
        d = np.random.default_rng(3).uniform(-1, 1, (8, 8))
        cfg = H.SatdConfig(partition=4, epsilon=1e-6)
        assert satd_smooth(d, cfg) >= H.satd(d, cfg)


class TestSatdConfig:
    def test_rejects_bad_partition(self):
        with pytest.raises(ShapeError):
            H.SatdConfig(partition=3)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ShapeError):
            H.SatdConfig(epsilon=0.0)
