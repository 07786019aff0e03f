import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import record_conv_slabs, rel_err
from oracles import conv_forward_whole, sigmoid_two_branch
from psrnn import layers as L
from psrnn import model as M
from psrnn import tensor as T
from psrnn.errors import ShapeError, UsageError


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through the conv kernel: rows of a as 1x1 pixels, b as 1x1 weights."""
    m, k = a.shape
    spec = T.ConvSpec(kernel_h=1, kernel_w=1, in_channels=k, out_channels=b.shape[1])
    return T.conv2d_forward_batch(a.reshape(1, 1, m, k), b.reshape(1, 1, *b.shape),
                                  None, spec)[0, 0]


class TestMatmul:
    # the package's matrix product is the conv kernel's GEMM; a 1x1
    # convolution is exactly a matrix product over channels
    def test_identity(self):
        x = np.array([[3.0, 1.0], [2.0, -4.0]])
        np.testing.assert_array_equal(_matmul(x, np.eye(2)), x)

    def test_hand_checkable(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(_matmul(a, b), [[2], [0]])

    def test_against_naive_f64_loops(self):
        gen = np.random.default_rng(11)
        for _ in range(5):
            a = gen.uniform(-1, 1, (8, 8))
            b = gen.uniform(-1, 1, (8, 8))
            want = np.zeros((8, 8))
            for i in range(8):
                for j in range(8):
                    acc = 0.0
                    for k in range(8):
                        acc += float(a[i, k]) * float(b[k, j])
                    want[i, j] = acc
            assert np.max(np.abs(_matmul(a, b) - want)) < 1e-12

    def test_inner_dim_mismatch(self):
        spec = T.ConvSpec(kernel_h=1, kernel_w=1, in_channels=3, out_channels=3)
        with pytest.raises(ShapeError):
            T.conv2d_forward_batch(np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 2, 3)), None, spec)

    def test_rank_check(self):
        spec = T.ConvSpec(kernel_h=1, kernel_w=1, in_channels=3, out_channels=3)
        with pytest.raises(ShapeError):
            T.conv2d_forward_batch(np.zeros((2, 3)), np.zeros((1, 1, 3, 3)), None, spec)


class TestElementwise:
    # the package's elementwise activations are the GRU gate functions
    def test_analytic_values(self):
        assert L.sigmoid64(np.zeros(1), out=None)[0] == 0.5
        act, deriv = L._gate_fn("tanh")
        assert act(np.zeros(1))[0] == 0.0 and deriv(np.zeros(1))[0] == 1.0

    def test_sigmoid_matches_two_branch_oracle(self):
        # one division by 1 + exp(-|x|), its numerator selected by a maximum,
        # keeps both tails' bits: signed zeros, subnormals, exp underflow and
        # NaN included
        edges = [0.0, 5e-324, 1e-300, 1.0, 36.0, 745.0, 800.0, np.inf, np.nan]
        gen = np.random.default_rng(0)
        x = np.concatenate([edges, np.negative(edges)]
                           + [gen.standard_normal(100_000) * s for s in (0.1, 3.0, 30.0, 300.0)])
        assert L.sigmoid64(x, out=None).tobytes() == sigmoid_two_branch(x).tobytes()

    def test_sigmoid_in_place(self):
        # the GRU sweep writes its gates over their pre-activations
        gen = np.random.default_rng(1)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
                            gen.standard_normal(9_996) * 30.0]).reshape(-1, 7)
        want = L.sigmoid64(x.copy(), out=None)
        assert L.sigmoid64(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    def test_dispatcher(self):
        act, deriv = L._gate_fn("sigmoid")
        np.testing.assert_array_equal(act(np.array([0.0]), out=None), [0.5])
        np.testing.assert_array_equal(deriv(np.array([0.5])), [0.25])
        with pytest.raises(UsageError):
            L._gate_fn("nope")


class TestSplitPlanes:
    # the recurrent unit's plane split, (b, n, n, c) <-> (n, b, n * c)
    def test_horizontal_2x2(self):
        t = np.arange(4.0).reshape(1, 2, 2, 1)
        rows = M._to_planes(t, "horizontal")
        np.testing.assert_array_equal(rows[0, 0], [0, 1])
        np.testing.assert_array_equal(rows[1, 0], [2, 3])

    def test_vertical_2x2(self):
        t = np.arange(4.0).reshape(1, 2, 2, 1)
        cols = M._to_planes(t, "vertical")
        np.testing.assert_array_equal(cols[0, 0], [0, 2])
        np.testing.assert_array_equal(cols[1, 0], [1, 3])

    def test_round_trip_8x8x4(self):
        gen = np.random.default_rng(3)
        t = gen.standard_normal((2, 8, 8, 4))
        for axis in ("horizontal", "vertical"):
            back = M._from_planes(M._to_planes(t, axis), axis, 4)
            assert np.ascontiguousarray(back).tobytes() == t.tobytes()

    @given(b=st.integers(1, 3), n=st.integers(1, 6), c=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_round_trip_property(self, b, n, c, seed):
        t = np.random.default_rng(seed).standard_normal((b, n, n, c))
        for axis in ("horizontal", "vertical"):
            assert np.array_equal(M._from_planes(M._to_planes(t, axis), axis, c), t)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            M._to_planes(np.zeros((1, 2, 3, 1)), "horizontal")
        with pytest.raises(ShapeError):
            M._to_planes(np.zeros((2, 2, 1)), "horizontal")


def _spec(kh, kw, stride, pad, cin, cout):
    return T.ConvSpec(kernel_h=kh, kernel_w=kw, stride=stride, padding=pad,
                      in_channels=cin, out_channels=cout)


class TestConv2d:
    # a single map is a batch of one
    def test_1x1_identity(self):
        x = np.random.default_rng(0).random((1, 5, 5, 1))
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        out = T.conv2d_forward_batch(x, w, b, _spec(1, 1, 1, 0, 1, 1))
        np.testing.assert_array_equal(out, x)

    def test_all_ones_center_sum(self):
        x = np.ones((1, 5, 5, 1))
        w = np.ones((3, 3, 1, 1))
        b = np.zeros(1)
        out = T.conv2d_forward_batch(x, w, b, _spec(3, 3, 1, 1, 1, 1))[0]
        assert out[2, 2, 0] == 9.0
        assert out[0, 0, 0] == 4.0  # corner only overlaps a 2x2 region
        assert out[0, 2, 0] == 6.0

    def test_stride2_output_size(self):
        x = np.zeros((1, 16, 16, 3))
        w = np.zeros((3, 3, 3, 5))
        b = np.zeros(5)
        out = T.conv2d_forward_batch(x, w, b, _spec(3, 3, 2, 1, 3, 5))
        assert out.shape == (1, 8, 8, 5)

    def test_zero_grad_out(self):
        gen = np.random.default_rng(5)
        x = gen.random((1, 4, 4, 2))
        w = gen.random((3, 3, 2, 3))
        spec = _spec(3, 3, 1, 1, 2, 3)
        gx, gw, gb = T.conv2d_backward_batch(x, w, spec, np.zeros((1, 4, 4, 3)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_conv_grad_passthrough(self):
        x = np.random.default_rng(1).random((1, 4, 4, 1))
        w = np.ones((1, 1, 1, 1))
        g = np.random.default_rng(2).random((1, 4, 4, 1))
        gx, gw, gb = T.conv2d_backward_batch(x, w, _spec(1, 1, 1, 0, 1, 1), g)
        np.testing.assert_array_equal(gx, g)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients_match_finite_differences(self, seed):
        gen = np.random.default_rng(seed)
        kh = int(gen.integers(1, 4))
        kw = int(gen.integers(1, 4))
        stride = int(gen.integers(1, 3))
        pad = int(gen.integers(0, 2))
        cin = int(gen.integers(1, 3))
        cout = int(gen.integers(1, 3))
        side = int(gen.integers(max(kh, kw), 9))
        spec = _spec(kh, kw, stride, pad, cin, cout)
        try:
            oh = spec.out_extent(side, kh)
            ow = spec.out_extent(side, kw)
        except ShapeError:
            return
        x = gen.uniform(-1, 1, (1, side, side, cin))
        w = gen.uniform(-1, 1, (kh, kw, cin, cout))
        b = gen.uniform(-1, 1, cout)
        probe = gen.uniform(-1, 1, (1, oh, ow, cout))

        def loss(xx, ww, bb):
            return float(np.sum(T.conv2d_forward_batch(xx, ww, bb, spec) * probe))

        gx, gw, gb = T.conv2d_backward_batch(x, w, spec, probe)
        h = 1.0 / 1024
        for arr, analytic, fn in (
            (x, gx, lambda a: loss(a, w, b)),
            (w, gw, lambda a: loss(x, a, b)),
            (b, gb, lambda a: loss(x, w, a)),
        ):
            ref = np.zeros(arr.shape)
            flat = arr.ravel()
            rflat = ref.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = fn(arr)
                flat[i] = orig - h
                fm = fn(arr)
                flat[i] = orig
                rflat[i] = (fp - fm) / (2 * h)
            assert rel_err(analytic, ref) < 1e-4

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cout, b, oh, cin", [
        (1, 229, 32, 4), (2, 115, 32, 4), (4, 58, 32, 4), (8, 29, 32, 4),
        (4, 147, 32, 4), (8, 76, 32, 4), (8, 3, 64, 16), (8, 56, 16, 8), (8, 56, 16, 16)])
    def test_slabs_match_patch_matrix_path(self, cout, b, oh, cin, stride):
        # the forward splits these batches into several slabs (three of one
        # sample for the 64x64 maps; 19 uneven ones for an N=8 eval chunk's
        # 8 -> 8 convs, 56 of one sample for its 16 -> 8 fusion convs),
        # multiplies the narrow ones by a zero-padded weight, and must give
        # the bits of one product over the whole patch matrix
        assert len(T._slab_bounds(b, oh * oh * 9 * cin * 8, T.CONV_SLAB_BYTES)) > 2
        gen = np.random.default_rng(cout + 10 * stride)
        x = gen.random((b, oh * stride, oh * stride, cin))
        w = gen.uniform(-1, 1, (3, 3, cin, cout))
        bias = gen.uniform(-1, 1, cout)
        spec = _spec(3, 3, stride, 1, cin, cout)
        want = conv_forward_whole(x, w, bias, spec)
        assert T.conv2d_forward_batch(x, w, bias, spec).tobytes() == want.tobytes()

    @given(st.integers(0, 600), st.integers(0, 3 * T.SLAB_BYTES),
           st.sampled_from([T.CONV_SLAB_BYTES, T.SLAB_BYTES]))
    def test_slab_bounds_are_balanced_and_bounded(self, b, sample_bytes, cap):
        bounds = T._slab_bounds(b, sample_bytes, cap)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == b
        assert sizes.max() - sizes.min() <= 1
        # under the cap unless one sample alone exceeds it, in the fewest slabs
        assert sizes.max() * sample_bytes <= cap or sizes.max() <= 1
        per = max(1, cap // max(1, sample_bytes))
        assert len(sizes) == 1 or (len(sizes) - 1) * per < b

    def test_forward_holds_one_slab(self, monkeypatch):
        # a preprocessing conv of 225 samples of 16x16x8 -> 8 in 75 slabs of
        # under 512 KiB of patch rows, beside the 3.5 MiB output: 4.01 MiB
        # peak. The forward drops each slab's patch matrix before it gathers
        # the next (4.43 MiB peak while two slabs were alive at once; 5.77
        # MiB under the former 2 MiB cap)
        gen = np.random.default_rng(225)
        x = gen.random((225, 16, 16, 8))
        w = gen.uniform(-1, 1, (3, 3, 8, 8))
        bias = gen.uniform(-1, 1, 8)
        spec = _spec(3, 3, 1, 1, 8, 8)
        slabs = record_conv_slabs(monkeypatch)
        tracemalloc.start()
        try:
            T.conv2d_forward_batch(x, w, bias, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slabs == [75]
        assert peak < 4.25 * 2**20

    def test_shape_errors(self):
        spec = _spec(3, 3, 1, 1, 2, 3)
        with pytest.raises(ShapeError):
            T.conv2d_forward_batch(np.zeros((1, 4, 4, 1)), np.zeros((3, 3, 2, 3)),
                                   np.zeros(3), spec)
        with pytest.raises(ShapeError):
            T.conv2d_forward_batch(np.zeros((4, 4, 2)), np.zeros((3, 3, 2, 3)),
                                   np.zeros(3), spec)
        with pytest.raises(ShapeError):
            T.conv2d_backward_batch(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2, 3)),
                                    spec, np.zeros((1, 5, 5, 3)))

    def test_conv_spec_validation(self):
        with pytest.raises(ShapeError):
            _spec(0, 3, 1, 0, 1, 1)
        with pytest.raises(ShapeError):
            _spec(3, 3, 1, -1, 1, 1)
        with pytest.raises(ShapeError):
            _spec(9, 9, 1, 0, 1, 1).out_extent(4, 9)
