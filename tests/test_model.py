import tracemalloc

import numpy as np
import pytest

from conftest import (directional_check, min_kink_margin, record_conv_slabs,
                      record_sweep_slabs, rewrite_config_text)
from psrnn import model as M
from psrnn import tensor as T
from psrnn.errors import ConfigError, IntegrityError, ShapeError, UsageError, VersionError
from psrnn.layers import AdamState, adam_step
from oracles import conv_backward_scatter, conv_forward_whole, gru_sequence_forward

TINY = M.NetworkConfig(pu_size=4, preproc_channels=(2, 2), unit_hidden=(2, 2),
                       recon_channels=(2,))
# the widths of the determinism-test network
LEAN_WIDTHS = dict(preproc_channels=(4, 4), unit_hidden=(4, 2, 2), recon_channels=(4,))
NARROW_GRU = dict(unit_hidden=(1, 1, 1))  # GRU widths 8, 4 and 4 at N=4


def use_whole_matrix_convs(monkeypatch):
    """Run the network's convs as whole-patch-matrix GEMMs and scatters (oracles)."""
    monkeypatch.setattr(M, "conv2d_forward_batch", conv_forward_whole)
    monkeypatch.setattr(M, "conv2d_backward_batch", conv_backward_scatter)


class TestConfig:
    def test_defaults(self):
        c = M.NetworkConfig()
        assert c.context_size == 16
        assert len(c.unit_hidden) == 3

    def test_bad_pu_size(self):
        with pytest.raises(ConfigError):
            M.NetworkConfig(pu_size=12)

    def test_bad_gate(self):
        with pytest.raises(ConfigError):
            M.NetworkConfig(gate_activation="relu")

    def test_empty_units(self):
        with pytest.raises(ConfigError):
            M.NetworkConfig(unit_hidden=())

    def test_bad_availability(self):
        with pytest.raises(ConfigError):
            M.NetworkConfig(availability_mode="two-block")

    def test_even_fusion_kernel(self):
        with pytest.raises(ConfigError):
            M.NetworkConfig(fusion_kernel=2)


class TestForward:
    @pytest.mark.parametrize("n", [4, 8])
    def test_output_shape(self, n):
        net = M.build_network(M.NetworkConfig(pu_size=n), seed=0)
        ctx = np.random.default_rng(0).random((1, 2 * n, 2 * n)).astype(np.float32)
        pred, _ = M.forward_batch(net, ctx, need_cache=False)
        assert pred.shape == (1, n, n)

    def test_wrong_context_size(self):
        net = M.build_network(M.NetworkConfig(pu_size=8), seed=0)
        with pytest.raises(ShapeError):
            M.forward_batch(net, np.zeros((1, 8, 8), np.float32), need_cache=False)
        with pytest.raises(ShapeError):
            M.forward_batch(net, np.zeros((16, 16), np.float32), need_cache=False)

    def test_output_clipped_regardless_of_weights(self):
        net = M.build_network(TINY, seed=3)
        for arr in M.parameters(net).values():
            arr[...] = arr * 40.0  # force the pre-clip output out of range
        ctx = np.random.default_rng(1).random((1, 8, 8)).astype(np.float32)
        pred, _ = M.forward_batch(net, ctx, need_cache=False)
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_batch_matches_single(self):
        net = M.build_network(TINY, seed=5)
        ctxs = np.random.default_rng(2).random((3, 8, 8))
        preds, _ = M.forward_batch(net, ctxs)
        for i in range(3):
            one, _ = M.forward_batch(net, ctxs[i : i + 1], need_cache=False)
            assert one[0].tobytes() == preds[i].tobytes()

    @pytest.mark.parametrize("widths", [{}, LEAN_WIDTHS, NARROW_GRU],
                             ids=["default", "lean", "narrow-gru"])
    @pytest.mark.parametrize("n, b", [(4, 24), (8, 16), (16, 8), (32, 5)])
    def test_predictions_do_not_depend_on_the_chunk(self, n, b, widths, monkeypatch, request):
        # the guard of batch invariance, which rests on how OpenBLAS picks its
        # kernels (see tensor.MIN_GEMM_COLS and model.MIN_BATCH): a context's
        # prediction has the same bits in every chunk size from 1 to the
        # whole batch, lean or cached, and with every conv and sweep split
        # into slabs of one sample (both caps forced); narrow-gru at N=4 runs
        # GEMMs under 8 columns in the GRU step loop
        if n == 32 and widths is NARROW_GRU:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "under the sweep's cap SLAB_BYTES = 2**12 the first sweep projects one "
                "step, 5 rows of 192 columns, at a time, and OpenBLAS gives them other "
                "bits than the whole product; the chunk sizes alone keep the bits")))
        net = M.build_network(M.NetworkConfig(pu_size=n, **widths), seed=n)
        ctxs = np.random.default_rng(n).random((b, 2 * n, 2 * n)).astype(np.float32)
        want = M.forward_batch(net, ctxs, need_cache=False)[0].tobytes()
        for chunk in range(1, b + 1):
            for need_cache in (False, True):
                got = np.concatenate([M.forward_batch(net, ctxs[i : i + chunk], need_cache)[0]
                                      for i in range(0, b, chunk)])
                assert got.tobytes() == want, (chunk, need_cache)
        monkeypatch.setattr(T, "SLAB_BYTES", 2**12)
        monkeypatch.setattr(T, "CONV_SLAB_BYTES", 2**12)
        for need_cache in (False, True):
            assert M.forward_batch(net, ctxs, need_cache)[0].tobytes() == want

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_lean_forward_matches_cached(self, n, monkeypatch):
        # the inference pass keeps no cache and computes the bits of the
        # cached pass and of whole-patch-matrix convs, also on a whole
        # level's batch (at N=8 the 225 tiles of a 128x128 image) and on a
        # batch of 128, where its convs split into several slabs; from N=8
        # up even a batch of 3, run as 4, splits. A batch of 128 at N=32 is
        # left out: its whole patch matrices alone would take 600 MiB.
        chunk = {4: 256, 8: 225, 16: 64, 32: 16}[n]
        cases = [(3, {}, n >= 8), (chunk, {}, True), (chunk, LEAN_WIDTHS, True)]
        if n < 32:
            cases += [(128, {}, True), (128, LEAN_WIDTHS, True)]
        for b, widths, splits in cases:
            net = M.build_network(M.NetworkConfig(pu_size=n, **widths), seed=n)
            ctxs = np.random.default_rng(n).random((b, 2 * n, 2 * n)).astype(np.float32)
            with monkeypatch.context() as m:
                use_whole_matrix_convs(m)
                want, _ = M.forward_batch(net, ctxs, need_cache=False)
            preds, caches = M.forward_batch(net, ctxs)
            assert caches is not None
            del caches
            with monkeypatch.context() as m:
                slabs = record_conv_slabs(m)
                lean, none = M.forward_batch(net, ctxs, need_cache=False)
            assert none is None
            assert lean.tobytes() == preds.tobytes() == want.tobytes()
            assert (max(slabs) > 1) == splits

    def test_sweep_projection_slabs(self, monkeypatch):
        # the eval chunks of a 128x128 image (greedy: N=16 at 12-13 contexts
        # and N=8 at 49; fixed N=8: 56-57) project the first unit's inputs
        # in two slabs of steps under 2 MiB each (see tensor.SLAB_BYTES), and
        # 225 contexts in six; the batch-32 training step's 1.5 MiB
        # projection and every later unit's stay one GEMM
        slabs = record_sweep_slabs(monkeypatch)
        for n, b, need_cache, first_unit in [(16, 13, False, 2), (8, 49, False, 2),
                                             (8, 57, False, 2), (8, 32, True, 1),
                                             (8, 225, False, 6)]:
            net = M.build_network(M.NetworkConfig(pu_size=n), seed=n)
            ctxs = np.random.default_rng(n).random((b, 2 * n, 2 * n))
            slabs.clear()
            M.forward_batch(net, ctxs, need_cache)
            assert slabs == [first_unit] * 2 + [1] * 4


class TestUnit:
    def test_zero_weights_give_fusion_bias_map(self):
        net = M.build_network(TINY, seed=0)
        unit = dict(net.layers)["u0"]
        for gru in (unit.gru_h, unit.gru_v):
            for v in gru.named().values():
                v[...] = 0
        unit.fusion.w[...] = 0
        unit.fusion.b[...] = 0.7
        feat = np.random.default_rng(0).random((1, 8, 8, 2))
        out, _ = M.unit_forward_batch(unit, feat, "sigmoid")
        np.testing.assert_allclose(out, 0.7, rtol=1e-6)

    def test_constant_rows_follow_manual_recurrence(self):
        # every row plane is identical, so the horizontal sweep must equal
        # the plain recurrence driven by that one constant input vector
        net = M.build_network(TINY, seed=8)
        unit = dict(net.layers)["u0"]
        gen = np.random.default_rng(4)
        plane = gen.random((8, 2))
        feat = np.broadcast_to(plane, (8, 8, 2)).astype(np.float64)
        _, cache = M.unit_forward_batch(unit, feat[None], "sigmoid")
        cache_h = cache[1]
        x = plane.reshape(1, -1)
        steps = gru_sequence_forward(unit.gru_h, [x] * 8, np.zeros((1, unit.gru_h.hidden)))
        for t in range(8):
            np.testing.assert_allclose(cache_h.hs[t], steps[t].h, rtol=1e-9)

    def test_sweep_causality(self):
        net = M.build_network(TINY, seed=9)
        unit = dict(net.layers)["u0"]
        gen = np.random.default_rng(6)
        feat = gen.random((1, 8, 8, 2))
        _, cache = M.unit_forward_batch(unit, feat, "sigmoid")
        t = 4
        bumped = feat.copy()
        bumped[:, t + 1] += 0.3  # later row only
        _, cache2 = M.unit_forward_batch(unit, bumped, "sigmoid")
        hs1, hs2 = cache[1].hs, cache2[1].hs
        for k in range(t + 1):
            np.testing.assert_array_equal(hs1[k], hs2[k])
        assert not np.array_equal(hs1[t + 1], hs2[t + 1])

    def test_single_sample_wrapper_shape(self):
        # a single feature map goes through the unit as a batch of one
        net = M.build_network(TINY, seed=1)
        unit = dict(net.layers)["u0"]
        out, _ = M.unit_forward_batch(unit, np.zeros((1, 8, 8, 2)), "sigmoid")
        assert out.shape == (1, 8, 8, 2)
        with pytest.raises(ShapeError):
            M.unit_forward_batch(unit, np.zeros((8, 8, 2)), "sigmoid")


GATES = ("Wz", "Uz", "Wr", "Ur", "W", "U")


def gru_gate_names(net):
    for i in range(len(net.config.unit_hidden)):
        for tag in ("h", "v"):
            for gate in GATES:
                yield f"u{i}.{tag}.{gate}"


class TestGruViews:
    # parameters(net) names each GRU gate as a view of its unit's stacked arrays

    def test_named_gates_share_the_stacks(self):
        net = M.build_network(TINY, seed=3)
        params = M.parameters(net)
        for i in range(len(net.config.unit_hidden)):
            unit = dict(net.layers)[f"u{i}"]
            for tag, gru in (("h", unit.gru_h), ("v", unit.gru_v)):
                stacks = {"Wz": gru.Wx, "Wr": gru.Wx, "W": gru.Wx,
                          "Uz": gru.Uzr, "Ur": gru.Uzr, "U": gru.U}
                for gate, stack in stacks.items():
                    assert np.shares_memory(params[f"u{i}.{tag}.{gate}"], stack), (i, tag, gate)

    def test_adam_step_through_names_changes_forward(self):
        net = M.build_network(TINY, seed=3)
        ctx = np.random.default_rng(2).random((2, 8, 8))
        before, _ = M.forward_batch(net, ctx, need_cache=False)
        params = M.parameters(net)
        gates = set(gru_gate_names(net))
        # only the gate matrices get a gradient, so any change comes through the views
        grads = {k: np.full(v.shape, 1.0 if k in gates else 0.0) for k, v in params.items()}
        adam_step(params, grads, AdamState(), lr=0.05)
        after, _ = M.forward_batch(net, ctx, need_cache=False)
        assert not np.array_equal(before, after)

    def test_save_load_keeps_every_named_array(self, tmp_path):
        net = M.build_network(TINY, seed=3)
        params = M.parameters(net)
        gen = np.random.default_rng(5)
        for name in gru_gate_names(net):
            params[name][...] = gen.uniform(-1, 1, params[name].shape)
        M.save_model(net, tmp_path / "m.psrnn")
        loaded = M.load_model(tmp_path / "m.psrnn")
        got = M.parameters(loaded)
        assert list(got) == list(params)
        for k, v in params.items():
            np.testing.assert_array_equal(got[k], v, err_msg=k)
        assert np.shares_memory(got["u0.h.Ur"], dict(loaded.layers)["u0"].gru_h.Uzr)


def single_backward(net, ctx, grad_pred):
    _, caches = M.forward_batch(net, ctx[None])
    return M.backward_batch(net, caches, grad_pred[None])


class TestBackward:
    def test_zero_upstream_grad(self):
        net = M.build_network(TINY, seed=2)
        ctx = np.random.default_rng(0).random((8, 8))
        grads = single_backward(net, ctx, np.zeros((4, 4)))
        assert set(grads) == set(M.parameters(net))
        for v in grads.values():
            assert not v.any()

    def test_identical_calls_identical_gradients(self):
        net = M.build_network(TINY, seed=2)
        gen = np.random.default_rng(1)
        ctx = gen.random((8, 8))
        g = gen.random((4, 4))
        g1 = single_backward(net, ctx, g)
        g2 = single_backward(net, ctx, g)
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_network_input_gradient_is_skipped(self, monkeypatch):
        # only the first preprocessing conv, on the one-channel context,
        # computes no input gradient, and the parameter gradients keep
        # their bits
        net = M.build_network(M.NetworkConfig(pu_size=8), seed=4)
        gen = np.random.default_rng(4)
        ctxs = gen.random((4, 16, 16))
        grad = gen.uniform(-1, 1, (4, 8, 8))
        full = T.conv2d_backward_batch
        monkeypatch.setattr(M, "conv2d_backward_batch",
                            lambda *args: full(*args[:4], need_grad_x=True))
        want = M.backward_batch(net, M.forward_batch(net, ctxs)[1], grad)
        requests = []

        def recording(x, w, spec, grad_out, need_grad_x=True):
            requests.append((x.shape[-1], need_grad_x))
            return full(x, w, spec, grad_out, need_grad_x)

        monkeypatch.setattr(M, "conv2d_backward_batch", recording)
        got = M.backward_batch(net, M.forward_batch(net, ctxs)[1], grad)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        convs = len(net.layers)  # a unit's one conv is its fusion conv
        assert len(requests) == convs and requests[-1] == (1, False)
        assert all(cin > 1 and need for cin, need in requests[:-1])

    @pytest.mark.parametrize("b", [16, 32])
    @pytest.mark.parametrize("widths", [{}, LEAN_WIDTHS], ids=["default", "lean"])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_gradients_match_whole_matrix_reference(self, n, widths, b, monkeypatch):
        # a training step at the CLI's batch (32) and the determinism run's
        # (16): the slabbed forwards and the per-tap input gradients give
        # the bits of whole-patch-matrix GEMMs and the tap-by-tap scatter.
        # OpenBLAS picks its kernel by GEMM shape (see tensor.MIN_GEMM_COLS), so
        # this runs every conv shape of these networks, not a sample.
        net = M.build_network(M.NetworkConfig(pu_size=n, **widths), seed=n)
        gen = np.random.default_rng(n + b)
        ctxs = gen.random((b, 2 * n, 2 * n)).astype(np.float32)
        grad = gen.uniform(-1, 1, (b, n, n))
        preds, caches = M.forward_batch(net, ctxs)
        got = M.backward_batch(net, caches, grad)
        del caches
        use_whole_matrix_convs(monkeypatch)
        want_preds, caches = M.forward_batch(net, ctxs)
        want = M.backward_batch(net, caches, grad)
        assert preds.tobytes() == want_preds.tobytes()
        assert list(got) == list(want)
        assert [k for k in want if got[k].tobytes() != want[k].tobytes()] == []

    def test_training_step_memory(self):
        # N=8, batch 32: no layer cache holds a patch matrix, the backward
        # frees each conv's patch matrix before its input gradient, and each
        # layer's cache once its backward is done, so the later layers'
        # caches are gone when the first unit's fusion conv regathers its
        # 9 MiB patch matrix: 19.81 MiB (22.66 MiB when the caches lived
        # until the backward returned, 42.9 MiB when the cache kept every
        # conv's whole patch matrix)
        net = M.build_network(M.NetworkConfig(pu_size=8), seed=8)
        gen = np.random.default_rng(8)
        ctxs = gen.random((32, 16, 16)).astype(np.float32)
        grad = gen.uniform(-1, 1, (32, 8, 8))
        tracemalloc.start()
        try:
            _, caches = M.forward_batch(net, ctxs)
            M.backward_batch(net, caches, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21 * 2**20

    def test_cache_serves_one_backward(self):
        net = M.build_network(TINY, seed=2)
        gen = np.random.default_rng(2)
        _, caches = M.forward_batch(net, gen.random((4, 8, 8)))
        M.backward_batch(net, caches, gen.uniform(-1, 1, (4, 4, 4)))
        assert caches[0] == [None] * len(net.layers)
        with pytest.raises(UsageError, match="served a backward"):
            M.backward_batch(net, caches, gen.uniform(-1, 1, (4, 4, 4)))

    def test_finite_difference_spot_check(self):
        # full-coverage FD checks live in the acceptance suite; this guards
        # the plumbing on a tiny model. Directional differences keep the
        # check robust to activation kinks; seed 22 gives an evaluation
        # point with a comfortable margin to every kink.
        net = M.build_network(TINY, seed=22)
        gen = np.random.default_rng(3)
        ctx = gen.random((1, 8, 8))
        probe = gen.uniform(-1, 1, (1, 4, 4))
        # keep the pre-clip output away from the clip kink
        M.parameters(net)["rec1.b"][...] = 0.5
        preds, caches = M.forward_batch(net, ctx)
        assert 0.02 < preds.min() and preds.max() < 0.98
        margin = min_kink_margin(caches)
        h = min(2e-5, margin / 20)
        assert h > 1e-8
        grads = M.backward_batch(net, caches, probe)
        params = M.parameters(net)

        def loss():
            return float(np.sum(M.forward_batch(net, ctx)[0] * probe))

        for name, arr in params.items():
            err = directional_check(loss, arr, grads[name], gen, h=h)
            assert err < 1e-3, f"{name}: {err}"


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        net = M.build_network(M.NetworkConfig(pu_size=8), seed=4)
        path = tmp_path / "m.psrnn"
        M.save_model(net, path)
        loaded = M.load_model(path)
        assert loaded.config == net.config
        p1, p2 = M.parameters(net), M.parameters(loaded)
        for k in p1:
            assert p1[k].tobytes() == p2[k].tobytes(), k
        ctx = np.random.default_rng(0).random((1, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(M.forward_batch(net, ctx, need_cache=False)[0],
                                      M.forward_batch(loaded, ctx, need_cache=False)[0])

    def test_truncated_file(self, tmp_path):
        net = M.build_network(TINY, seed=0)
        path = tmp_path / "m.psrnn"
        M.save_model(net, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IntegrityError):
            M.load_model(path)

    def test_corrupt_byte(self, tmp_path):
        net = M.build_network(TINY, seed=0)
        path = tmp_path / "m.psrnn"
        M.save_model(net, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            M.load_model(path)

    def test_repeated_record(self, tmp_path):
        # a CRC-valid file with a second rec1.b record: the last copy used to win
        import struct, zlib

        net = M.build_network(TINY, seed=0)
        path = tmp_path / "m.psrnn"
        M.save_model(net, path)
        bias = M.parameters(net)["rec1.b"]
        data = bytearray(path.read_bytes())[:-4]
        data += struct.pack("<I", len(b"rec1.b")) + b"rec1.b" + struct.pack("<BI", 1, bias.size)
        data += np.full(bias.size, 0.123, dtype="<f4").tobytes()
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="rec1.b"):
            M.load_model(path)

    def test_version_mismatch(self, tmp_path):
        import struct, zlib

        net = M.build_network(TINY, seed=0)
        path = tmp_path / "m.psrnn"
        M.save_model(net, path)
        data = bytearray(path.read_bytes())[:-4]
        data[8:12] = struct.pack("<I", 99)
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            M.load_model(path)

    @pytest.mark.parametrize("edit", [
        (b"fill_value=0.5\n", b""),          # a key is missing
        (b"pu_size=4", b"pu_size=four"),      # a value is not a number
        (b"gate_activation=sigmoid", b"gate_activation=\xff\xfeigmoid"),  # not UTF-8
        (b"fill_value=0.5\n", b"fill_value=0.5\nwidth=3\n"),  # a key NetworkConfig lacks
        (b"pu_size=4\n", b"pu_size=8\npu_size=4\n"),  # a key twice; the last used to win
        (b"pu_size=4\n", b"pu_size=4\nsigmoid\n"),  # a line without "="
    ], ids=["missing-key", "non-integer", "non-utf8", "unknown-key", "repeated-key",
            "no-equals"])
    def test_corrupt_config_text(self, tmp_path, edit):
        path = tmp_path / "m.psrnn"
        M.save_model(M.build_network(TINY, seed=0), path)
        rewrite_config_text(path, *edit)
        with pytest.raises(IntegrityError):
            M.load_model(path)

    def test_wide_config_rejected_before_building(self, tmp_path):
        # a lean model file whose config text asks for a 999-wide first unit:
        # its network would hold about 5.8 GiB of float32, more floats than the
        # records carry, so load_model refuses before it builds anything
        path = tmp_path / "m.psrnn"
        M.save_model(M.build_network(M.NetworkConfig(pu_size=8, **LEAN_WIDTHS), seed=0),
                     path)
        rewrite_config_text(path, b"unit_hidden=4,2,2", b"unit_hidden=999,2,2")
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match="smaller than the stored config"):
                M.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("widths", [{}, LEAN_WIDTHS, dict(
        preproc_channels=(3,), unit_hidden=(2, 5, 1, 3), recon_channels=(), fusion_kernel=5)],
        ids=["default", "lean", "odd"])
    def test_parameter_count_matches_built_network(self, n, widths):
        config = M.NetworkConfig(pu_size=n, **widths)
        built = M.parameters(M.build_network(config))
        assert M.parameter_count(config) == sum(v.size for v in built.values())

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_layer_order(self, count):
        # the unit counts ablate-units builds: data order puts `down` right
        # after the first unit, the model file's order after the last one
        net = M.build_network(M.NetworkConfig(unit_hidden=(8,) + (4,) * (count - 1)))
        units = [f"u{i}" for i in range(count)]
        assert [p for p, _ in net.layers] == ["pre0", "pre1", "u0", "down", *units[1:],
                                              "rec0", "rec1"]
        stored = dict.fromkeys(name.split(".")[0] for name in M.parameters(net))
        assert list(stored) == ["pre0", "pre1", *units, "down", "rec0", "rec1"]

    def test_clone_is_independent(self):
        net = M.build_network(TINY, seed=6)
        twin = M.clone_network(net)
        p1, p2 = M.parameters(net), M.parameters(twin)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])
        p2["rec1.b"][...] = 9.0
        assert p1["rec1.b"][0] != 9.0
        for a in p1.values():
            for b in p2.values():
                assert not np.shares_memory(a, b)

