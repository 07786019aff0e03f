import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import record_sweep_slabs, rel_err
from oracles import gru_sequence_backward, gru_sequence_forward, gru_sweep_whole
from psrnn import layers as L
from psrnn.errors import ConfigError, ShapeError, UsageError
from psrnn.training import TrainConfig


def random_gru(gen, hidden, input_dim, scale=0.5):
    # draws Wz, Uz, Wr, Ur, W, U, b in turn, written through their views
    p = L.GruParams.zeros(hidden, input_dim)
    for arr in p.named().values():
        arr[...] = gen.uniform(-scale, scale, arr.shape).astype(np.float32)
    return p


zero_gru = L.GruParams.zeros


def one_step(p, x, h, gate="sigmoid"):
    """Sweep a single (d,) input from a single (hidden,) state; returns the cache."""
    _, cache = L.gru_sweep_forward(p, np.asarray(x, np.float64).reshape(1, 1, -1),
                                   np.asarray(h, np.float64).reshape(1, -1), gate)
    return cache


class TestGruForward:
    def test_zero_params_halve_state(self):
        v = np.array([0.4, -0.8, 1.2], dtype=np.float32)
        step = one_step(zero_gru(3, 2), np.zeros(2), v)
        np.testing.assert_allclose(step.z, 0.5)
        np.testing.assert_allclose(step.r, 0.5)
        np.testing.assert_allclose(step.c, 0.0)
        np.testing.assert_allclose(step.hs[0, 0], 0.5 * v.astype(np.float64), rtol=1e-12)

    def test_copy_gate_limit(self):
        gen = np.random.default_rng(2)
        d = 6
        p = random_gru(gen, 4, d)
        # drive the update-gate pre-activation to +20 for x = ones
        p.named()["Wz"][...] = 20.0 / d
        p.named()["Uz"][...] = 0.0
        h_prev = gen.uniform(-1, 1, 4).astype(np.float32)
        step = one_step(p, np.ones(d), h_prev)
        assert np.linalg.norm(step.hs[0, 0] - h_prev.astype(np.float64)) < 1e-6

    def test_batched_matches_single(self):
        gen = np.random.default_rng(7)
        p = random_gru(gen, 3, 5)
        xs = gen.uniform(-1, 1, (3, 4, 5))
        h0 = gen.uniform(-1, 1, (4, 3))
        batch, _ = L.gru_sweep_forward(p, xs, h0)
        for i in range(4):
            single, _ = L.gru_sweep_forward(p, xs[:, i : i + 1], h0[i : i + 1])
            np.testing.assert_allclose(batch[:, i], single[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("gate", L.GATE_ACTIVATIONS)
    def test_lean_sweep_matches_cached(self, gate):
        # need_cache=False stores only the hidden states, with the same bits
        gen = np.random.default_rng(8)
        p = random_gru(gen, 6, 5)
        xs = gen.uniform(-1, 1, (7, 3, 5))
        h0 = gen.uniform(-1, 1, (3, 6))
        hs, cache = L.gru_sweep_forward(p, xs, h0, gate)
        lean, none = L.gru_sweep_forward(p, xs, h0, gate, need_cache=False)
        assert none is None
        assert lean.tobytes() == hs.tobytes() == cache.hs.tobytes()
        # one buffer holds h0 and the n step states; hs is a view of its tail
        assert cache.states.shape == (8, 3, 6)
        assert cache.states[0].tobytes() == h0.tobytes()
        assert np.shares_memory(cache.hs, cache.states)

    @given(seed=st.integers(0, 10_000))
    def test_gates_strictly_boxed(self, seed):
        gen = np.random.default_rng(seed)
        p = random_gru(gen, 4, 6, scale=1.0)
        x = gen.uniform(-1, 1, 6).astype(np.float32)
        h = gen.uniform(-1, 1, 4).astype(np.float32)
        step = one_step(p, x, h)
        assert np.all(step.z > 0) and np.all(step.z < 1)
        assert np.all(step.r > 0) and np.all(step.r < 1)

    @given(seed=st.integers(0, 10_000))
    def test_state_stays_in_convex_envelope(self, seed):
        gen = np.random.default_rng(seed)
        p = random_gru(gen, 4, 6, scale=2.0)
        x = gen.uniform(-2, 2, 6).astype(np.float32)
        h = gen.uniform(-2, 2, 4).astype(np.float32)
        step = one_step(p, x, h)
        bound = max(np.max(np.abs(h)), 1.0)
        assert np.max(np.abs(step.hs)) <= bound + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            one_step(zero_gru(3, 2), np.zeros(5), np.zeros(3))
        with pytest.raises(ShapeError):
            one_step(zero_gru(3, 2), np.zeros(2), np.zeros(4))

    def test_tanh_gate_variant(self):
        p = zero_gru(2, 2)
        step = one_step(p, np.zeros(2), np.ones(2), gate="tanh")
        np.testing.assert_allclose(step.z, 0.0)  # tanh(0) = 0: no copy-through
        np.testing.assert_allclose(step.hs, 0.0)


def _sweep_loss_probe(params, xs, h0, probes, gate="sigmoid"):
    hs, _ = L.gru_sweep_forward(params, xs, h0, gate)
    return float(np.sum(hs * probes))


class TestGruBackward:
    def test_zero_upstream_zero_grads(self):
        gen = np.random.default_rng(0)
        p = random_gru(gen, 3, 4)
        xs = gen.uniform(-1, 1, (5, 2, 4))
        _, cache = L.gru_sweep_forward(p, xs, np.zeros((2, 3)))
        grads, gh0, gxs = L.gru_sweep_backward(p, cache, np.zeros((5, 2, 3)))
        for v in grads.values():
            assert not v.any()
        assert not gh0.any()
        assert not gxs.any()

    def test_empty_sequence_rejected(self):
        with pytest.raises(UsageError):
            L.gru_sweep_forward(zero_gru(2, 2), np.zeros((0, 1, 2)), np.zeros((1, 2)))

    def test_scalar_symbolic_oracle(self):
        gen = np.random.default_rng(13)
        for _ in range(20):
            wz, uz, wr, ur, w, u, b = gen.uniform(-1.5, 1.5, 7)
            x, h0, g = gen.uniform(-1.5, 1.5, 3)
            p = zero_gru(1, 1)
            for arr, v in zip(p.named().values(), (wz, uz, wr, ur, w, u, b)):
                arr[...] = v
            # float32 storage rounds the parameters; the oracle must see the
            # same values the implementation does
            wz, uz, wr, ur, w, u, b = (float(m.ravel()[0]) for m in p.named().values())
            x = float(np.float32(x))
            h0 = float(np.float32(h0))
            cache = one_step(p, [x], [h0])
            sig = lambda a: 1.0 / (1.0 + np.exp(-a))
            az = wz * x + uz * h0
            ar = wr * x + ur * h0
            z, r = sig(az), sig(ar)
            ac = w * x + u * r * h0 + b
            c = np.tanh(ac)
            dz = g * (h0 - c)
            dc = g * (1 - z)
            dac = dc * (1 - c * c)
            drh = dac * u
            dar = drh * h0 * r * (1 - r)
            daz = dz * z * (1 - z)
            want = {
                "W": dac * x, "U": dac * r * h0, "b": dac,
                "Wr": dar * x, "Ur": dar * h0,
                "Wz": daz * x, "Uz": daz * h0,
            }
            want_h0 = g * z + drh * r + dar * ur + daz * uz
            want_x = dac * w + dar * wr + daz * wz
            grads, gh0, gxs = L.gru_sweep_backward(p, cache, np.full((1, 1, 1), g))
            for name, val in want.items():
                got = float(np.asarray(grads[name]).ravel()[0])
                assert rel_err(got, val) < 1e-6, name
            assert rel_err(float(gh0[0, 0]), want_h0) < 1e-6
            assert rel_err(float(gxs[0, 0, 0]), want_x) < 1e-6

    @pytest.mark.parametrize("gate", ["sigmoid", "tanh"])
    def test_eight_step_finite_differences(self, gate):
        gen = np.random.default_rng(31)
        hidden, dim, batch, steps_n = 3, 4, 2, 8
        p = random_gru(gen, hidden, dim)
        xs = gen.uniform(-1, 1, (steps_n, batch, dim))
        h0 = gen.uniform(-1, 1, (batch, hidden))
        probes = gen.uniform(-1, 1, (steps_n, batch, hidden))
        _, cache = L.gru_sweep_forward(p, xs, h0, gate)
        grads, gh0, _ = L.gru_sweep_backward(p, cache, probes)
        h = 1e-3
        for name, arr in p.named().items():
            ref = np.zeros(arr.shape)
            flat = arr.ravel()
            rflat = ref.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = _sweep_loss_probe(p, xs, h0, probes, gate)
                flat[i] = orig - h
                fm = _sweep_loss_probe(p, xs, h0, probes, gate)
                flat[i] = orig
                rflat[i] = (fp - fm) / (2 * h)
            assert rel_err(np.asarray(grads[name]), ref) < 1e-3, name


class TestSweepFastPath:
    # the fused sweep against the step-by-step reference recurrence
    def test_matches_stepwise_contract_path(self):
        gen = np.random.default_rng(77)
        hidden, dim, batch, n = 6, 8, 3, 7
        p = random_gru(gen, hidden, dim)
        xs = gen.uniform(-1, 1, (n, batch, dim))
        h0 = gen.uniform(-1, 1, (batch, hidden))
        hs, cache = L.gru_sweep_forward(p, xs, h0)
        steps = gru_sequence_forward(p, list(xs), h0)
        for t in range(n):
            np.testing.assert_allclose(hs[t], steps[t].h, rtol=1e-12, atol=1e-14)
        grads_h = gen.uniform(-1, 1, (n, batch, hidden))
        g_fast, gh0_fast, gx_fast = L.gru_sweep_backward(p, cache, grads_h)
        g_slow, gh0_slow, gx_slow = gru_sequence_backward(p, steps, list(grads_h), None)
        for name in g_fast:
            assert rel_err(g_fast[name], g_slow[name]) < 1e-12
        assert rel_err(gh0_fast, gh0_slow) < 1e-12
        assert rel_err(gx_fast, np.stack(gx_slow)) < 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSweepSlabs:
    # first-unit sweeps at default widths: n planes of n positions, each with
    # 8 input channels and 8 hidden channels
    @pytest.mark.parametrize("n, b, gate", [
        (16, 225, "sigmoid"), (16, 225, "tanh"), (32, 64, "sigmoid"), (32, 64, "tanh"),
        (64, 16, "sigmoid"), (64, 16, "tanh"), (64, 128, "sigmoid")],
        ids=["n8-b225-sigmoid", "n8-b225-tanh", "n16-b64-sigmoid", "n16-b64-tanh",
             "n32-b16-sigmoid", "n32-b16-tanh", "n32-b128-sigmoid"])
    def test_sliced_projection_matches_whole(self, n, b, gate, monkeypatch):
        # the 225 N=8 tiles of a 128x128 image in one batch, N=16 at 64
        # contexts and N=32 at 16 (its eval and validation chunk) and 128:
        # each projects its inputs in several slabs of steps, and every
        # state, gate and candidate has the bits of one projection GEMM over
        # all steps (the gate does not touch the projection, so the largest
        # shape runs one gate)
        slabs = record_sweep_slabs(monkeypatch)
        self.check_against_whole(n, b, gate, np.random.default_rng(n + b))
        assert slabs[0] > 1

    @pytest.mark.parametrize("gate", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("b", [4, 1], ids=["b4", "b1"])
    def test_greedy_shapes_match_whole(self, b, gate):
        # N=16 first-unit sweeps at 4 contexts, the smallest batch
        # forward_batch runs, and at 1, whose step products take numpy's
        # vector-matrix path: one slab each
        self.check_against_whole(32, b, gate, np.random.default_rng(b))

    @staticmethod
    def check_against_whole(n, b, gate, gen):
        """Cached and lean sweeps of n planes of n positions (8 input and 8
        hidden channels each) from a random state have the bits of
        gru_sweep_whole."""
        d = hidden = 8 * n
        p = random_gru(gen, hidden, d, scale=0.1)
        xs = gen.uniform(-1, 1, (n, b, d))
        h0 = gen.uniform(-1, 1, (b, hidden))
        want, want_cache = gru_sweep_whole(p, xs, h0, gate)
        _, cache = L.gru_sweep_forward(p, xs, h0, gate)
        for name in ("states", "z", "r", "c"):
            assert same_bits(getattr(cache, name), getattr(want_cache, name)), name
        del cache, want_cache
        lean, _ = L.gru_sweep_forward(p, xs, h0, gate, need_cache=False)
        assert same_bits(lean, want)


class TestPrelu:
    def test_positive_identity(self):
        x = np.array([[0.0, 2.5]])
        alpha = np.array([0.25, 0.25])
        np.testing.assert_array_equal(L.prelu_forward(x, alpha), x)

    def test_zero_alpha_is_relu(self):
        out = L.prelu_forward(np.array([[-3.0, 3.0]]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(out, [[0.0, 3.0]])

    def test_quarter_slope(self):
        out = L.prelu_forward(np.array([[-2.0]]), np.array([0.25]))
        assert out[0, 0] == -0.5

    def test_backward_finite_differences(self):
        gen = np.random.default_rng(3)
        x = gen.uniform(-1, 1, (5, 4, 3))
        alpha = gen.uniform(0.1, 0.5, 3)
        probe = gen.uniform(-1, 1, (5, 4, 3))
        gx, ga = L.prelu_backward(x, alpha, probe)
        h = 1e-5
        fd_a = np.zeros(3)
        for i in range(3):
            ap = alpha.copy(); ap[i] += h
            am = alpha.copy(); am[i] -= h
            fd_a[i] = (np.sum(L.prelu_forward(x, ap) * probe)
                       - np.sum(L.prelu_forward(x, am) * probe)) / (2 * h)
        assert rel_err(ga, fd_a) < 1e-6
        fd_x = np.where(x < 0, alpha, 1.0) * probe  # exact away from the kink
        assert rel_err(gx, fd_x) < 1e-12

    def test_inplace_has_the_bits_of_the_selection(self):
        # x * 1.0 and x * alpha give the bits of np.where(x >= 0, x, alpha * x),
        # signed zeros and subnormals included, with or without inplace
        x = np.random.default_rng(5).standard_normal((3, 4, 4, 5))
        x[0, 0, 0] = [0.0, -0.0, 5e-324, -5e-324, -1e300]
        alpha = np.array([0.0, 0.25, -0.5, 1e-300, 2.0])
        want = np.where(x >= 0, x, alpha * x)
        assert L.prelu_forward(x, alpha).tobytes() == want.tobytes()
        assert L.prelu_forward(x, alpha, inplace=True) is x
        assert x.tobytes() == want.tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            L.prelu_forward(np.zeros((2, 3)), np.zeros(2))


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = {"w": np.ones((2, 2), np.float32)}
        grads = {"w": np.zeros((2, 2))}
        state = L.AdamState()
        for _ in range(5):
            L.adam_step(params, grads, state, 0.1)
        np.testing.assert_array_equal(params["w"], np.ones((2, 2), np.float32))

    def test_first_step_is_signed_lr(self):
        for g in (0.3, -2.0, 1e-3):
            params = {"w": np.zeros(1, np.float32)}
            state = L.AdamState()
            L.adam_step(params, {"w": np.full(1, g)}, state, 0.01)
            np.testing.assert_allclose(params["w"], -0.01 * np.sign(g), rtol=1e-4)

    def test_identical_grads_identical_updates(self):
        params = {"a": np.full(3, 0.5, np.float32), "b": np.full(3, 0.5, np.float32)}
        grads = {"a": np.full(3, 0.7), "b": np.full(3, 0.7)}
        state = L.AdamState()
        L.adam_step(params, grads, state, 0.05)
        np.testing.assert_array_equal(params["a"], params["b"])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            L.adam_step({"w": np.zeros(2, np.float32)}, {"w": np.zeros(3)},
                        L.AdamState(), 0.1)

    def test_clip_global_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = L.clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        total = sum(np.sum(g ** 2) for g in grads.values())
        assert np.sqrt(total) == pytest.approx(5.0)


class TestSchedule:
    # the step-decay schedule lives on TrainConfig; the 100k-iteration run
    # is the reference recipe, milestones at 50/75/85%
    REF = TrainConfig(total_iters=100_000)

    def test_initial_rate(self):
        assert self.REF.lr(0) == 0.001

    def test_after_first_milestone(self):
        assert self.REF.lr(60_000) == pytest.approx(0.0001)

    def test_after_all_milestones(self):
        assert self.REF.lr(90_000) == pytest.approx(1e-6)

    def test_milestone_boundary_counts(self):
        assert self.REF.lr_milestones() == (50_000, 75_000, 85_000)
        assert self.REF.lr(50_000) == pytest.approx(0.0001)
        assert self.REF.lr(49_999) == 0.001

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(10, 10), total_iters=100)
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(10, 120), total_iters=100)
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(10, 100), total_iters=100)

    def test_scaled_schedule_desk_defaults(self):
        assert TrainConfig(total_iters=5000).lr_milestones() == (2500, 3750, 4250)

    def test_scaled_schedule_tiny_runs(self):
        assert TrainConfig(total_iters=1).lr_milestones() == ()
        assert TrainConfig(total_iters=4).lr_milestones() == (2, 3)

    @given(it=st.integers(0, 99_999))
    def test_non_increasing(self, it):
        if it + 1 < self.REF.total_iters:
            assert self.REF.lr(it + 1) <= self.REF.lr(it)

    def test_piecewise_constant_between_milestones(self):
        cfg = TrainConfig(milestones=(10, 20), total_iters=30)
        assert len({cfg.lr(i) for i in range(10)}) == 1
        assert len({cfg.lr(i) for i in range(10, 20)}) == 1
        assert len({cfg.lr(i) for i in range(20, 30)}) == 1


class TestInit:
    def test_glorot_bounds(self):
        gen = np.random.default_rng(0)
        w = L.glorot_uniform(gen, (50, 50), 50, 50)
        limit = np.sqrt(6.0 / 100)
        assert np.max(np.abs(w)) <= limit
        assert w.dtype == np.float32

    def test_init_gru_shapes(self):
        p = L.init_gru(np.random.default_rng(0), 6, 11)
        p.validate()
        assert p.hidden == 6 and p.input_dim == 11
        assert not p.b.any()
