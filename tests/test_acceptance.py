"""Acceptance suite: one test per gate criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The smoke-training fixture is shared between the
training and RDO-lite criteria, so the expensive run happens once.
"""

import time

import numpy as np
import pytest

from conftest import dyadic_residue, min_kink_margin, rel_err
from oracles import satd_smooth
from test_hadamard import brute_force_satd
from psrnn import data as D
from psrnn import hadamard as H
from psrnn import intra as I
from psrnn import layers as L
from psrnn import model as M
from psrnn import training as TR


def ok(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

SMOKE_SAMPLES = 50_000
SMOKE_ITERS = 5_000


@pytest.fixture(scope="module")
def smoke():
    """Train the N=8 model on the 50k synthetic directional+sinusoid corpus."""
    t0 = time.perf_counter()
    images = D.synthetic_corpus(128, seed=2024, kinds=("directional", "sinusoid"))
    samples = D.build_training_samples(images, 8, SMOKE_SAMPLES, seed=2024,
                                       availability_mode=D.THREE_BLOCK)
    prep_seconds = time.perf_counter() - t0
    net = M.build_network(M.NetworkConfig(pu_size=8), seed=2024)
    cfg = TR.TrainConfig(total_iters=SMOKE_ITERS, batch_size=32, seed=2024)
    t0 = time.perf_counter()
    net, rows = TR.train(net, samples, cfg)
    train_seconds = time.perf_counter() - t0
    return {"net": net, "rows": rows, "train_seconds": train_seconds,
            "prep_seconds": prep_seconds}


def held_out_images(count=4, size=128):
    out = []
    kinds = ("directional", "sinusoid", "rings")
    for i in range(count):
        out.append(D.synthetic_corpus(size, seed=77_000 + i,
                                      kinds=(kinds[i % 3],), per_kind=1)[0])
    return out


# ---------------------------------------------------------------------------
# 1. Hadamard / SATD oracle equivalence
# ---------------------------------------------------------------------------


def test_satd_oracle_equivalence():
    t0 = time.perf_counter()
    for order in (1, 2, 4, 8, 16, 32):
        h = H.hadamard_matrix(order)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
    gen = np.random.default_rng(1001)
    cfg = H.SatdConfig(partition=4)
    for k in range(500):
        side = 4 if k % 2 == 0 else 8
        d = dyadic_residue(gen, (side, side))
        assert H.satd(d, cfg) == brute_force_satd(d, 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok("hadamard-satd-oracle", f"(500 residues exact, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Smoothed-SATD gradient
# ---------------------------------------------------------------------------


def test_satd_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    gen = np.random.default_rng(1002)
    for k in range(200):
        side = 4 if k % 2 == 0 else 8
        eps = 1e-6 if k % 4 < 2 else 1e-8
        cfg = H.SatdConfig(partition=4, epsilon=eps)
        # the smoothed loss curves on the sqrt(eps) scale, so the step must
        # shrink with eps for the central difference to stay second-order
        h = 0.02 * np.sqrt(eps)
        d = gen.uniform(-1, 1, (side, side))
        analytic = H.satd_loss_grad_batch(d[None], cfg)[0]
        ref = np.zeros_like(d)
        for i in range(side):
            for j in range(side):
                dp = d.copy(); dp[i, j] += h
                dm = d.copy(); dm[i, j] -= h
                ref[i, j] = (satd_smooth(dp, cfg) - satd_smooth(dm, cfg)) / (2 * h)
        assert rel_err(analytic, ref) < 1e-4
    ones = H.satd_loss_grad_batch(np.ones((1, 4, 4)), H.SatdConfig(partition=4, epsilon=1e-8))
    assert np.max(np.abs(ones - 1.0)) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok("satd-gradient", f"(200 residues < 1e-4, all-ones case, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Layer and full-network gradient checks
# ---------------------------------------------------------------------------


def _fd_tensor(loss, arr, h=1.0 / 1024):
    ref = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.ravel()
    rflat = ref.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = np.float32(float(orig) + h) if arr.dtype == np.float32 else orig + h
        fp = loss()
        flat[i] = np.float32(float(orig) - h) if arr.dtype == np.float32 else orig - h
        fm = loss()
        flat[i] = orig
        rflat[i] = (fp - fm) / (2 * h)
    return ref


def _layer_directional(loss, arrays, grads, gen, h, entries=20):
    """FD along one random direction over `entries` positions of a layer."""
    total = sum(a.size for a in arrays)
    picks = gen.choice(total, size=min(entries, total), replace=False)
    direction = np.zeros(total)
    direction[picks] = gen.choice([-1.0, 1.0], size=picks.size)
    parts = np.split(direction, np.cumsum([a.size for a in arrays])[:-1])
    origs = [a.copy() for a in arrays]
    steps = []
    for sign in (+1.0, -1.0):
        for a, o, p in zip(arrays, origs, parts):
            a[...] = (o.astype(np.float64) + sign * h * p.reshape(a.shape)).astype(a.dtype)
        if sign > 0:
            fp = loss()
            steps = [a.astype(np.float64).copy() for a in arrays]
        else:
            fm = loss()
            steps = [s - a.astype(np.float64) for s, a in zip(steps, arrays)]
    for a, o in zip(arrays, origs):
        a[...] = o
    analytic = sum(float(np.sum(np.asarray(g, dtype=np.float64) * s))
                   for g, s in zip(grads, steps))
    return rel_err(analytic, fp - fm, floor=1e-10)


def _check_conv_instances(count, gen):
    from psrnn import tensor as T

    for _ in range(count):
        kh, kw = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        stride = int(gen.integers(1, 3))
        pad = int(gen.integers(0, 2))
        cin, cout = int(gen.integers(1, 3)), int(gen.integers(1, 3))
        side = int(gen.integers(max(kh, kw), 9))
        spec = T.ConvSpec(kernel_h=kh, kernel_w=kw, stride=stride, padding=pad,
                          in_channels=cin, out_channels=cout)
        try:
            oh, ow = spec.out_extent(side, kh), spec.out_extent(side, kw)
        except Exception:
            continue
        # float32 storage, float64 compute, one map as a batch of one
        x = gen.uniform(-1, 1, (1, side, side, cin)).astype(np.float32)
        w = gen.uniform(-1, 1, (kh, kw, cin, cout)).astype(np.float32)
        b = gen.uniform(-1, 1, cout).astype(np.float32)
        probe = gen.uniform(-1, 1, (1, oh, ow, cout))
        gx, gw, gb = T.conv2d_backward_batch(x.astype(np.float64), w.astype(np.float64),
                                             spec, probe)

        def loss():
            out = T.conv2d_forward_batch(x.astype(np.float64), w.astype(np.float64),
                                         b.astype(np.float64), spec)
            return float(np.sum(out * probe))

        for arr, grad in ((x, gx), (w, gw), (b, gb)):
            assert rel_err(grad, _fd_tensor(loss, arr)) < 1e-4


def _check_prelu_instances(count, gen):
    for _ in range(count):
        c = int(gen.integers(1, 5))
        x = gen.uniform(-1, 1, (6, 6, c))
        x = np.where(np.abs(x) < 0.02, 0.1, x)  # keep clear of the kink
        alpha = gen.uniform(0.05, 0.6, c)
        probe = gen.uniform(-1, 1, x.shape)
        gx, ga = L.prelu_backward(x, alpha, probe)

        def loss(xx=x, aa=alpha):
            return float(np.sum(L.prelu_forward(xx, aa) * probe))

        assert rel_err(gx, _fd_tensor(lambda: loss(), x, h=1e-4)) < 1e-3
        assert rel_err(ga, _fd_tensor(lambda: loss(), alpha, h=1e-4)) < 1e-3


def _check_gru_instances(count, gen):
    from test_layers import random_gru

    for _ in range(count):
        hidden, dim, batch, steps_n = 3, 4, 2, 8
        p = random_gru(gen, hidden, dim)
        xs = np.stack([gen.uniform(-1, 1, (batch, dim)) for _ in range(steps_n)])
        h0 = gen.uniform(-1, 1, (batch, hidden))
        probes = np.stack([gen.uniform(-1, 1, (batch, hidden)).astype(np.float32)
                           for _ in range(steps_n)]).astype(np.float64)
        _, cache = L.gru_sweep_forward(p, xs, h0)
        grads, _, _ = L.gru_sweep_backward(p, cache, probes)

        def loss():
            hs, _ = L.gru_sweep_forward(p, xs, h0)
            return float(np.sum(hs * probes))

        for name, arr in p.named().items():
            assert rel_err(grads[name], _fd_tensor(loss, arr, h=1e-3)) < 1e-3, name


def _check_unit_instances(count, gen):
    checked = 0
    attempt = 0
    while checked < count:
        attempt += 1
        net = M.build_network(
            M.NetworkConfig(pu_size=4, preproc_channels=(2, 2), unit_hidden=(2, 2),
                            recon_channels=(2,)), seed=int(gen.integers(1 << 30)))
        unit = dict(net.layers)["u0"]
        feat = gen.uniform(-1, 1, (1, 8, 8, 2))
        probe = gen.uniform(-1, 1, (1, 8, 8, 2))
        out, cache = M.unit_forward_batch(unit, feat, "sigmoid")
        margin = float(np.min(np.abs(cache[3][1])))  # fusion pre-activations
        h = min(2e-5, margin / 20)
        if h < 2e-7:
            continue  # rare near-kink init; use another instance
        grads = {}
        M.unit_backward_batch(unit, cache, probe, grads, "u")

        def loss():
            o, _ = M.unit_forward_batch(unit, feat, "sigmoid")
            return float(np.sum(o * probe))

        params = unit.named("u")
        for name, arr in params.items():
            err = _layer_directional(loss, [arr], [grads[name]], gen, h,
                                     entries=arr.size)
            assert err < 1e-3, f"{name}: {err}"
        checked += 1
    return attempt


def _network_layers(net):
    """Architectural layers as (name, [tensors]) in forward order."""
    params = M.parameters(net)
    groups: dict[str, list] = {}
    for name, arr in params.items():
        layer = name.rsplit(".", 1)[0]
        if layer.endswith((".h", ".v", ".fuse")):
            pass  # unit sub-blocks count as their own layers
        groups.setdefault(layer, []).append((name, arr))
    return groups


def _check_network(config, gen, tag):
    best = (None, -1.0)
    ctx = gen.uniform(0.1, 0.9, (1, config.context_size, config.context_size))
    for seed in range(16):
        net = M.build_network(config, seed=seed)
        preds, caches = M.forward_batch(net, ctx)
        margin = min_kink_margin(caches)
        interior = 0.01 < preds.min() and preds.max() < 0.99
        if interior and margin > best[1]:
            best = (seed, margin)
    seed, margin = best
    assert seed is not None, "no interior evaluation point found"
    h = min(2e-5, margin / 20)
    assert h > 2e-8, f"margin {margin} too small for a trustworthy check"
    net = M.build_network(config, seed=seed)
    probe = gen.uniform(-1, 1, (1, config.pu_size, config.pu_size))
    _, caches = M.forward_batch(net, ctx)
    grads = M.backward_batch(net, caches, probe)

    def loss():
        return float(np.sum(M.forward_batch(net, ctx)[0] * probe))

    layers = _network_layers(net)
    for layer, items in layers.items():
        arrays = [arr for _, arr in items]
        layer_grads = [grads[name] for name, _ in items]
        err = _layer_directional(loss, arrays, layer_grads, gen, h, entries=20)
        assert err < 1e-3, f"{tag} {layer}: {err}"
    return len(layers)


def test_layer_and_network_gradients():
    t0 = time.perf_counter()
    gen = np.random.default_rng(1003)
    _check_conv_instances(100, gen)
    _check_prelu_instances(100, gen)
    _check_gru_instances(100, gen)
    _check_unit_instances(100, gen)
    n4 = _check_network(M.NetworkConfig(pu_size=4), gen, "N=4")
    n8 = _check_network(M.NetworkConfig(pu_size=8), gen, "N=8")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok("layer-and-network-gradients",
       f"(conv/prelu/gru/unit x100, networks {n4}+{n8} layers, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. GRU contract: gate boxing, copy-gate limit, sweep causality
# ---------------------------------------------------------------------------


def test_gru_contract():
    from test_layers import random_gru

    gen = np.random.default_rng(1004)
    for _ in range(200):
        p = random_gru(gen, 4, 6, scale=1.0)
        x = gen.uniform(-1, 1, 6).astype(np.float32)
        hv = gen.uniform(-1, 1, 4).astype(np.float32)
        _, step = L.gru_sweep_forward(p, x.astype(np.float64).reshape(1, 1, 6),
                                      hv.astype(np.float64).reshape(1, 4))
        assert np.all(step.z > 0) and np.all(step.z < 1)
        assert np.all(step.r > 0) and np.all(step.r < 1)

    d = 6
    p = random_gru(gen, 4, d)
    p.named()["Wz"][...] = 20.0 / d
    p.named()["Uz"][...] = 0.0
    h_prev = gen.uniform(-1, 1, 4).astype(np.float32).astype(np.float64)
    hs, _ = L.gru_sweep_forward(p, np.ones((1, 1, d)), h_prev.reshape(1, 4))
    diff = float(np.linalg.norm(hs[0, 0] - h_prev))
    assert diff < 1e-6

    net = M.build_network(M.NetworkConfig(pu_size=4, preproc_channels=(2, 2),
                                          unit_hidden=(2, 2), recon_channels=(2,)),
                          seed=5)
    unit = dict(net.layers)["u0"]
    feat = gen.uniform(0, 1, (1, 8, 8, 2))
    _, cache = M.unit_forward_batch(unit, feat, "sigmoid")
    t = 3
    bumped = feat.copy()
    bumped[:, t + 1 :] += 0.2
    _, cache2 = M.unit_forward_batch(unit, bumped, "sigmoid")
    for k in range(t + 1):
        np.testing.assert_array_equal(cache[1].hs[k], cache2[1].hs[k])
    assert not np.array_equal(cache[1].hs[t + 1], cache2[1].hs[t + 1])
    ok("gru-contract", f"(gates boxed, copy-gate diff {diff:.2e}, causality)")


# ---------------------------------------------------------------------------
# 5. Baseline correctness
# ---------------------------------------------------------------------------


def test_baseline_golden_and_search_oracle():
    # references are scan-order lines: left column bottom-up, corner, top row
    n = 8
    flat = np.full(4 * n + 1, 0.5)
    np.testing.assert_array_equal(I.predict_mode(flat, I.MODE_DC, n), np.full((n, n), 0.5))

    gen = np.random.default_rng(1005)
    top, left = gen.random(2 * n + 1), gen.random(2 * n)
    line = np.concatenate([left[::-1], top])
    ph = I.predict_mode(line, I.MODE_HORIZONTAL, n)
    for y in range(n):
        np.testing.assert_array_equal(ph[y], np.full(n, left[y]))
    pv = I.predict_mode(line, I.MODE_VERTICAL, n)
    for x in range(n):
        np.testing.assert_array_equal(pv[:, x], np.full(n, top[1 + x]))

    a, bx, by = 0.3, 0.02, 0.015
    plane = lambda y, x: a + bx * x + by * y
    lin = np.concatenate([[plane(y, -1) for y in range(2 * n - 1, -1, -1)],
                          [plane(-1, x) for x in range(-1, 2 * n)]])
    pred = I.predict_mode(lin, I.MODE_PLANAR, n)
    u = np.arange(n)[:, None] / (n - 1)
    v = np.arange(n)[None, :] / (n - 1)
    bilinear = (pred[0, 0] * (1 - u) * (1 - v) + pred[0, -1] * (1 - u) * v
                + pred[-1, 0] * u * (1 - v) + pred[-1, -1] * u * v)
    assert np.max(np.abs(pred - bilinear)) < 1.0 / 255

    lam = I.hm_lambda(32)
    cfg = H.SatdConfig()
    for k in range(200):
        size = 4 if k % 2 == 0 else 8
        r = gen.random(4 * size + 1)
        target = gen.random((size, size))
        modes, satds, _ = I.best_modes(r[None], target[None], size, lam)
        costs = []
        for mode in range(35):
            p = I.predict_mode(r, mode, size)
            costs.append(H.satd(p - target, cfg) * I.PIXEL_SCALE
                         + lam * I.DEFAULT_MODE_BITS)
        assert float(satds[0]) + lam * I.DEFAULT_MODE_BITS == min(costs)
        assert int(modes[0]) == int(np.argmin(costs))
    ok("baseline-correctness", "(golden modes exact, 200-block search oracle exact)")


# ---------------------------------------------------------------------------
# 6. Smoke training
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_smoke_training(smoke):
    rows = smoke["rows"]
    initial = rows[0].val_loss
    best = min(r.val_loss for r in rows)
    reduction = 100.0 * (initial - best) / initial
    assert reduction >= 30.0
    assert smoke["train_seconds"] < 900.0
    ok("smoke-training",
       f"(val SATD {initial:.2f} -> {best:.2f}, -{reduction:.1f}%, "
       f"{smoke['train_seconds']:.0f}s train + {smoke['prep_seconds']:.0f}s data)")


# ---------------------------------------------------------------------------
# 7. SATD-vs-MSE trend
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_satd_vs_mse_trend():
    images = D.synthetic_corpus(128, seed=555, kinds=("directional", "sinusoid"))
    samples = D.build_training_samples(images, 8, 6000, seed=555,
                                       availability_mode=D.THREE_BLOCK)
    cfg = TR.TrainConfig(total_iters=500, batch_size=16, seed=0, val_subset_cap=256,
                         checkpoint_every=50)
    lean = M.NetworkConfig(pu_size=8, preproc_channels=(4, 4), unit_hidden=(4, 2, 2),
                           recon_channels=(4,))
    out = TR.compare_losses(samples, cfg, [1, 2, 3], net_config=lean)
    assert out["median_satd_trained"] < out["median_mse_trained"]
    ok("satd-vs-mse-trend",
       f"(median val SATD {out['median_satd_trained']:.3f} satd-trained vs "
       f"{out['median_mse_trained']:.3f} mse-trained over 3 seeds)")


# ---------------------------------------------------------------------------
# 8. RDO-lite utility
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_rdo_lite_utility(smoke):
    images = held_out_images()
    cfg = TR.EvalConfig(block_sizes=(8,))
    report = TR.evaluate({8: smoke["net"]}, images, 32, cfg)
    sel = report.summary["selection_rate_pct"]
    red = report.summary["mean_cost_reduction_pct"]
    assert sel > 10.0
    assert red > 0.0
    oracle = TR.evaluate(None, images, 32,
                         TR.EvalConfig(block_sizes=(8,), oracle=True))
    assert oracle.summary["selection_rate_pct"] == 100.0
    ok("rdo-lite-utility",
       f"(selection {sel:.1f}%, cost reduction {red:.2f}%, oracle 100%)")


# ---------------------------------------------------------------------------
# 9. Variable block size
# ---------------------------------------------------------------------------


def test_variable_block_size():
    gen = np.random.default_rng(1009)
    for n in (4, 8, 16, 32):
        net = M.build_network(M.NetworkConfig(pu_size=n), seed=7)
        ctx = gen.random((1, 2 * n, 2 * n)).astype(np.float32)
        pred, _ = M.forward_batch(net, ctx, need_cache=False)
        assert pred.shape == (1, n, n)
        assert pred.min() >= 0.0 and pred.max() <= 1.0
    ok("variable-block-size", "(per-N 4/8/16/32 shapes)")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


def test_determinism(tmp_path):
    images = D.synthetic_corpus(96, seed=31, per_kind=4)
    samples = D.build_training_samples(images, 8, 2000, seed=31,
                                       availability_mode=D.THREE_BLOCK)
    lean = M.NetworkConfig(pu_size=8, preproc_channels=(4, 4), unit_hidden=(4, 2, 2),
                           recon_channels=(4,))
    cfg = TR.TrainConfig(total_iters=60, batch_size=16, seed=31, val_subset_cap=128,
                         checkpoint_every=10)
    blobs = []
    logs = []
    for run in range(2):
        net = M.build_network(lean, seed=31)
        net, rows = TR.train(net, samples, cfg)
        path = tmp_path / f"m{run}.psrnn"
        M.save_model(net, path)
        blobs.append(path.read_bytes())
        log_path = tmp_path / f"log{run}.csv"
        TR.write_training_log(rows, log_path)
        logs.append(log_path.read_bytes())
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]

    net = M.load_model(tmp_path / "m0.psrnn")
    eval_images = held_out_images(count=2, size=64)
    reports = [TR.evaluate({8: net}, eval_images, 32, TR.EvalConfig(block_sizes=(8,)))
               for _ in range(2)]
    assert list(reports[0].csv_rows()) == list(reports[1].csv_rows())
    assert reports[0].summary == reports[1].summary
    ok("determinism", "(byte-identical weights, logs, and reports)")
