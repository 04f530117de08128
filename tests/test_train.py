import dataclasses
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from abcas import nn, train
from abcas.config import build_networks, load_settings
from abcas.data import generate_blobs, generate_ring2d
from abcas.nn import NetworkSpec, ParamStore, dense
from abcas.optim import Adam
from abcas.train import (
    NumericAbort,
    TrainConfig,
    TrainHooks,
    d_loss,
    d_loss_grads,
    eval_baseline,
    g_loss,
    g_loss_grad,
    run_training,
)

from helpers import (ABORT_SITES, break_training_at, central_diff_grad, conv_matrix_index,
                     rel_err)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestLosses:
    def test_d_loss_at_zero_critic(self):
        # softplus(0) twice: 2 ln 2
        val = d_loss(np.zeros(16), np.zeros(16))
        assert abs(val - 2.0 * math.log(2.0)) < 1e-12

    def test_d_loss_perfect_discriminator_limit(self):
        assert d_loss(np.full(4, 60.0), np.full(4, -60.0)) < 1e-20

    def test_d_loss_gradients_fd(self):
        rng = np.random.default_rng(0)
        cr = rng.standard_normal(8)
        cf = rng.standard_normal(8)
        _, grad = d_loss_grads(cr, cf)
        gr, gf = grad[:len(cr)], grad[len(cr):]
        fd_r = central_diff_grad(lambda v: d_loss(v, cf), cr)
        fd_f = central_diff_grad(lambda v: d_loss(cr, v), cf)
        assert rel_err(gr, fd_r) < 1e-6
        assert rel_err(gf, fd_f) < 1e-6

    def test_g_loss_at_zero(self):
        assert abs(g_loss(np.zeros(5)) - math.log(2.0)) < 1e-12

    def test_g_loss_limits(self):
        assert g_loss(np.full(3, 80.0)) < 1e-20
        # softplus asymptote: loss ~ -c for very negative critic values, finite
        val = g_loss(np.array([-40.0]))
        assert np.isfinite(val)
        assert abs(val - 40.0) < 1e-12

    def test_g_loss_gradient_fd(self):
        cf = np.random.default_rng(1).standard_normal(8)
        assert rel_err(g_loss_grad(cf)[1], central_diff_grad(g_loss, cf)) < 1e-6

    def test_softplus_overflow_safe(self):
        t = np.array([1e4, -1e4, 800.0, -800.0, np.inf, -np.inf])
        softplus, sigmoid = train._softplus_sigmoid(t)
        assert softplus.tolist() == [1e4, 0.0, 800.0, 0.0, np.inf, 0.0]
        assert sigmoid.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def _sigmoid_reference(t):
    # the formula before the one-exp form: an exp on each sign's entries
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus_reference(t):
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class TestLossBitsAgainstReferenceFormulas:
    @staticmethod
    def _critics(dtype, infinite=True):
        rng = np.random.default_rng(43)
        edges = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0]
        edges += [np.inf, -np.inf] if infinite else []
        for scale in (1.0, 1e-4, 30.0):
            for n in (7, 16, 61):
                yield np.concatenate([edges, scale * rng.standard_normal(n)]).astype(dtype)

    def test_sigmoid_and_softplus(self):
        for t in self._critics(np.float64):
            with np.errstate(over="ignore"):
                want = _sigmoid_reference(t)
            softplus, sigmoid = train._softplus_sigmoid(t)
            assert sigmoid.tobytes() == want.tobytes()
            assert softplus.tobytes() == _softplus_reference(t).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_losses_and_gradients(self, dtype):
        critics = list(self._critics(dtype, infinite=False))
        # equal sides, then 7 real against 61 fake outputs and 61 against 7:
        # each gradient half divides by its own side's size
        pairs = [(t, t[::-1].copy()) for t in critics]
        few, many = critics[0][-7:], critics[-1][:61]
        assert (len(few), len(many)) == (7, 61)
        pairs += [(few, many), (many, few)]
        for cr, cf in pairs:
            r64, f64 = cr.astype(np.float64), cf.astype(np.float64)
            d = float(np.mean(_softplus_reference(-r64)) + np.mean(_softplus_reference(f64)))
            loss, grad = d_loss_grads(cr, cf)
            assert loss == d_loss(cr, cf) == d
            want = np.concatenate([(-_sigmoid_reference(-r64) / cr.size).astype(dtype),
                                   (_sigmoid_reference(f64) / cf.size).astype(dtype)])
            assert grad.tobytes() == want.tobytes()
            loss, grad = g_loss_grad(cf)
            assert loss == g_loss(cf) == float(np.mean(_softplus_reference(-f64)))
            assert grad.tobytes() == (-_sigmoid_reference(-f64) / cf.size).astype(dtype).tobytes()


class TestAdam:
    def _one_param_store(self, value):
        spec = NetworkSpec((1,), [dense(1, 1)])
        store = ParamStore(spec, seed=0, dtype=np.float64)
        store.params[0]["W"][...] = value
        store.params[0]["b"][...] = 0.0
        return store

    def test_zero_gradient_leaves_params_unchanged(self):
        store = self._one_param_store(1.5)
        before = store.params[0]["W"].copy()
        opt = Adam(store, lr=0.1)
        store.zero_grad()
        for _ in range(3):
            opt.step()
        assert np.array_equal(store.params[0]["W"], before)

    def test_beta1_zero_first_moment_is_raw_gradient(self):
        store = self._one_param_store(0.0)
        opt = Adam(store, lr=0.05, beta1=0.0, beta2=0.999)
        g = 0.7
        store.grads[0]["W"][...] = g
        opt.step()
        # m = g, v_hat = g^2 after bias correction at t = 1
        expected = -0.05 * g / (math.sqrt(g * g) + 1e-8)
        assert abs(store.params[0]["W"][0, 0] - expected) < 1e-12

    def test_bias_correction_uses_own_step_count(self):
        store = self._one_param_store(0.0)
        opt = Adam(store, lr=0.1, beta1=0.9, beta2=0.999)
        store.grads[0]["W"][...] = 1.0
        opt.step()
        # with bias correction the very first step has full magnitude lr
        assert abs(store.params[0]["W"][0, 0] + 0.1 * (1.0 / (1.0 + 1e-8))) < 1e-9

    def test_quadratic_convergence(self):
        # loss (theta - 3)^2 / 2 from theta0 = 2; minimum reached within 1e-3
        store = self._one_param_store(2.0)
        opt = Adam(store, lr=0.01, beta1=0.0, beta2=0.999)
        for _ in range(500):
            store.grads[0]["W"][...] = store.params[0]["W"] - 3.0
            store.grads[0]["b"][...] = 0.0
            opt.step()
        assert abs(store.params[0]["W"][0, 0] - 3.0) < 1e-3

    def test_moment_shapes_mirror_params(self):
        spec = nn.mlp_discriminator(3, [5])
        store = ParamStore(spec, seed=0)
        opt = Adam(store, lr=0.01)
        assert opt.m.shape == store.flat.shape
        assert opt.v.shape == store.flat.shape


def _tiny_setup(steps=10, mode="adaptive", m=1.0, seed=0, beta=4.0, family="mlp"):
    cfg = TrainConfig(steps=steps, batch_size=4, seed=seed, eval_every=5,
                      mode=mode, m=m, beta=beta, eval_samples=32)
    if family == "conv":
        data = generate_blobs(32, img_size=8, seed=1)
        g = nn.conv_generator(4, [8], 1, 8)
        d = nn.conv_discriminator(1, [8], 8)
    else:
        data = generate_ring2d(64, 8, 0.7, 0.05, seed=seed)
        g = nn.mlp_generator(4, [8, 8], 2)
        d = nn.mlp_discriminator(2, [8, 8])
    return cfg, data, g, d


def _dirac_setup(steps, seed=0):
    """The Dirac-GAN of ROADMAP item 24, where the adaptive controller acts.

    The target is 256 copies of the point (0.5, 0), the generator
    ``G(z) = Wz + b`` and the critic one normalized dense layer; ``alpha
    = 0.999`` and ``beta = 0.02`` let the controller move ``m`` within a
    few hundred steps.
    """
    cfg = TrainConfig(steps=steps, batch_size=16, lr_d=5e-3, lr_g=5e-3, beta1=0.0,
                      alpha=0.999, beta=0.02, seed=seed, eval_every=steps, eval_samples=16)
    data = np.tile(np.float32([0.5, 0.0]), (256, 1))
    g = NetworkSpec((1,), [dense(1, 2)])
    d = NetworkSpec((2,), [dense(2, 1, normalized=True)])
    return cfg, data, g, d


def _train(cfg, data, g, d, rows=None, baseline=None, **hooks):
    """The rows a run on ``data`` emits, appended to ``rows`` when given.

    The run uses ``baseline``, or else one built from its own inputs.
    """
    rows = [] if rows is None else rows
    if baseline is None:
        baseline = eval_baseline(cfg, data, g)
    run_training(cfg, baseline, d, hooks=TrainHooks(on_record=rows.append, **hooks))
    return rows


def _reference_layer(layer, params, grads, weight, h):
    """One float64 layer on the batch ``h``: its output and its backward.

    A conv layer is its dense operator matrix, built by the index arithmetic
    of ``helpers.conv_matrix_index``: the forward is that matrix times the
    input, the input gradient the transposed product, and the kernel gradient
    the matrix gradient mapped back through the same index map. Any other
    layer runs through ``nn`` on a one-layer spec. ``weight`` is the weight
    the forward uses; the backward adds its gradient, and the bias's, to
    ``grads`` and returns the input gradient.
    """
    n = len(h)
    if layer.kind not in ("conv2d", "convtranspose2d"):
        one = NetworkSpec(h.shape[1:], [layer])
        store = ParamStore(one, dtype=np.float64)
        store.params, store.grads = [params], [grads]
        y, tape = nn.forward(one, store, h, weights=None if weight is None else {0: weight})
        return y, lambda g: nn.backward(tape, g)
    out_shape, rows, cols, taps = conv_matrix_index(layer, h.shape[1:])
    A = np.zeros((math.prod(out_shape), math.prod(h.shape[1:])))
    A[rows, cols] = weight.ravel()[taps]
    x = h.reshape(n, -1)

    def back(g):
        g = g.reshape(n, -1)
        grads["b"] += g.reshape(n, out_shape[0], -1).sum(axis=(0, 2))
        dA = g.T @ x
        grads["W"] += np.bincount(taps, dA[rows, cols], weight.size).reshape(weight.shape)
        return (g @ A).reshape(h.shape)

    return (x @ A.T).reshape(n, *out_shape) + params["b"].reshape(-1, 1, 1), back


def _reference_pass(spec, store, x, weights=None):
    """``spec`` on ``x`` in float64, layer by layer: its output and its backward."""
    backs = []
    for i, layer in enumerate(spec.layers):
        weight = (weights or {}).get(i, store.params[i].get("W"))
        x, back = _reference_layer(layer, store.params[i], store.grads[i], weight, x)
        backs.append(back)

    def backward(g):
        for back in reversed(backs):
            g = back(g)
        return g

    return x, backward


def _blobs16_generator():
    # configs/blobs16.cfg's generator, with every parameter drawn at a scale
    # where each layer's nonlinearity and normalization matter
    g = nn.conv_generator(16, [32, 16], 1, 16)
    store = ParamStore(g, seed=(0, 0))
    store.flat[:] = np.random.default_rng(8).standard_normal(store.flat.size) * 0.2
    return g, store


def _chunk_sizes(store, z):
    """The batch sizes ``train.generate`` runs ``z`` in, and its output."""
    sizes = []

    def fwd(spec, st, x):
        sizes.append(len(x))
        return nn.forward(spec, st, x)

    return sizes, train.generate(store, z, fwd)


class TestGenerate:
    # the widest layer of blobs16's generator holds 16 x 8 x 8 floats a sample
    SAMPLE_BYTES = 16 * 8 * 8 * 4

    # a bound below one sample still runs one sample a chunk; 7 and 255 leave
    # a ragged last chunk
    @pytest.mark.parametrize("bound,chunk", [(1, 1), (7 * SAMPLE_BYTES, 7),
                                             (65 * SAMPLE_BYTES - 1, 64),
                                             (255 * SAMPLE_BYTES, 255), (256 * SAMPLE_BYTES, 256)])
    def test_conv_chunks_have_the_bits_of_one_pass(self, monkeypatch, bound, chunk):
        g, store = _blobs16_generator()
        z = train.sample_latent(np.random.default_rng(9), 256, g)
        whole = nn.forward(g, store, z)[0]
        monkeypatch.setattr(train, "EVAL_CHUNK_BYTES", bound)
        sizes, out = _chunk_sizes(store, z)
        assert sizes == [chunk] * (256 // chunk) + ([256 % chunk] if 256 % chunk else [])
        assert out.shape == whole.shape and out.dtype == whole.dtype
        assert out.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("name,chunks", [("ring2d", [1024]), ("ring2d_sweep", [512]),
                                             ("blobs16", [64] * 4)])
    def test_committed_configs_chunk_sizes(self, name, chunks):
        settings = load_settings(CONFIGS / f"{name}.cfg")
        g, _ = build_networks(settings, tuple(settings.dataset_spec().load().shape[1:]))
        store = ParamStore(g, seed=(0, 0))
        z = train.sample_latent(np.random.default_rng(0), settings.train.eval_samples, g)
        assert _chunk_sizes(store, z)[0] == chunks

    def test_dense_generator_runs_as_one_pass(self):
        # 1536 samples of ring2d's 64-float layers are 384 KB, past the bound;
        # split into chunks, its GEMMs would round differently from one pass
        settings = load_settings(CONFIGS / "ring2d.cfg")
        g, _ = build_networks(settings, (2,))
        store = ParamStore(g, seed=(0, 0))
        z = train.sample_latent(np.random.default_rng(0), 1536, g)
        whole = nn.forward(g, store, z)[0]
        sizes, out = _chunk_sizes(store, z)
        assert sizes == [1536]
        assert out.tobytes() == whole.tobytes()

    def test_eval_sample_peak_memory_at_blobs16_shapes(self):
        # one 256-sample pass peaks at about 7.6 MB; 64-sample chunks at about 2 MB
        _, store = _blobs16_generator()
        cfg = TrainConfig(eval_samples=256)
        train._eval_sample(cfg, store, 0)  # builds the cached gather tables
        tracemalloc.start()
        try:
            fake = train._eval_sample(cfg, store, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fake.shape == (256, 256) and fake.dtype == np.float64
        assert peak < 3 * 2**20


class TestEvalBaseline:
    def test_peak_memory_at_blobs16(self):
        # the bandwidth pools the real and generated evaluation sets in its
        # pair rows; a pooled np.vstack copy of them (1 MB of float64 at
        # 512 x 256) peaked at about 5.40e6 bytes, in place about 4.30e6
        settings = load_settings(CONFIGS / "blobs16.cfg")
        data = settings.dataset_spec().load()
        g, _ = build_networks(settings, tuple(data.shape[1:]))
        eval_baseline(settings.train, data, g)  # builds the cached gather tables
        tracemalloc.start()
        try:
            baseline = eval_baseline(settings.train, data, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert baseline.real_eval.shape == (256, 256)
        assert peak < 4.8e6


class TestDiracGan:
    """The adaptive controller acts on the Dirac-GAN (ROADMAP item 24)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_multiplier_drops_below_one_half_within_200_steps(self, seed):
        # m first fell below 0.5 at steps 101, 115, 119, 91 and 137
        cfg, data, g, d = _dirac_setup(steps=200, seed=seed)
        assert min(rec.m for rec in _train(cfg, data, g, d)) < 0.5

    def test_multiplier_settles_in_no_band(self):
        # seed 1 falls to 0.13 by step 200, then climbs back to 0.83 at step 721
        cfg, data, g, d = _dirac_setup(steps=800, seed=1)
        ms = np.array([rec.m for rec in _train(cfg, data, g, d)])
        assert ms[:301].min() < 0.2
        assert ms[301:].max() > 0.8


class TestTrainingLoop:
    def test_parity_discipline(self):
        # over N steps D gets ceil(N/2) updates, G gets floor(N/2)
        cfg, data, g, d = _tiny_setup(steps=7)
        from abcas.optim import Adam as _A
        counts = {}
        orig_step = _A.step

        def counting_step(self):
            counts[id(self)] = counts.get(id(self), 0) + 1
            orig_step(self)

        _A.step = counting_step
        try:
            _train(cfg, data, g, d)
        finally:
            _A.step = orig_step
        assert sorted(counts.values()) == [3, 4]

    def test_d_params_unchanged_by_g_step_and_vice_versa(self):
        cfg, data, g, d = _tiny_setup(steps=3)
        # rebuild the loop manually around run_training internals: compare
        # checkpoints taken by the eval hook after each step
        seen = {}

        def on_eval(step, g_store, d_store):
            seen[step] = (
                [p.copy() for lp in g_store.params for p in lp.values()],
                [p.copy() for lp in d_store.params for p in lp.values()],
            )

        cfg.eval_every = 1
        _train(cfg, data, g, d, on_eval=on_eval)
        g0, d0 = seen[0]
        g1, d1 = seen[1]   # after step 1 (D step)
        g2, d2 = seen[2]   # after step 2 (G step)
        assert all(np.array_equal(a, b) for a, b in zip(g0, g1))      # G frozen on D step
        assert any(not np.array_equal(a, b) for a, b in zip(d0, d1))  # D moved
        assert all(np.array_equal(a, b) for a, b in zip(d1, d2))      # D frozen on G step
        assert any(not np.array_equal(a, b) for a, b in zip(g1, g2))  # G moved

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_g_step_leaves_d_gradients_alone(self, family):
        # the G step's pass through D accumulates no D gradients: D's gradient
        # vector still holds the last D step's, bit for bit
        cfg, data, g, d = _tiny_setup(steps=6, family=family)
        seen = {}

        def on_eval(step, g_store, d_store):
            seen[step] = d_store.grad_flat.copy()

        cfg.eval_every = 1
        _train(cfg, data, g, d, on_eval=on_eval)
        for step in (2, 4, 6):
            assert seen[step - 1].any()
            assert seen[step].tobytes() == seen[step - 1].tobytes()

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_d_step_stacks_the_batches_of_a_per_sample_critic(self, monkeypatch, family):
        # a conv critic scores a D step's real and fake batches in one
        # forward and one backward; a dense critic takes two of each. A G
        # step scores its fake batch alone
        steps = []  # per step: (D forward batch sizes, D backward calls)
        real = {name: getattr(train, name) for name in ("refresh", "forward", "backward")}

        def refresh(*args):
            steps.append(([], 0))
            return real["refresh"](*args)

        def forward(spec, store, x, weights=None):
            if spec is d:
                steps[-1][0].append(len(x))
            return real["forward"](spec, store, x, weights)

        def backward(tape, grad_out):
            if tape.spec is d:
                steps[-1] = (steps[-1][0], steps[-1][1] + 1)
            return real["backward"](tape, grad_out)

        for name, fn in (("refresh", refresh), ("forward", forward), ("backward", backward)):
            monkeypatch.setattr(train, name, fn)
        cfg, data, g, d = _tiny_setup(steps=6, family=family)
        _train(cfg, data, g, d)
        n = cfg.batch_size
        d_step = ([2 * n], 1) if family == "conv" else ([n, n], 2)
        assert steps == [d_step, ([n], 1)] * 3

    def test_conv_d_step_gradients_are_one_plain_pass(self, monkeypatch):
        # just before the norm backward, a conv critic's D-step W and b
        # gradients have the bits of one plain forward and backward over the
        # stacked 2N rows. The same sum split into real rows, then fake,
        # rounds differently on this seed, so the comparison can tell the two
        seen = []  # per D step: [rows, weights, loss gradient, params, gradients]
        real = {name: getattr(train, name)
                for name in ("forward", "backward", "apply_norm_backward")}

        def forward(spec, store, x, weights=None):
            if spec is d and len(x) == 2 * cfg.batch_size:
                seen.append([x.copy(), {i: w.copy() for i, w in weights.items()}])
            return real["forward"](spec, store, x, weights)

        def backward(tape, grad_out):
            if tape.spec is d and tape.param_grads:
                seen[-1].append(grad_out.copy())
            return real["backward"](tape, grad_out)

        def apply_norm_backward(states, store, m):
            seen[-1] += [store.flat.copy(), store.grad_flat.copy()]
            return real["apply_norm_backward"](states, store, m)

        for name, fn in (("forward", forward), ("backward", backward),
                         ("apply_norm_backward", apply_norm_backward)):
            monkeypatch.setattr(train, name, fn)
        cfg, data, g, d = _tiny_setup(steps=6, family="conv")
        _train(cfg, data, g, d)
        n = cfg.batch_size

        def replay(x, weights, grad, params, passes):
            store = ParamStore(d)
            store.flat[:] = params
            for rows in passes:
                nn.backward(nn.forward(d, store, x[rows], weights)[1], grad[rows])
            return store.grad_flat.tobytes()

        assert len(seen) == 3
        resplit = []
        for x, weights, grad, params, grads in seen:
            assert replay(x, weights, grad, params, [slice(None)]) == grads.tobytes()
            resplit.append(replay(x, weights, grad, params, [slice(0, n), slice(n, 2 * n)])
                           == grads.tobytes())
        assert not all(resplit)

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_each_step_makes_one_loss_call(self, monkeypatch, family):
        # a D step's one call to d_loss_grads and a G step's one call to
        # g_loss_grad return the loss with its gradient; the loop never
        # calls d_loss or g_loss
        steps = []  # per step: the loss functions it called
        names = ("d_loss", "d_loss_grads", "g_loss", "g_loss_grad")
        real = {name: getattr(train, name) for name in ("refresh", *names)}

        def refresh(*args):
            steps.append([])
            return real["refresh"](*args)

        def counted(name):
            def fn(*args):
                steps[-1].append(name)
                return real[name](*args)
            return fn

        monkeypatch.setattr(train, "refresh", refresh)
        for name in names:
            monkeypatch.setattr(train, name, counted(name))
        cfg, data, g, d = _tiny_setup(steps=6, family=family)
        _train(cfg, data, g, d)
        assert steps == [["d_loss_grads"], ["g_loss_grad"]] * 3

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_only_a_g_step_keeps_the_generator_tape(self, monkeypatch, family):
        # a D step needs G's output alone, so G's tape is freed before the
        # critic runs; a G step keeps it for its backward
        seen = []  # per critic pass: (step, is the last G tape alive)
        now = {"step": 0, "g_tape": None}
        real = {name: getattr(train, name) for name in ("refresh", "forward")}

        def refresh(*args):
            now["step"] += 1
            return real["refresh"](*args)

        def forward(spec, store, x, weights=None):
            y, tape = real["forward"](spec, store, x, weights)
            if spec is g:
                now["g_tape"] = weakref.ref(tape)
            else:
                seen.append((now["step"], now["g_tape"]() is not None))
            return y, tape

        for name, fn in (("refresh", refresh), ("forward", forward)):
            monkeypatch.setattr(train, name, fn)
        cfg, data, g, d = _tiny_setup(steps=6, family=family)
        _train(cfg, data, g, d)
        d_passes = 1 if family == "conv" else 2
        assert seen == [(k, k % 2 == 0) for k in range(1, 7)
                        for _ in range(d_passes if k % 2 else 1)]

    def test_empty_dataset_rejected(self):
        cfg, data, g, d = _tiny_setup()
        with pytest.raises(ValueError, match="^empty dataset$"):
            eval_baseline(cfg, data[:0], g)

    def test_fixed_mode_logs_constant_m(self):
        cfg, data, g, d = _tiny_setup(steps=8, mode="fixed", m=0.7)
        recs = _train(cfg, data, g, d)
        assert all(r.m == 0.7 for r in recs)

    def test_controller_state_changes_only_on_odd_steps(self):
        cfg, data, g, d = _tiny_setup(steps=9)
        recs = _train(cfg, data, g, d)
        for prev, cur in zip(recs, recs[1:]):
            if cur.step % 2 == 0:
                assert (cur.dist, cur.dm, cur.r, cur.m) == (prev.dist, prev.dm, prev.r, prev.m)

    def test_controller_observes_once_per_odd_step(self, monkeypatch):
        # a subclass counts the calls, as perfbench's tracer wraps them
        calls = []
        seen = []  # (step, the calls made since the last row)

        class Counting(train.AbcasState):
            def observe_and_update(self, c_real, c_fake):
                calls.append(1)
                super().observe_and_update(c_real, c_fake)

        def on_record(rec):
            seen.append((rec.step, len(calls)))
            calls.clear()

        monkeypatch.setattr(train, "AbcasState", Counting)
        cfg, data, g, d = _tiny_setup(steps=9)
        run_training(cfg, eval_baseline(cfg, data, g), d, TrainHooks(on_record=on_record))
        assert seen == [(step, step % 2) for step in range(cfg.steps + 1)]

    def test_adaptive_m_matches_power_of_r(self):
        cfg, data, g, d = _tiny_setup(steps=9)
        recs = _train(cfg, data, g, d)
        for r in recs:
            assert r.m == 0.9 ** r.r

    def test_norm_backward_uses_the_refresh_multiplier(self, monkeypatch):
        # the controller updates m between the refresh and the norm backward
        # of a D step; the backward must still use the m of the forward pass
        steps = []  # per training step: [refresh m, norm-backward m or None]
        orig_refresh, orig_backward = train.refresh, train.apply_norm_backward

        def refresh(states, store, m):
            steps.append([m, None])
            return orig_refresh(states, store, m)

        def apply_norm_backward(states, store, m):
            steps[-1][1] = m
            orig_backward(states, store, m)

        monkeypatch.setattr(train, "refresh", refresh)
        monkeypatch.setattr(train, "apply_norm_backward", apply_norm_backward)
        cfg, data, g, d = _tiny_setup(steps=9)
        recs = _train(cfg, data, g, d)
        assert len(steps) == cfg.steps
        assert all(backward_m == refresh_m for refresh_m, backward_m in steps[0::2])
        assert all(backward_m is None for _, backward_m in steps[1::2])
        # controller.m, logged after each step, did move off the step's m
        assert any(rec.m != refresh_m for rec, (refresh_m, _) in zip(recs[1:], steps))

    @staticmethod
    def _check_one_layer_critic_gap(monkeypatch, cfg, data, g, d):
        # a critic of one normalized dense layer: one power step on a one-row
        # W gives sigma = |w|, so refresh's effective weight has norm m and
        # C(x) = m w_hat . x + b; every D step's dist is m (max w_hat . x_real
        # - min w_hat . x_fake), the bias cancelling, with m the previous row's
        rows, weights, batches, norms = [], [], {}, []
        real_forward, real_refresh = train.forward, train.refresh

        def refresh(*args):
            effective = real_refresh(*args)
            norms.append(np.linalg.norm(effective[0].astype(np.float64), 2))
            return effective

        def forward(spec, store, x, **kw):
            # during step k, rows 0..k-1 have been emitted
            if spec is d:
                batches.setdefault(len(rows), []).append(x.astype(np.float64))
            return real_forward(spec, store, x, **kw)

        def on_eval(step, g_store, d_store):
            weights.append((d_store.params[0]["W"][0].astype(np.float64),
                            float(d_store.params[0]["b"][0])))

        monkeypatch.setattr(train, "refresh", refresh)
        monkeypatch.setattr(train, "forward", forward)
        _train(cfg, data, g, d, rows, on_eval=on_eval)
        assert len(weights) == len(rows) == len(norms) + 1 == cfg.steps + 1
        eps = np.finfo(np.float32).eps
        # the float32 rounding of m / sigma * W moves its norm by at most eps / 2
        for k in range(1, cfg.steps + 1):
            assert abs(norms[k - 1] - rows[k - 1].m) <= eps * rows[k - 1].m, k
        for k in range(1, cfg.steps + 1, 2):
            w, b = weights[k - 1]
            # a D step scores its real batch, then its fake one
            real, fake = batches[k]
            assert (real[:, None] == data[None]).all(-1).any(-1).all(), k
            w_hat = w / np.linalg.norm(w)
            c_real, c_fake = real @ w_hat, fake @ w_hat
            m = rows[k - 1].m
            want = m * (c_real.max() - c_fake.min())
            # the float32 forward rounds C to within a few ulps of its magnitude
            scale = m * max(np.abs(c_real).max(), np.abs(c_fake).max()) + abs(b)
            assert abs(rows[k].dist - want) <= 4 * eps * scale, k
        return rows

    def test_one_layer_critic_gap_has_its_closed_form(self, monkeypatch):
        # alpha = 0.5 and beta = 1 move m by about 1% a step, so the
        # post-update m misses the bound
        cfg, data, g, _ = _tiny_setup(steps=60, beta=1.0)
        cfg.alpha, cfg.eval_every = 0.5, 1
        d = NetworkSpec((2,), [dense(2, 1, normalized=True)])
        self._check_one_layer_critic_gap(monkeypatch, cfg, data, g, d)

    def test_one_layer_critic_gap_has_its_closed_form_on_the_dirac_gan(self, monkeypatch):
        # on the Dirac-GAN the controller takes m from 1 to about 0.07 within
        # 200 steps, so the closed form is checked over most of m's range
        cfg, data, g, d = _dirac_setup(steps=200)
        cfg.eval_every = 1
        rows = self._check_one_layer_critic_gap(monkeypatch, cfg, data, g, d)
        assert min(rec.m for rec in rows) < 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_d_step_gap_is_within_the_certified_lipschitz_bound(self, monkeypatch, seed):
        # the critic's Lipschitz constant is at most the product of its
        # effective weights' norms, m sigma_i / sigma_hat_i over its L
        # normalized layers (ReLU is 1-Lipschitz), so dist = C(x_r) - C(x_f)
        # for the maximizing pair is at most that product times the largest
        # real-fake distance. sigma_i is W_i's exact norm: sigma_hat_i <= sigma_i,
        # so m^L alone is no bound. ring2d with beta from ROADMAP item 1's
        # recipe moves m to 0.68-0.83 within 400 steps; the largest dist over
        # its bound was 0.40-0.55 on seeds 0-2
        settings = load_settings(CONFIGS / "ring2d.cfg", {
            "steps": "400", "beta": "0.0754", "alpha": "0.999", "seed": str(seed),
            "eval_every": "400", "eval_samples": "64"})
        cfg, data = settings.train, settings.dataset_spec().load()
        g, d = build_networks(settings, data.shape[1:])
        lipschitz, batches = [], []
        real_forward, real_refresh = train.forward, train.refresh

        def refresh(states, store, m):
            effective = real_refresh(states, store, m)
            bound = 1.0
            for i, state in states.items():
                sigma = np.linalg.norm(store.params[i]["W"].astype(np.float64), 2)
                bound *= m * sigma / state.sigma_hat
            lipschitz.append(bound)
            batches.append([])
            return effective

        def forward(spec, store, x, **kw):
            if spec is d:
                batches[-1].append(x.astype(np.float64))
            return real_forward(spec, store, x, **kw)

        monkeypatch.setattr(train, "refresh", refresh)
        monkeypatch.setattr(train, "forward", forward)
        rows = _train(cfg, data, g, d)
        assert min(rec.m for rec in rows) < 0.9
        for k in range(1, cfg.steps + 1, 2):
            # a dense critic scores a D step's real batch, then its fake one
            real, fake = batches[k - 1]
            reach = np.sqrt(((real[:, None] - fake[None]) ** 2).sum(-1)).max()
            assert rows[k].dist <= lipschitz[k - 1] * reach, k

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_steps_match_a_float64_straight_line_reference(self, family, seed):
        # the first 20 steps replayed in float64 from the run's step-0
        # parameters and random draws, with the update written out: an
        # explicit power step on each W as a (c_out, -1) matrix, W' = m W /
        # sigma, logaddexp losses, the SN gradient (m/sigma) G - (m/sigma^2)
        # <G, W> u v^T with the step's m (not the one the controller moves it
        # to), textbook Adam and the controller recurrence. alpha = 0.5 and
        # beta = 0.05 move m every D step. The real and fake batches take one
        # float64 pass each, where the loop stacks a conv critic's into one;
        # every conv layer runs as its dense operator matrix (_reference_pass)
        cfg, data, g, d = _tiny_setup(steps=20, seed=seed, beta=0.05, family=family)
        cfg.alpha, cfg.eval_every = 0.5, 1
        params = []
        rows = _train(cfg, data, g, d, on_eval=lambda step, g_store, d_store: params.append(
            [g_store.flat.astype(np.float64), d_store.flat.astype(np.float64)]))
        stores = [ParamStore(g, dtype=np.float64), ParamStore(d, dtype=np.float64)]
        for store, flat in zip(stores, params[0]):
            store.flat[:] = flat
        g_store, d_store = stores
        moments = [[np.zeros_like(store.flat), np.zeros_like(store.flat)] for store in stores]
        normed = [i for i, layer in enumerate(d.layers) if layer.normalized]
        us = {}
        for i in normed:
            u = np.random.default_rng([seed, 2, i]).standard_normal(d.layers[i].out_ch)
            us[i] = u / np.linalg.norm(u)
        real_data = data.astype(np.float32).astype(np.float64)
        rng = np.random.default_rng([seed, 3])
        n = cfg.batch_size
        m, dm, dist, scale, losses = 1.0, 0.0, 0.0, 0.0, [0.0, 0.0]
        for k in range(1, cfg.steps + 1):
            effective, vs, sigmas = {}, {}, {}
            for i in normed:
                W = d_store.params[i]["W"].reshape(d.layers[i].out_ch, -1)
                v = W.T @ us[i]
                vs[i] = v / np.linalg.norm(v)
                wv = W @ vs[i]
                sigmas[i] = np.linalg.norm(wv)
                us[i] = wv / sigmas[i]
                effective[i] = m * d_store.params[i]["W"] / sigmas[i]
            z = rng.standard_normal((n, *g.input_shape)).astype(np.float32).astype(np.float64)
            real = real_data[rng.integers(0, len(data), n)]
            x_fake, back_g = _reference_pass(g, g_store, z)
            c_fake, back_fake = _reference_pass(d, d_store, x_fake, weights=effective)
            # d/dc log(1 + e^c) = e^-log(1 + e^-c)
            if k % 2 == 1:
                c_real, back_real = _reference_pass(d, d_store, real, weights=effective)
                dist = c_real.max() - c_fake.min()
                scale = max(np.abs(c_real).max(), np.abs(c_fake).max())
                losses[0] = np.logaddexp(0, -c_real).mean() + np.logaddexp(0, c_fake).mean()
                d_store.zero_grad()
                back_real(-np.exp(-np.logaddexp(0, c_real)) / n)
                back_fake(np.exp(-np.logaddexp(0, -c_fake)) / n)
                for i in normed:
                    W, G = d_store.params[i]["W"], d_store.grads[i]["W"]
                    G[:] = (m / sigmas[i]) * G - (m / sigmas[i] ** 2) * np.sum(G * W) * np.outer(
                        us[i], vs[i]).reshape(W.shape)
                dm = cfg.alpha * dm + (1 - cfg.alpha) * dist
                clbr = min(max(dm / cfg.beta, 0.0), 0.98)
                m = 0.9 ** (clbr / (1 - clbr))
            else:
                losses[1] = np.logaddexp(0, -c_fake).mean()
                # D's gradients from this pass are zeroed before D's next step
                g_store.zero_grad()
                back_g(back_fake(-np.exp(-np.logaddexp(0, c_fake)) / n))
            t = (k + 1) // 2
            store, (mom, vel), lr = stores[k % 2], moments[k % 2], (cfg.lr_g, cfg.lr_d)[k % 2]
            grad = store.grad_flat
            mom[:] = cfg.beta1 * mom + (1 - cfg.beta1) * grad
            vel[:] = cfg.beta2 * vel + (1 - cfg.beta2) * grad * grad
            store.flat -= lr * (mom / (1 - cfg.beta1 ** t)) / (
                np.sqrt(vel / (1 - cfg.beta2 ** t)) + 1e-8)
            row = rows[k]
            got = [row.d_loss, row.g_loss, row.dm, row.m, row.dist / scale]
            want = losses + [dm, m, dist / scale]
            assert np.abs(np.subtract(got, want)).max() <= 1e-5, (k, got, want)
            for store, flat in zip(stores, params[k]):
                assert np.abs(flat - store.flat).max() <= 1e-5 * np.abs(store.flat).max(), k
        assert len(rows) == len(params) == cfg.steps + 1

    def test_full_run_determinism(self):
        cfg, data, g, d = _tiny_setup(steps=20, seed=3)
        recs1 = _train(cfg, data, g, d)
        cfg2, data2, g2, d2 = _tiny_setup(steps=20, seed=3)
        recs2 = _train(cfg2, data2, g2, d2)
        for a, b in zip(recs1, recs2):
            da = dataclasses.asdict(a)
            db = dataclasses.asdict(b)
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db  # bit-identical apart from wall clock

    def test_record_count_and_epoch_column(self):
        cfg, data, g, d = _tiny_setup(steps=10)
        recs = _train(cfg, data, g, d)
        assert len(recs) == 11
        spe = max(1, len(data) // cfg.batch_size)
        assert [r.epoch for r in recs] == [r.step // spe for r in recs]

    def test_numeric_abort_carries_step_and_last_record(self):
        cfg, data, g, d = _tiny_setup(steps=10)

        def on_eval(step, g_store, d_store):
            if step == 0:
                # poison the generator so step 1 produces non-finite critics
                g_store.params[1]["W"][0, 0] = np.nan
        with pytest.raises(NumericAbort) as exc:
            _train(cfg, data, g, d, on_eval=on_eval)
        assert exc.value.step == 1
        assert exc.value.last_record is not None
        assert exc.value.last_record.step == 0

    def test_non_finite_step_zero_eval_sample_aborts(self, monkeypatch):
        # checked before the bandwidth, like every later eval sample
        cfg, data, g, d = _tiny_setup(steps=10)
        def nan_latent(rng, n, spec):
            return np.full((n, *spec.input_shape), np.nan, np.float32)
        monkeypatch.setattr(train, "sample_latent", nan_latent)
        with pytest.raises(NumericAbort, match="generated evaluation sample at step 0") as exc:
            eval_baseline(cfg, data, g)
        assert exc.value.step == 0
        assert exc.value.last_record is None

    # a conv critic's D step scores the real and fake batches in one pass
    @pytest.mark.parametrize("site,family", [
        *(pytest.param(site, "mlp", id=site) for site in ABORT_SITES),
        *(pytest.param(site, "conv", id=f"conv-{site}") for site in ABORT_SITES)])
    def test_each_abort_site_carries_step_and_last_record(self, monkeypatch, site, family):
        what, step = ABORT_SITES[site]
        break_training_at(monkeypatch, site)
        cfg, data, g, d = _tiny_setup(steps=12, family=family)
        rows = []
        with pytest.raises(NumericAbort) as exc:
            _train(cfg, data, g, d, rows)
        assert str(exc.value) == f"non-finite {what} at step {step}"
        assert exc.value.step == step
        assert exc.value.last_record is rows[-1]
        assert exc.value.last_record.step == step - 1

    def test_given_baseline_gives_the_same_records(self):
        cfg, data, g, d = _tiny_setup(steps=12, mode="fixed", m=0.8)
        own = _train(cfg, data, g, d)
        # built from another run's config that differs only in mode, m and beta,
        # and from an equal copy of the dataset
        baseline = eval_baseline(_tiny_setup(beta=2.0)[0], data.copy(), g)
        shared = _train(cfg, None, g, d, baseline=baseline)
        for a, b in zip(own, shared, strict=True):
            assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)

    @pytest.mark.parametrize("field", ["seed", "eval_samples"])
    def test_baseline_from_other_inputs_rejected(self, field):
        cfg, data, g, d = _tiny_setup()
        baseline = eval_baseline(cfg, data, g)
        if field == "seed":
            cfg.seed = 1
        else:
            cfg.eval_samples = 16
        with pytest.raises(ValueError, match=f"baseline was built for {field} "):
            run_training(cfg, baseline, d)

    def test_returns_the_generator_and_holds_no_row(self):
        # a row outlives its on_record call only as the last row, which a
        # NumericAbort would carry
        cfg, data, g, d = _tiny_setup(steps=12)
        refs, alive, evaluated = [], {}, {}

        def on_eval(step, g_store, d_store):
            evaluated[step] = g_store
            if step == 2 * cfg.eval_every:
                alive[step] = [ref().step for ref in refs if ref() is not None]

        g_store = run_training(cfg, eval_baseline(cfg, data, g), d, hooks=TrainHooks(
            on_record=lambda rec: refs.append(weakref.ref(rec)), on_eval=on_eval))
        assert len(refs) == cfg.steps + 1
        assert alive[10] in ([], [9])
        assert g_store is evaluated[cfg.steps]
        assert g_store.spec is g

    def test_conv_family_trains(self):
        from abcas.data import generate_blobs
        cfg = TrainConfig(steps=8, batch_size=4, seed=1, eval_every=4, eval_samples=16)
        data = generate_blobs(32, img_size=8, seed=1)
        g = nn.conv_generator(8, [8], 1, 8)
        d = nn.conv_discriminator(1, [8], 8)
        recs = _train(cfg, data, g, d)
        assert len(recs) == 9
        assert all(np.isfinite(r.d_loss) and np.isfinite(r.mmd2) for r in recs)

    def test_dataset_shape_mismatch_rejected(self):
        # the data fits the generator, so its baseline builds, but not this critic
        cfg, data, g, _ = _tiny_setup()
        with pytest.raises(ValueError, match="does not match the discriminator input"):
            run_training(cfg, eval_baseline(cfg, data, g), nn.mlp_discriminator(3, [8, 8]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_d=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(mode="fixed", m=0.0).validate()
        TrainConfig().validate()
