import numpy as np
import pytest

from abcas import nn, specnorm
from abcas.linalg import PowerIterState, power_iterate, spectral_norm_exact
from abcas.nn import NetworkSpec, ParamStore, backward, dense, forward, relu
from abcas.specnorm import (
    apply_norm_backward,
    backward_through_norm,
    init_spectral_states,
    normalized_weight,
    refresh,
)
from abcas.train import d_loss_grads

from helpers import central_diff_grad, rel_err


def _converged_state(W, seed=0, steps=5000):
    return power_iterate(W, PowerIterState(u=_unit(W.shape[0], seed)), steps=steps, rel_tol=1e-14)


def _unit(n, seed):
    u = np.random.default_rng(seed).standard_normal(n)
    return u / np.linalg.norm(u)


class TestNormalizedWeight:
    def test_diagonal_example(self):
        W = np.diag([2.0, 1.0])
        st = _converged_state(W)
        Wp = normalized_weight(W, st, 0.9)
        assert np.allclose(Wp, np.diag([0.9, 0.45]), atol=1e-9)
        assert abs(spectral_norm_exact(Wp) - 0.9) < 1e-9

    def test_m_one_on_unit_norm_matrix(self):
        W = np.diag([1.0, 0.25])
        st = _converged_state(W)
        assert np.allclose(normalized_weight(W, st, 1.0), W, atol=1e-12)

    def test_m_one_is_plain_spectral_normalization(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((5, 3))
        st = _converged_state(W)
        Wp = normalized_weight(W, st, 1.0)
        assert abs(spectral_norm_exact(Wp) - 1.0) < 1e-6

    def test_sigma_contract_multiple_m(self):
        rng = np.random.default_rng(5)
        for k in range(6):
            W = rng.standard_normal((6, 8))
            st = _converged_state(W, seed=k)
            for m in (0.5, 0.9, 1.0):
                sig = spectral_norm_exact(normalized_weight(W, st, m))
                assert m * 0.999 <= sig <= m * 1.001

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((4, 4))
        st1 = _converged_state(W, seed=1)
        st2 = _converged_state(3.7 * W, seed=1)
        a = normalized_weight(W, st1, 0.8)
        b = normalized_weight(3.7 * W, st2, 0.8)
        assert rel_err(a, b) < 1e-6

    def test_degenerate_zero_weight(self):
        W = np.zeros((3, 3))
        st = _converged_state(W)
        Wp = normalized_weight(W, st, 0.9)
        assert st.sigma_hat < specnorm.EPS_DIV
        assert np.array_equal(Wp, W)

    def test_conv_kernel_normalization(self):
        rng = np.random.default_rng(7)
        K = rng.standard_normal((4, 3, 3, 3))
        st = _converged_state(K.reshape(len(K), -1))
        Kp = normalized_weight(K, st, 0.7)
        assert abs(spectral_norm_exact(Kp.reshape(len(Kp), -1)) - 0.7) < 1e-3 * 0.7


class TestBackwardThroughNorm:
    def test_finite_difference_composite(self):
        # L(W) = <C, m*W/(u^T W v)> with u, v frozen
        rng = np.random.default_rng(8)
        W = rng.standard_normal((3, 3))
        st = _converged_state(W, seed=2)
        m = 0.8
        C = rng.standard_normal((3, 3))
        u, v = st.u, st.v

        analytic = backward_through_norm(st, W, m, C.copy())

        def loss(Wv):
            sigma = float(u @ Wv @ v)
            return float(np.sum(C * (m / sigma) * Wv))

        fd = central_diff_grad(loss, W)
        assert rel_err(analytic, fd) < 1e-4

    def test_finite_difference_through_network(self):
        # full composite: normalized dense layer inside a forward/backward pass
        spec = NetworkSpec((3,), [dense(3, 4, normalized=True), relu(), dense(4, 1)])
        store = ParamStore(spec, seed=1, dtype=np.float64)
        rng = np.random.default_rng(9)
        store.params[0]["W"] += 0.3 * rng.standard_normal((4, 3))
        states = init_spectral_states(store, seed=11)
        x = rng.standard_normal((5, 3)) + 0.2

        states = {i: power_iterate(store.params[i]["W"], st, steps=4000, rel_tol=1e-14)
                  for i, st in states.items()}
        eff = refresh(states, store, m=0.8)
        y, tape = forward(spec, store, x, weights=eff)
        store.zero_grad()
        backward(tape, np.ones_like(y))
        apply_norm_backward(states, store, m=0.8)
        analytic = store.grads[0]["W"].copy()

        u, v = states[0].u, states[0].v
        base = store.params[0]["W"].copy()

        def loss(Wv):
            sigma = float(u @ Wv @ v)
            store.params[0]["W"][...] = Wv
            effv = {0: (0.8 / sigma) * Wv}
            yv, _ = forward(spec, store, x, weights=effv)
            store.params[0]["W"][...] = base
            return float(np.sum(yv))

        fd = central_diff_grad(loss, base)
        assert rel_err(analytic, fd) < 1e-4

    def test_gradient_scales_inversely_with_weight_scale(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((4, 4))
        C = rng.standard_normal((4, 4))
        c = 5.0
        st1 = _converged_state(W, seed=3)
        st2 = _converged_state(c * W, seed=3)
        g1 = backward_through_norm(st1, W, 0.9, C.copy())
        g2 = backward_through_norm(st2, c * W, 0.9, C.copy())
        assert rel_err(g2, g1 / c) < 1e-6

    def test_missing_cache_raises(self):
        st = PowerIterState(u=_unit(3, 0), sigma_hat=1.0)
        with pytest.raises(RuntimeError):
            backward_through_norm(st, np.ones((3, 3)), 0.9, np.ones((3, 3)))

    def test_degenerate_passthrough(self):
        st = PowerIterState(u=_unit(3, 0), sigma_hat=0.0)
        G = np.ones((3, 3))
        assert np.array_equal(backward_through_norm(st, np.zeros((3, 3)), 0.9, G), G)


def _norm_backward_reference(state, W, m, G):
    # the formula before the in-place form: a float64 copy of G, np.outer
    Wm = W.reshape(len(W), -1)
    Gm = G.reshape(Wm.shape)
    inner = float(np.sum(np.asarray(Gm, dtype=np.float64) * Wm))
    dW = (m / state.sigma_hat) * Gm - (m * inner / state.sigma_hat**2) * np.outer(state.u, state.v)
    return dW.reshape(G.shape).astype(G.dtype, copy=False)


def _power_step_reference(W, u):
    # the step before math.sqrt(x . x): np.linalg.norm
    W = np.asarray(W, dtype=np.float64)
    v = W.T @ u
    v /= np.linalg.norm(v)
    wv = W @ v
    nu = np.linalg.norm(wv)
    return wv / nu, float(nu), v


class TestBitsAgainstReferenceFormulas:
    # the blobs16 D kernels, the ring2d D weights and one odd shape
    SHAPES = [(16, 1, 4, 4), (32, 16, 4, 4), (1, 32, 4, 4), (64, 2), (64, 64), (1, 64), (5, 3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_power_step_and_norm_backward(self, shape, dtype):
        rng = np.random.default_rng(44)
        W = (0.02 * rng.standard_normal(shape)).astype(dtype)
        state = PowerIterState(u=_unit(shape[0], 45))
        for m in (1.0, 0.9, 0.3):
            u, sigma, v = _power_step_reference(W.reshape(len(W), -1), state.u)
            state = specnorm.power_iteration_step(W.reshape(len(W), -1), state)
            assert (state.u.tobytes(), state.sigma_hat, state.v.tobytes()) == (
                u.tobytes(), sigma, v.tobytes())
            G = rng.standard_normal(shape).astype(dtype)
            want = _norm_backward_reference(state, W, m, G)
            assert backward_through_norm(state, W, m, G) is G
            assert G.tobytes() == want.tobytes()


class TestLipschitzBound:
    def test_three_layer_relu_discriminator(self):
        # all layers normalized with multiplier m: |D(x1)-D(x2)| <= m^3 |x1-x2|
        m = 0.8
        spec = nn.mlp_discriminator(6, [16, 16])
        store = ParamStore(spec, seed=3, dtype=np.float64)
        states = init_spectral_states(store, seed=4)
        states = {i: power_iterate(store.params[i]["W"], st, steps=4000, rel_tol=1e-14)
                  for i, st in states.items()}
        eff = refresh(states, store, m=m)

        rng = np.random.default_rng(12)
        x1 = rng.standard_normal((2000, 6))
        x2 = rng.standard_normal((2000, 6))
        y1, _ = forward(spec, store, x1, weights=eff)
        y2, _ = forward(spec, store, x2, weights=eff)
        gaps = np.abs(y1 - y2)[:, 0]
        dist = np.linalg.norm(x1 - x2, axis=1)
        assert np.all(gaps <= (m ** 3) * dist * (1.0 + 1e-4))


def _random_critic(family, activation):
    """A float64 critic of ``family`` with ``activation`` between its
    normalized layers, every parameter (biases too) drawn at scale 0.5,
    and a batch of 16 inputs."""
    rng = np.random.default_rng(13)
    if family == "mlp":
        spec, x = nn.mlp_discriminator(2, [16, 16]), rng.uniform(-1, 1, (16, 2))
    else:
        spec, x = nn.conv_discriminator(1, [4, 8], 16), rng.uniform(-1, 1, (16, 1, 16, 16))
    spec.layers = [nn.Layer(activation) if layer.kind == "relu" else layer
                   for layer in spec.layers]
    store = ParamStore(spec, dtype=np.float64)
    store.flat[:] = rng.standard_normal(store.flat.size) * 0.5
    return spec, store, x


class TestFixedMultiplierIsTemperature:
    """A critic C_m run at multiplier m is m^L * C', where C' is the same
    critic at m = 1 with the k-th of its L normalized layers' biases
    divided by m^k. It holds when only positively homogeneous activations
    (ReLU) sit between the normalized layers and the biases are free."""

    def _pair(self, family, activation, m):
        """C_m and C' as (store, effective weights, spectral states), and L.

        Both stores hold the same W, so one power step from the same seed
        gives both the same sigma estimate.
        """
        spec, store, x = _random_critic(family, activation)
        prime = ParamStore(spec, dtype=np.float64)
        prime.flat[:] = store.flat
        normalized = [i for i, layer in enumerate(spec.layers) if layer.normalized]
        for k, i in enumerate(normalized, start=1):
            prime.params[i]["b"][...] /= m ** k
        nets = []
        for st, mult in ((store, m), (prime, 1.0)):
            states = init_spectral_states(st, seed=1)
            nets.append((st, refresh(states, st, mult), states))
        return spec, x, nets, normalized

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    @pytest.mark.parametrize("m", [0.5, 0.7])
    def test_critic_at_m_is_scaled_sn_critic(self, family, m):
        spec, x, ((store, eff, _), (prime, eff_p, _)), normalized = self._pair(family, "relu", m)
        c_m = forward(spec, store, x, weights=eff)[0]
        c_p = forward(spec, prime, x, weights=eff_p)[0]
        assert np.abs(c_m).max() > 0.1
        assert rel_err(c_m, m ** len(normalized) * c_p) < 1e-13

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    def test_tanh_between_layers_breaks_the_identity(self, family):
        m = 0.7
        spec, x, ((store, eff, _), (prime, eff_p, _)), normalized = self._pair(family, "tanh", m)
        c_m = forward(spec, store, x, weights=eff)[0]
        c_p = forward(spec, prime, x, weights=eff_p)[0]
        assert rel_err(c_m, m ** len(normalized) * c_p) > 1e-3

    @pytest.mark.parametrize("family", ["mlp", "conv"])
    @pytest.mark.parametrize("m", [0.5, 0.7])
    def test_one_step_gradients(self, family, m):
        # loss(C_m) and loss(m^L * C') are one function of W, and of b through
        # b' = b / m^k: equal W gradients, bias gradients m^-k apart
        spec, x, nets, normalized = self._pair(family, "relu", m)
        scales = (1.0, m ** len(normalized))
        for (st, eff, states), mult, scale in zip(nets, (m, 1.0), scales):
            y_real, tape_real = forward(spec, st, x[:8], weights=eff)
            y_fake, tape_fake = forward(spec, st, x[8:], weights=eff)
            _, grad = d_loss_grads(scale * y_real.ravel(), scale * y_fake.ravel())
            st.zero_grad()
            backward(tape_real, scale * grad[:len(y_real)].reshape(y_real.shape))
            backward(tape_fake, scale * grad[len(y_real):].reshape(y_fake.shape))
            apply_norm_backward(states, st, mult)
        (store, _, _), (prime, _, _) = nets
        for k, i in enumerate(normalized, start=1):
            assert np.abs(store.grads[i]["b"]).max() > 1e-3
            assert rel_err(store.grads[i]["W"], prime.grads[i]["W"]) < 1e-12
            assert rel_err(store.grads[i]["b"], m ** -k * prime.grads[i]["b"]) < 1e-12


class TestPlumbing:
    def test_init_refuses_non_weight_layers(self):
        spec = NetworkSpec((3,), [nn.tanh()])
        spec.layers[0].normalized = True
        store = ParamStore(spec, seed=0)
        with pytest.raises(ValueError):
            init_spectral_states(store, seed=0)

    def test_refresh_applies_one_step_by_default(self):
        spec = NetworkSpec((3,), [dense(3, 4, normalized=True)])
        store = ParamStore(spec, seed=0)
        states = init_spectral_states(store, seed=1)
        u0 = states[0].u.copy()
        refresh(states, store, m=1.0)
        assert not np.array_equal(states[0].u, u0)
        assert states[0].v is not None

    @pytest.mark.parametrize("spec", [nn.mlp_discriminator(2, [8, 5]),
                                      nn.conv_discriminator(3, [4, 6], 16)],
                             ids=["dense", "conv"])
    def test_refresh_steps_each_weight_as_its_output_rows(self, spec):
        # row o of the matrix the power step sees is output channel o's
        # weights in row-major (c_in, kh, kw) order, a dense weight's row o
        # as it is; the effective weight keeps the stored weight's shape
        store = ParamStore(spec, seed=3)
        states = init_spectral_states(store, seed=4)
        before = dict(states)
        effective = refresh(states, store, m=0.8)
        assert sorted(effective) == sorted(states) == [i for i, layer in enumerate(spec.layers)
                                                       if layer.normalized]
        for i, state in states.items():
            W = store.params[i]["W"]
            rows = np.stack([W[o].ravel() for o in range(W.shape[0])])
            want = specnorm.power_iteration_step(rows, before[i])
            assert (state.u.tobytes(), state.sigma_hat, state.v.tobytes()) == (
                want.u.tobytes(), want.sigma_hat, want.v.tobytes())
            assert effective[i].shape == W.shape
            assert effective[i].tobytes() == ((0.8 / want.sigma_hat) * W).tobytes()
