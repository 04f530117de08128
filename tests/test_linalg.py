import math
from types import SimpleNamespace

import numpy as np
import pytest

from abcas.linalg import (
    PowerIterState,
    init_power_iter_state,
    power_iterate,
    power_iteration_step,
    spectral_norm_exact,
)
from abcas.specnorm import backward_through_norm, refresh


class TestPowerIteration:
    def test_identity_gives_sigma_one(self):
        st = init_power_iter_state(3, seed=0)
        st = power_iteration_step(np.eye(3), st)
        assert abs(st.sigma_hat - 1.0) < 1e-12

    def test_converged_diagonal(self):
        # u aligned with the dominant axis of diag(3, 1) is a fixed point
        st = PowerIterState(u=np.array([1.0, 0.0]))
        st = power_iteration_step(np.diag([3.0, 1.0]), st)
        assert st.sigma_hat == 3.0
        assert np.allclose(st.u, [1.0, 0.0])

    def test_random_matrix_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((5, 7))
        st = power_iterate(W, init_power_iter_state(5, seed=1), steps=100)
        exact = spectral_norm_exact(W)
        assert abs(st.sigma_hat - exact) / exact < 1e-4

    def test_zero_matrix_degenerate(self):
        st = init_power_iter_state(4, seed=2)
        u_before = st.u.copy()
        st2 = power_iteration_step(np.zeros((4, 6)), st)
        assert st2.sigma_hat == 0.0
        assert np.array_equal(st2.u, u_before)

    def test_dimension_mismatch_raises(self):
        st = init_power_iter_state(3, seed=0)
        with pytest.raises(ValueError):
            power_iteration_step(np.zeros((4, 2)), st)
        with pytest.raises(ValueError):
            power_iteration_step(np.zeros(4), st)

    def test_refuses_a_4d_kernel(self):
        # a conv kernel enters as its (c_out, c_in * k * k) matrix; the
        # kernel itself is refused even when its row count matches u
        st = init_power_iter_state(3, seed=0)
        with pytest.raises(ValueError, match="^expected a matrix, got ndim=4$"):
            power_iteration_step(np.ones((3, 2, 4, 4)), st)

    def test_u_stays_unit_norm(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((6, 4))
        st = init_power_iter_state(6, seed=3)
        for _ in range(20):
            st = power_iteration_step(W, st)
            assert abs(np.linalg.norm(st.u) - 1.0) < 1e-6

    def test_persistent_u_accuracy_over_seeded_matrices(self):
        # spectral gap >= 5% (rejection sampled), <= 100 steps, rel err < 1e-4
        rng = np.random.default_rng(11)
        done = 0
        while done < 30:
            r = int(rng.integers(3, 33))
            c = int(rng.integers(3, 33))
            W = rng.standard_normal((r, c))
            sv = np.linalg.svd(W, compute_uv=False)
            if len(sv) < 2 or (sv[0] - sv[1]) / sv[0] < 0.05:
                continue
            done += 1
            st = power_iterate(W, init_power_iter_state(r, seed=[11, done]), steps=100)
            exact = spectral_norm_exact(W)
            assert abs(st.sigma_hat - exact) / exact < 1e-4

    def test_estimate_is_lower_bound(self):
        # Rayleigh-quotient estimate never exceeds the true norm materially
        rng = np.random.default_rng(5)
        for k in range(20):
            W = rng.standard_normal((8, 8))
            st = power_iterate(W, init_power_iter_state(8, seed=[5, k]), steps=60)
            exact = spectral_norm_exact(W)
            assert st.sigma_hat <= exact * (1.0 + 1e-6)


class TestSpectralNormExact:
    def test_diag(self):
        assert abs(spectral_norm_exact(np.diag([2.0, 0.5])) - 2.0) < 1e-12

    def test_nilpotent_shift(self):
        assert abs(spectral_norm_exact(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) < 1e-12

    def test_cross_check_with_power_iteration(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((8, 3))
        st = power_iterate(W, init_power_iter_state(8, seed=9), steps=200)
        exact = spectral_norm_exact(W)
        assert abs(st.sigma_hat - exact) / exact < 1e-6

    def test_matches_lapack_svd(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            W = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(2, 40))))
            ours = spectral_norm_exact(W)
            ref = np.linalg.svd(W, compute_uv=False)[0]
            assert abs(ours - ref) / ref < 1e-10

    def test_size_cap(self):
        with pytest.raises(ValueError):
            spectral_norm_exact(np.zeros((65, 70)))
        # a long-thin matrix with a small Gram side is fine
        spectral_norm_exact(np.zeros((8, 500)))

    def test_zero_matrix(self):
        assert spectral_norm_exact(np.zeros((3, 3))) == 0.0



class TestReshapeConvWeight:
    # A conv kernel (c_out, c_in, kh, kw) reaches the power step as its
    # (c_out, c_in * kh * kw) row matrix: specnorm.refresh and
    # specnorm.backward_through_norm flatten it, and the effective weight
    # keeps the kernel's shape. A store here needs only params[i]["W"].
    @staticmethod
    def _refresh(K, m=1.0, seed=0):
        store = SimpleNamespace(params={0: {"W": K}})
        states = {0: init_power_iter_state(K.shape[0], seed=seed)}
        before = states[0]
        effective = refresh(states, store, m)
        return before, states[0], effective[0]

    def test_shape_2111(self):
        # a (2, 1, 1, 1) kernel is a 2x1 column: one step gives its norm
        K = np.arange(1.0, 3.0).reshape(2, 1, 1, 1)
        _, st, _ = self._refresh(K)
        assert st.u.shape == (2,) and st.v.shape == (1,)
        assert st.sigma_hat == math.sqrt(5.0)

    def test_shape_4344(self):
        K = np.arange(4 * 3 * 4 * 4, dtype=np.float32).reshape(4, 3, 4, 4)
        _, st, eff = self._refresh(K)
        assert st.u.shape == (4,) and st.v.shape == (48,)
        assert eff.shape == K.shape
        G = np.ones_like(K)
        assert backward_through_norm(st, K, 1.0, G).shape == (4, 3, 4, 4)

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        kept = K.copy()
        _, st, eff = self._refresh(K, m=0.8)
        assert K.tobytes() == kept.tobytes()
        assert eff.shape == K.shape
        assert eff.tobytes() == ((0.8 / st.sigma_hat) * K).tobytes()

    def test_preserves_element_multiset(self):
        # row o is output channel o's weights in row-major (c_in, kh, kw) order
        rng = np.random.default_rng(2)
        K = rng.standard_normal((5, 2, 3, 3))
        rows = np.stack([K[o].ravel() for o in range(5)])
        assert np.array_equal(np.sort(rows.ravel()), np.sort(K.ravel()))
        before, st, _ = self._refresh(K, seed=3)
        want = power_iteration_step(rows, before)
        assert (st.u.tobytes(), st.sigma_hat, st.v.tobytes()) == (
            want.u.tobytes(), want.sigma_hat, want.v.tobytes())
