import numpy as np
import pytest

from abcas.linalg import (
    PowerIterState,
    init_power_iter_state,
    power_iterate,
    power_iteration_step,
    reshape_conv_weight,
    spectral_norm_exact,
)


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
    def test_shape_2111(self):
        K = np.arange(2.0).reshape(2, 1, 1, 1)
        M = reshape_conv_weight(K)
        assert M.shape == (2, 1)
        assert np.array_equal(M.ravel(), K.ravel())

    def test_shape_4344(self):
        K = np.arange(4 * 3 * 4 * 4, dtype=np.float32).reshape(4, 3, 4, 4)
        assert reshape_conv_weight(K).shape == (4, 48)

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        back = reshape_conv_weight(K).reshape(K.shape)
        assert np.array_equal(back, K)

    def test_preserves_element_multiset(self):
        rng = np.random.default_rng(2)
        K = rng.standard_normal((5, 2, 3, 3))
        M = reshape_conv_weight(K)
        assert np.array_equal(np.sort(M.ravel()), np.sort(K.ravel()))

    def test_matrix_passes_through(self):
        W = np.arange(6.0).reshape(2, 3)
        assert reshape_conv_weight(W) is W

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            reshape_conv_weight(np.zeros((2, 3, 4)))
