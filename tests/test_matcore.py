import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

import declqr.matcore as matcore
from declqr import (
    InputError,
    NonconvergentError,
    ResonantSpectrumError,
    UnstabilizableError,
    bass_stabilizing_gain,
    is_hurwitz,
    solve_care,
    solve_lyapunov,
)
from helpers import random_spd, random_stabilizable_dense, solved_random_instance

SQRT2 = np.sqrt(2.0)


class TestIsHurwitz:
    def test_scalar_negative(self):
        assert is_hurwitz([[-1.0]])

    def test_pure_rotation_is_not(self):
        # Purely imaginary spectrum: the Lyapunov operator is singular.
        assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])

    def test_stable_closed_loop(self):
        assert is_hurwitz([[-2.0, 2.0], [-3.0, -8.0]])

    def test_mixed_spectrum_is_not(self):
        assert not is_hurwitz(np.diag([1.0, -2.0]))

    def test_slow_modes_on_either_side_of_the_axis(self):
        # Margins far above the ||A||_1 * 1e-14 resolution are decided by sign.
        for d in (1e-9, 1e-12):
            assert is_hurwitz(np.diag([-d, -1.0]))
            assert is_hurwitz([[-d, 1.0], [-1.0, -d]])
            assert not is_hurwitz(np.diag([d, -1.0]))
            assert not is_hurwitz([[d, 1.0], [-1.0, d]])

    def test_imaginary_axis_spectra(self):
        # Skew-symmetric matrices and undamped oscillators have their whole
        # spectrum on the imaginary axis, where the sign iteration is chaotic.
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            S = rng.standard_normal((n, n))
            K = rng.standard_normal((n, n))
            Z = np.zeros((n, n))
            oscillator = np.block([[Z, np.eye(n)], [-K @ K.T - np.eye(n), Z]])
            for M in (S - S.T, S.T - S, oscillator):
                assert not is_hurwitz(M)
                with pytest.raises(ResonantSpectrumError):
                    solve_lyapunov(M, np.eye(len(M)))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            is_hurwitz(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            is_hurwitz([[np.nan]])


class TestSolveLyapunov:
    def test_scalar(self):
        X = solve_lyapunov([[-1.0]], [[2.0]])
        assert np.allclose(X, [[1.0]], atol=1e-14)

    def test_decoupled_diagonal(self):
        X = solve_lyapunov(np.diag([-1.0, -3.0]), np.diag([2.0, 6.0]))
        assert np.allclose(X, np.eye(2), atol=1e-14)

    def test_resonant_spectrum_raises(self):
        with pytest.raises(ResonantSpectrumError):
            solve_lyapunov([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))

    def test_weight_scale_is_free(self):
        for q in (1e-8, 1e8):
            X = solve_lyapunov(-np.eye(2), q * np.eye(2))
            assert np.allclose(X, q / 2.0 * np.eye(2), rtol=1e-14, atol=0.0)

    def test_slow_stable_mode(self):
        X = solve_lyapunov(np.diag([-1e-9, -1.0]), np.eye(2))
        assert np.allclose(X, np.diag([5e8, 0.5]), rtol=1e-12, atol=0.0)

    def test_residual_and_exact_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            A = rng.uniform(-2, 2, (n, n)) - 3.0 * np.eye(n)
            M = rng.uniform(-1, 1, (n, n))
            Q = M.T @ M + np.eye(n)
            if np.linalg.eigvals(A).real.max() >= 0:
                with pytest.raises(InputError):
                    solve_lyapunov(A, Q)
                continue
            X = solve_lyapunov(A, Q)
            assert np.array_equal(X, X.T)
            res = np.linalg.norm(A.T @ X + X @ A + Q)
            assert res <= 1e-10 * max(1.0, np.linalg.norm(Q))

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(4)
        from scipy.linalg import solve_continuous_lyapunov

        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-2, 2, (n, n)) - 3.0 * np.eye(n)
            M = rng.uniform(-1, 1, (n, n))
            Q = M.T @ M
            if np.linalg.eigvals(A).real.max() >= 0:
                with pytest.raises(InputError):
                    solve_lyapunov(A, Q)
                continue
            X = solve_lyapunov(A, Q)
            X_ref = solve_continuous_lyapunov(A.T, -Q)
            assert np.allclose(X, X_ref, atol=1e-9 * max(1.0, np.linalg.norm(X_ref)))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(InputError):
            solve_lyapunov(np.diag([-1.0, -2.0]), [[0.0, 1.0], [0.0, 0.0]])


class TestBassGain:
    def test_already_stable_gives_zero_gain(self):
        K0 = bass_stabilizing_gain([[-1.0]], [[1.0]])
        assert np.array_equal(K0, [[0.0]])

    def test_scalar_unstable(self):
        # beta = 2, so 3Z + 3Z = 2 gives Z = 1/3 and K0 = 3.
        K0 = bass_stabilizing_gain([[1.0]], [[1.0]])
        assert np.allclose(K0, [[3.0]], atol=1e-12)
        assert is_hurwitz([[1.0 - 3.0]])

    def test_uncontrollable_unstable_pair(self):
        with pytest.raises(UnstabilizableError):
            bass_stabilizing_gain(np.eye(2), [[1.0], [0.0]])

    def test_large_input_matrix(self):
        # beta = 2, so 6Z = 2e8 gives Z = 1e8 / 3 and K0 = 3e-4.
        K0 = bass_stabilizing_gain([[1.0]], [[1e4]])
        assert np.allclose(K0, [[3e-4]], rtol=1e-12, atol=0.0)

    def test_shift_beyond_resolution_is_unstabilizable(self):
        # -(A + beta I)' = diag(-1, -(1e15 + 2)): the eigenvalue -1 lies within
        # ||.||_1 * 1e-14 = 10 of the axis, so the Gramian solve fails.
        with pytest.raises(UnstabilizableError):
            bass_stabilizing_gain(np.diag([-1e15, 1.0]), [[0.0], [1.0]])

    def test_stabilizes_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A, B, _, _ = random_stabilizable_dense(rng, max_n=6)
            K0 = bass_stabilizing_gain(A, B)
            assert is_hurwitz(A - B @ K0)


class TestSolveCare:
    def test_scalar_golden_ratio_like_root(self):
        res = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(res.P[0, 0] - (1.0 + SQRT2)) < 1e-12
        assert abs(res.K[0, 0] - (1.0 + SQRT2)) < 1e-12

    def test_worked_two_by_two(self):
        res = solve_care(
            [[1.0, 2.0], [-3.0, 4.0]], np.eye(2), np.diag([3.0, 8.0]), np.diag([1.0, 1.0 / 6.0])
        )
        assert np.allclose(res.P, np.diag([3.0, 2.0]), atol=1e-10)
        assert np.allclose(res.K, np.diag([3.0, 12.0]), atol=1e-10)
        assert res.residual <= 1e-10

    def test_decoupled_three_state(self):
        res = solve_care(-np.eye(3), np.eye(3), np.eye(3), np.eye(3))
        assert np.allclose(res.P, (SQRT2 - 1.0) * np.eye(3), atol=1e-12)

    def test_random_instances_meet_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            A, B, Q, R, res = solved_random_instance(rng)
            assert res.residual <= 1e-8 * max(1.0, np.linalg.norm(Q))
            np.linalg.cholesky((res.P + res.P.T) / 2)
            assert is_hurwitz(A - B @ res.K)
            P_ref = solve_continuous_are(A, B, Q, R)
            assert np.linalg.norm(res.P - P_ref) <= 1e-8 * max(1.0, np.linalg.norm(P_ref))

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_dense_sizes_meet_contract(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n // 2))
        Q = random_spd(rng, n, scale=0.2)
        R = random_spd(rng, n // 2, scale=0.2)
        res = solve_care(A, B, Q, R)
        P_ref = solve_continuous_are(A, B, Q, R)
        assert np.linalg.norm(res.P - P_ref) <= 1e-8 * np.linalg.norm(P_ref)
        assert res.residual <= 1e-8 * max(1.0, np.linalg.norm(Q))
        np.linalg.cholesky(res.P)
        assert is_hurwitz(A - B @ res.K)

    def test_cost_scaling_leaves_gain_fixed(self):
        rng = np.random.default_rng(17)
        for lam in (0.1, 7.0):
            done = 0
            while done < 10:
                try:
                    A, B, Q, R, base = solved_random_instance(rng, max_n=5)
                    scaled = solve_care(A, B, lam * Q, lam * R)
                except UnstabilizableError:
                    continue
                assert np.linalg.norm(scaled.K - base.K) <= 1e-8 * max(
                    1.0, np.linalg.norm(base.K)
                )
                assert np.linalg.norm(scaled.P - lam * base.P) <= 1e-8 * max(
                    1.0, lam * np.linalg.norm(base.P)
                )
                done += 1

    def test_extreme_cost_scaling_leaves_gain_fixed(self):
        res = solve_care([[0.0]], [[1.0]], [[1e8]], [[1e8]])
        assert np.allclose([res.P[0, 0], res.K[0, 0]], [1e8, 1.0], rtol=1e-12, atol=0.0)
        rng = np.random.default_rng(18)
        for _ in range(10):
            A, B, Q, R, base = solved_random_instance(rng, max_n=5)
            for lam in (1e-8, 1e8):
                scaled = solve_care(A, B, lam * Q, lam * R)
                assert np.linalg.norm(scaled.K - base.K) <= 1e-8 * max(1.0, np.linalg.norm(base.K))
                assert np.linalg.norm(scaled.P - lam * base.P) <= 1e-8 * lam * np.linalg.norm(base.P)

    def test_slow_stable_uncontrolled_mode(self):
        # The first state is uncontrolled at -1e-9: P11 = 1 / (2e-9).
        res = solve_care(np.diag([-1e-9, -1.0]), [[0.0], [1.0]], np.eye(2), [[1.0]])
        assert np.allclose(np.diag(res.P), [5e8, SQRT2 - 1.0], rtol=1e-10, atol=0.0)
        assert is_hurwitz(np.diag([-1e-9, -1.0]) - np.array([[0.0], [1.0]]) @ res.K)

    def test_scalar_gain_monotone_in_state_weight(self):
        a, b, r = 0.7, 1.3, 2.0
        gains = [
            solve_care([[a]], [[b]], [[q]], [[r]]).K[0, 0]
            for q in np.linspace(0.1, 10.0, 100)
        ]
        assert all(k2 >= k1 - 1e-12 for k1, k2 in zip(gains, gains[1:]))

    def test_unstabilizable_pairs_raise(self):
        rotation = np.zeros((3, 3))
        rotation[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        rotation[2, 2] = -1.0
        pairs = [
            (np.eye(2), [[1.0], [0.0]]),
            # The rotation is an uncontrollable mode on the imaginary axis.
            (rotation, [[0.0], [0.0], [1.0]]),
            ([[1.0]], [[0.0]]),
            ([[0.0]], [[0.0]]),
        ]
        for A, B in pairs:
            n, m = np.shape(B)
            with pytest.raises(UnstabilizableError):
                solve_care(A, B, np.eye(n), np.eye(m))
        # A stable uncontrolled mode is fine: -2P + 1 = 0.
        res = solve_care([[-1.0]], [[0.0]], [[1.0]], [[1.0]])
        assert abs(res.P[0, 0] - 0.5) < 1e-12

    def test_indefinite_r_rejected(self):
        with pytest.raises(InputError):
            solve_care([[1.0]], [[1.0]], [[1.0]], [[-1.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            solve_care(np.eye(2), np.eye(2), np.eye(3), np.eye(2))

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(matcore, "CARE_MAX_ITER", 1)
        with pytest.raises(NonconvergentError) as excinfo:
            matcore.solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert excinfo.value.residual is not None
