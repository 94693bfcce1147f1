import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

import declqr.matcore as matcore
from declqr import (
    InputError,
    NonconvergentError,
    ResonantSpectrumError,
    SolverError,
    UnstabilizableError,
    bass_stabilizing_gain,
    is_hurwitz,
    solve_care,
    solve_care_stack,
    solve_lyapunov,
)
from declqr.matcore import as_matrix, as_real
from declqr.sweep import PROBLEM_BUILDERS
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
        # An eigenvalue within rounding of zero: no overflow warning escapes.
        with pytest.raises(ResonantSpectrumError):
            solve_lyapunov(np.diag([1e-300, -1.0]), np.eye(2))

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

    @pytest.mark.parametrize("s", [1e-250, 1e-200, 1e-160, 1e160, 1e200, 1e250])
    def test_far_from_unit_scale(self, s):
        # The carried block Z^-1 Q Z^-T of the first, scaled sign step is of
        # the order 1/s^2: formed unscaled, it underflowed (half the solution
        # at s = 1e200) or overflowed (a spurious ResonantSpectrumError).
        X = solve_lyapunov(-s * np.eye(4), np.eye(4))
        assert np.allclose(X, np.eye(4) / (2.0 * s), rtol=1e-15, atol=0.0)

    def test_carried_block_is_bitwise_the_unscaled_product_in_range(self):
        # Scaling Z^-1 by a power of two, and c by its square, rounds nothing
        # where no product leaves the float range.
        rng = np.random.default_rng(8)
        F, Zi = rng.normal(size=(2, 5, 4, 4))
        c3 = np.exp(rng.uniform(-18.0, 18.0, (5, 1, 1)))
        expected = matcore._newton_mean(F, Zi @ F @ matcore._t(Zi), c3)
        assert np.array_equal(matcore._carried_mean(F, Zi, c3), expected)


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


def _counting(monkeypatch, name):
    """Replace matcore.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(matcore, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(matcore, name, counting)
    return calls


def _refuse_all(stack):
    """A test's refusal of every item of a stack."""
    return np.zeros(len(stack), dtype=bool)


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

    @pytest.mark.parametrize(
        "Q",
        [[["1", "x"], ["x", "1"]], [[1.0, 0.0], [0.0]], (1.0 + 0.5j) * np.eye(2)],
        ids=["non-numeric", "ragged", "complex"],
    )
    def test_non_real_weight_rejected(self, Q):
        with pytest.raises(InputError):
            solve_care(np.eye(2), np.eye(2), Q, np.eye(2))

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(matcore, "CARE_MAX_ITER", 1)
        with pytest.raises(NonconvergentError) as excinfo:
            matcore.solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert excinfo.value.residual is not None

    def test_floor_limited_large_input_matrix_is_unstabilizable(self):
        # The seventh draw of this sampler with B scaled by 1e6 stalls at a
        # residual of about 1.4e-7 against the 1e-8 tolerance. The rounding
        # inside PB sets that floor (scipy's solver does no better), so the
        # pair is ill-conditioned for 64-bit arithmetic, not nonconvergent.
        rng = np.random.default_rng(31)
        for _ in range(7):
            A, B, Q, R = random_stabilizable_dense(rng)
        with pytest.raises(UnstabilizableError, match="residual floor"):
            solve_care(A, 1e6 * B, Q, R)

    def test_large_input_matrix_takes_kleinman_steps_to_tolerance(self, monkeypatch):
        # With B scaled by 1e6, the 31st draw is still above tolerance after
        # the unconditional Kleinman step (one Lyapunov solve); the further
        # steps it takes while its residual falls reach it.
        rng = np.random.default_rng(31)
        for _ in range(31):
            A, B, Q, R = random_stabilizable_dense(rng)
        calls = _counting(monkeypatch, "solve_lyapunov")
        res = solve_care(A, 1e6 * B, Q, R)
        assert len(calls) > 2
        assert res.residual <= 1e-8 * max(1.0, np.linalg.norm(Q))
        assert is_hurwitz(A - 1e6 * B @ res.K)

    @pytest.mark.parametrize(
        "B, R", [(np.diag([1e200, 1.0]), np.eye(2)), (np.eye(2), np.diag([1e-320, 1.0]))],
        ids=["b-huge", "r-subnormal"],
    )
    def test_overflowing_hamiltonian_data_is_named(self, B, R):
        # G = B R^-1 B' overflows: the item fails by name, without a
        # RuntimeWarning, and the other items of its stack solve.
        A, I = np.array([[1.0, 1.0], [-1.0, 1.0]]), np.eye(2)
        with pytest.raises(UnstabilizableError, match=r"G = B R\^-1 B' is not finite"):
            solve_care(A, B, I, R)
        out = solve_care_stack(*(np.array(pair) for pair in ((A, A), (B, I), (I, I), (R, I))))
        assert isinstance(out.errors[0], UnstabilizableError) and out.errors[1] is None
        assert np.array_equal(out.P[1], solve_care(A, I, I, I).P)

    def test_overflowing_quadratic_term_is_named(self):
        # P = 2e200 I is finite, but P B R^-1 B' P is about 4e400: the item
        # fails by name, not as a solver failure of its Kleinman step.
        with pytest.raises(UnstabilizableError, match=r"P B R\^-1 B' P is not finite"):
            solve_care(1e200 * np.eye(4), np.eye(4), np.eye(4), np.eye(4))

    @pytest.mark.parametrize("n, q", [(4, 1e308), (2, 1.3e308)])
    def test_quadratic_term_with_an_infinite_norm_solves(self, n, q):
        # P = sqrt(q) I, so P B R^-1 B' P = q I has finite entries while its
        # Frobenius norm is inf: only non-finite entries name the term.
        res = solve_care(np.zeros((n, n)), np.eye(n), q * np.eye(n), np.eye(n))
        assert np.allclose(res.P, np.sqrt(q) * np.eye(n), rtol=1e-15, atol=0.0)

    def test_huge_stable_plant_takes_one_kleinman_step(self, monkeypatch):
        lyapunov = _counting(monkeypatch, "solve_lyapunov")
        res = solve_care(-1e200 * np.eye(4), np.eye(4), np.eye(4), np.eye(4))
        assert len(lyapunov) == 1
        assert np.allclose(res.K, 5e-201 * np.eye(4), rtol=1e-15, atol=0.0)

    def test_weight_near_float_max_solves_without_warning(self):
        # (Q + Q')/2 and the closed-loop certificate overflow on the way; the
        # certificate falls back to is_hurwitz.
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = solve_care(A, np.eye(2), 1e308 * np.eye(2), np.eye(2))
        assert np.isfinite(res.residual) and res.residual <= 1e-8 * 1e308
        assert matcore.is_positive_definite(res.P) and is_hurwitz(A - res.K)
        assert matcore.is_positive_definite(1e308 * np.eye(2))

    def test_residual_over_tolerance_is_nonconvergent(self, monkeypatch):
        # With no floor and a tolerance below any attainable residual, a
        # well-posed solve ends in the residual branch of the taxonomy.
        monkeypatch.setattr(matcore, "RESIDUAL_FLOOR_FACTOR", 0)
        monkeypatch.setattr(matcore, "CARE_RESIDUAL_TOL", 1e-300)
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(5, 5)), rng.normal(size=(5, 2))
        with pytest.raises(NonconvergentError, match="exceeds tolerance") as excinfo:
            solve_care(A, B, np.eye(5), np.eye(2))
        assert np.isfinite(excinfo.value.residual)

    def test_refused_certificate_is_a_named_solver_error(self, monkeypatch):
        # The certificate refuses the read-off and the Kleinman path's end.
        monkeypatch.setattr(matcore, "_closed_loop_hurwitz", lambda A, *rest: _refuse_all(A))
        with pytest.raises(SolverError) as excinfo:
            solve_care([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.eye(2), np.eye(2))
        assert type(excinfo.value) is SolverError
        assert str(excinfo.value) == "closed loop failed the Hurwitz certificate"

    def test_indefinite_solution_is_a_named_solver_error(self, monkeypatch):
        # Once the weights have passed validation, every definiteness test
        # refuses: the read-off and the Kleinman path's P alike.
        validate = matcore._validate_stack

        def validated(*args):
            out = validate(*args)
            monkeypatch.setattr(matcore, "is_positive_definite", _refuse_all)
            return out

        monkeypatch.setattr(matcore, "_validate_stack", validated)
        with pytest.raises(SolverError) as excinfo:
            solve_care([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.eye(2), np.eye(2))
        assert type(excinfo.value) is SolverError
        assert str(excinfo.value) == "Riccati solution failed the positive-definiteness check"


def test_unscaled_newton_step_is_bitwise_the_step_at_c_one():
    # _sign skips the products and quotients by c in a step where no running
    # item is scaled; with c = 1 they are exact.
    X, Y = np.random.default_rng(3).normal(size=(2, 4, 3, 3))
    unscaled = matcore._newton_mean(X, Y, None)
    assert np.array_equal(unscaled, matcore._newton_mean(X, Y, np.ones((4, 1, 1))))


class TestSignCallsPerSolve:
    # A healthy solve runs the sign kernel once, on the Hamiltonian: its
    # read-off passes the final tests and takes no Kleinman step. The closed
    # loop is certified by a Lyapunov inequality, without is_hurwitz.
    def test_healthy_solve(self, monkeypatch):
        signs, hurwitz = _counting(monkeypatch, "_sign"), _counting(monkeypatch, "is_hurwitz")
        res = solve_care([[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(res.K, (1.0 + SQRT2) * np.eye(2), atol=1e-12)
        assert (len(signs), len(hurwitz)) == (1, 0)

    def test_sweep_stack(self, monkeypatch):
        q_ratio, g_ratio = (
            g.ravel() for g in np.meshgrid(np.geomspace(0.2, 5.0, 9), np.geomspace(0.2, 5.0, 7))
        )
        stacks = PROBLEM_BUILDERS["qr"](q_ratio, g_ratio)
        signs, hurwitz = _counting(monkeypatch, "_sign"), _counting(monkeypatch, "is_hurwitz")
        sol = solve_care_stack(*stacks)
        assert len(sol.errors) == 63 and not any(sol.errors)
        assert (len(signs), len(hurwitz)) == (1, 0)

    @pytest.mark.parametrize("N", [1, 63])
    def test_each_norm_once(self, monkeypatch, N):
        # A, B, Q, P, K, the quadratic term, A'P and the defect: the residual
        # tolerance, the floor scale and the certificate share these 8 norms.
        q_ratio, g_ratio = np.geomspace(0.2, 5.0, N), np.geomspace(5.0, 0.2, N)
        stacks = PROBLEM_BUILDERS["qr"](q_ratio, g_ratio)
        fro = _counting(monkeypatch, "_fro")
        sol = matcore._solve_care_validated(*stacks, [None] * N)
        assert not any(sol.errors) and len(fro) == 8


def _large_input_draw():
    """The 31st draw of random_stabilizable_dense (seed 31), B scaled by 1e6:
    its read-off is far above tolerance, and it reaches tolerance only by
    Kleinman steps beyond the first."""
    rng = np.random.default_rng(31)
    for _ in range(31):
        A, B, Q, R = random_stabilizable_dense(rng)
    return A, 1e6 * B, Q, R


class TestReadOffAcceptance:
    def test_mixed_stack_matches_one_by_one(self, monkeypatch):
        A, B, Q, R = _large_input_draw()
        n, m = B.shape
        healthy = _same_size_instances(np.random.default_rng(17), 4, n, m)
        # The unstable modes 2..n get no input.
        B_first = np.zeros((n, m))
        B_first[0, 0] = 1.0
        unstabilizable = np.eye(n), B_first, np.eye(n), np.eye(m)
        items = [tuple(X[i] for X in healthy) for i in range(2)] + [(A, B, Q, R), unstabilizable]
        items += [tuple(X[i] for X in healthy) for i in range(2, 4)]
        expected = [None, None, None, UnstabilizableError, None, None]
        lyapunov = _counting(monkeypatch, "solve_lyapunov")
        out = solve_care_stack(*(np.array(X) for X in zip(*items)))
        assert len(lyapunov) > 2  # the large-input item still steps inside the stack
        for i, (item, kind) in enumerate(zip(items, expected)):
            del lyapunov[:]
            alone = solve_care_stack(*(np.array(X)[None] for X in item))
            assert type(out.errors[i]) is type(alone.errors[0])
            assert out.errors[i] is None if kind is None else type(out.errors[i]) is kind
            if kind is None and i != 2:
                assert not lyapunov  # a healthy item is accepted at the read-off
            for got, want in ((out.P, alone.P), (out.K, alone.K), (out.residual, alone.residual)):
                assert np.array_equal(got[i], want[0], equal_nan=True)
            assert out.iterations[i] == alone.iterations[0]

    def test_refused_certificate_takes_the_kleinman_path(self, monkeypatch):
        # A read-off within tolerance and the floor that the closed-loop
        # certificate refuses takes the Kleinman step and ends where that path
        # ends: a zero floor factor sends the same read-off down the same path.
        item = [[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.eye(2), np.eye(2)
        accepted = solve_care(*item)
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "RESIDUAL_FLOOR_FACTOR", 0.0)
            stepped = solve_care(*item)
        certify, refused = matcore._closed_loop_hurwitz, []

        def refuse_once(*args):
            if not refused:
                refused.append(1)
                return np.zeros(len(args[0]), dtype=bool)
            return certify(*args)

        monkeypatch.setattr(matcore, "_closed_loop_hurwitz", refuse_once)
        lyapunov = _counting(monkeypatch, "solve_lyapunov")
        res = solve_care(*item)
        assert refused and len(lyapunov) == 1
        assert np.array_equal(res.P, stepped.P) and np.array_equal(res.K, stepped.K)
        assert res.residual == stepped.residual
        assert not np.array_equal(res.P, accepted.P)


class TestClosedLoopCertificate:
    @staticmethod
    def certify(monkeypatch, A_cl):
        """(verdict, is_hurwitz calls) of the certificate on the closed loop
        A_cl, for B = Q = R = P = I, so that K = I and A = A_cl + I."""
        n = len(A_cl)
        A, B, Q, R, P = np.asarray(A_cl)[None] + np.eye(n), *[np.eye(n)[None]] * 4
        K, quad, defect = matcore._care_defect(A, B, Q, R, P)
        norms = matcore._fro_norms(A, B, Q, P, K, quad, matcore._fro(defect))
        hurwitz = _counting(monkeypatch, "is_hurwitz")
        verdict = matcore._closed_loop_hurwitz(A, B, Q, P, K, quad, defect, norms)
        return bool(verdict[0]), len(hurwitz)

    def test_imaginary_axis_pair_goes_to_is_hurwitz(self, monkeypatch):
        assert self.certify(monkeypatch, [[0.0, 1.0], [-1.0, 0.0]]) == (False, 1)

    def test_mode_inside_the_shift_goes_to_is_hurwitz(self, monkeypatch):
        # Real part -s with s half the shift t = ||A_cl||_1 / RESONANCE_COND_LIMIT.
        s = 0.5 / matcore.RESONANCE_COND_LIMIT
        assert self.certify(monkeypatch, [[-s, 1.0], [-1.0, -s]]) == (False, 1)

    def test_closed_loop_with_margin_is_certified_alone(self, monkeypatch):
        assert self.certify(monkeypatch, [[-1.0, 1.0], [-1.0, -1.0]]) == (True, 0)


def _same_size_instances(rng, count, n, m):
    A = rng.uniform(-2.0, 2.0, (count, n, n))
    B = rng.uniform(-2.0, 2.0, (count, n, m))
    Q = np.array([random_spd(rng, n) for _ in range(count)])
    R = np.array([random_spd(rng, m) for _ in range(count)])
    return A, B, Q, R


class TestSolveCareStack:
    def test_mixed_stack_matches_one_by_one(self):
        items = [
            ([[1.0, 1.0], [-1.0, 1.0]], [[1.0], [0.5]], np.eye(2), [[1.0]]),
            # Indefinite Q.
            ([[1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], np.diag([1.0, -1.0]), [[1.0]]),
            # Unstabilizable: the unstable second mode gets no input.
            (np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]]),
            # No input on a rotation: the Hamiltonian has eigenvalues +-i.
            ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [0.0]], np.eye(2), [[1.0]]),
            ([[-1.0, 2.0], [0.0, 0.5]], [[0.0], [1.0]], np.diag([2.0, 1.0]), [[3.0]]),
            # G = B R^-1 B' overflows.
            ([[1.0, 1.0], [-1.0, 1.0]], [[1e200], [0.0]], np.eye(2), [[1e-200]]),
        ]
        expected = [
            None, InputError, UnstabilizableError, UnstabilizableError, None, UnstabilizableError
        ]
        out = solve_care_stack(*(np.array(X, dtype=float) for X in zip(*items)))
        for i, (item, kind) in enumerate(zip(items, expected)):
            if kind is None:
                alone, got = solve_care(*item), out.item(i)
                assert np.array_equal(got.P, alone.P) and np.array_equal(got.K, alone.K)
                assert (got.residual, got.iterations) == (alone.residual, alone.iterations)
                continue
            assert type(out.errors[i]) is kind
            with pytest.raises(kind) as excinfo:
                solve_care(*item)
            assert type(excinfo.value) is kind
            assert str(out.errors[i]) == str(excinfo.value)
            assert np.isnan(out.P[i]).all() and np.isnan(out.h2[i])
            with pytest.raises(kind):
                out.item(i)

    def test_item_is_bitwise_the_same_alone_and_in_a_stack(self):
        stacks = _same_size_instances(np.random.default_rng(8), 24, 3, 2)
        out = solve_care_stack(*stacks)
        assert sum(e is None for e in out.errors) >= 20
        for i in range(24):
            alone = solve_care_stack(*(X[i : i + 1] for X in stacks))
            assert type(alone.errors[0]) is type(out.errors[i])
            for got, want in ((out.P, alone.P), (out.K, alone.K), (out.h2, alone.h2)):
                assert np.array_equal(got[i], want[0], equal_nan=True)
            assert out.residual[i] == alone.residual[0] or np.isnan(alone.residual[0])

    def test_stack_shapes_must_fit(self):
        A, B, Q, R = _same_size_instances(np.random.default_rng(9), 3, 2, 1)
        with pytest.raises(InputError, match="same number of items"):
            solve_care_stack(A, B, Q, R[:2])
        with pytest.raises(InputError, match="Q must have 2 rows"):
            solve_care_stack(A, B, np.ones((3, 3, 2)), R)
        with pytest.raises(InputError, match="2-D"):
            solve_care_stack(A[0], B, Q, R)


class TestLstsqReadOff:
    """matcore._lstsq, the batched read-off of P, against per-item lstsq."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_lstsq_item_by_item(self, n):
        rng = np.random.default_rng(40 + n)
        M = rng.standard_normal((7, 2 * n, n))
        b = rng.standard_normal((7, 2 * n, n))
        M[5] = 0.0
        if n > 1:
            M[6, :, 1] = M[6, :, 0]  # rank deficient: minimum-norm answer
        X = matcore._lstsq(M, b)
        for i in range(len(M)):
            want = np.linalg.lstsq(M[i], b[i], rcond=None)[0]
            assert np.linalg.norm(X[i] - want) <= 1e-14 * np.linalg.norm(want)
            assert np.array_equal(matcore._lstsq(M[i : i + 1], b[i : i + 1])[0], X[i])
        assert not X[5].any()


class TestConverters:
    @pytest.mark.parametrize(
        "M, shape, message",
        [([1.0, 2.0], {}, "M must be 2-D, got ndim=1"),
         (np.eye(2), {"cols": 3}, "M must have 3 columns, got 2")],
        ids=["one-dimensional", "columns"],
    )
    def test_as_matrix_refuses_a_wrong_shape(self, M, shape, message):
        with pytest.raises(InputError) as info:
            as_matrix(M, "M", **shape)
        assert str(info.value) == message

    def test_as_real_refuses_an_int_beyond_the_float_range(self):
        with pytest.raises(InputError) as info:
            as_real(10**400, "x")
        assert str(info.value) == "x exceeds the float range"


class TestStackedPublicFunctions:
    """solve_lyapunov, is_hurwitz and require_spd judge a stack item by item,
    as the one-matrix calls would."""

    def test_solve_lyapunov_stack(self):
        A = np.array([
            np.diag([-1.0, -3.0]),
            [[0.0, 1.0], [-1.0, 0.0]],  # resonant
            np.diag([1.0, -2.0]),  # not Hurwitz
            [[-2.0, 2.0], [-3.0, -8.0]],
            -np.eye(2),
        ])
        Q = np.array([np.eye(2)] * 4 + [[[1.0, 1.0], [0.0, 1.0]]])  # last Q asymmetric
        X, errors = solve_lyapunov(A, Q)
        for i in range(len(A)):
            try:
                alone = solve_lyapunov(A[i], Q[i])
            except (InputError, SolverError) as exc:
                assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
                assert np.isnan(X[i]).all()
                continue
            assert errors[i] is None and np.array_equal(X[i], alone)
        assert [type(e) for e in errors[1:3]] == [ResonantSpectrumError, InputError]
        assert isinstance(errors[4], InputError)

    def test_solve_lyapunov_stacks_of_unequal_length(self):
        with pytest.raises(InputError) as info:
            solve_lyapunov(np.array([-np.eye(2)] * 2), np.array([np.eye(2)] * 3))
        assert str(info.value) == "Q must stack as many matrices as A"

    def test_is_hurwitz_stack(self):
        A = np.array([-np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], np.diag([1e-12, -1.0]), np.zeros((2, 2))])
        got = is_hurwitz(A)
        assert got.dtype == bool
        assert list(got) == [is_hurwitz(X) for X in A] == [True, False, False, False]

    def test_require_spd_stack(self):
        M = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], -np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
        out, errors = matcore.require_spd(M, "Q")
        assert errors[0] is None and np.array_equal(out[0], M[0])
        for i in range(1, 4):
            with pytest.raises(InputError) as excinfo:
                matcore.require_spd(M[i], "Q")
            assert type(errors[i]) is InputError and str(errors[i]) == str(excinfo.value)

    def test_require_spd_judges_huge_asymmetry(self):
        # Squared norms overflow above about 1.3e154; compared against an
        # infinite scale, an asymmetry of 82% of ||Q|| would pass.
        with pytest.raises(InputError, match="Q must be symmetric"):
            matcore.require_spd([[1e200, 1e200], [0.0, 1e200]], "Q")
        assert np.array_equal(matcore.require_spd(1e200 * np.eye(2), "Q"), 1e200 * np.eye(2))

    def test_symmetry_beyond_the_float_range(self):
        # ||M||_F overflows even after rescaling, and so does M - M' for the
        # first item: against an infinite scale every item passed, with an
        # overflow warning.
        big = 1e308
        M = np.array([
            [[big, big], [-big, big]],
            [[big, big], [big, big]],
            [[big, big], [big * (1.0 + 1e-9), big]],
            [[big, big], [big * (1.0 + 1e-11), big]],
            [[0.0, big], [-big, 0.0]],  # finite ||M||_F, M - M' overflows
            np.eye(2),
        ])
        verdicts = [False, True, False, True, False, True]
        assert list(matcore.is_symmetric(M)) == verdicts
        assert [matcore.is_symmetric(X) for X in M] == verdicts
        with pytest.raises(InputError, match="Q must be symmetric"):
            matcore.require_spd(M[0], "Q")


def test_frobenius_norm_survives_overflow():
    X = np.array([[[3e200, 4e200], [0.0, 0.0]], np.zeros((2, 2)), [[np.inf, 0.0], [0.0, 1.0]],
                  [[1.0, 2.0], [3.0, 4.0]], [[1.5e308, 1.5e308], [0.0, 0.0]]])
    norms = matcore._fro(X)
    assert norms[0] == pytest.approx(5e200, rel=1e-15)
    assert norms[1] == 0.0 and norms[2] == np.inf and norms[4] == np.inf
    assert norms[3] == np.sqrt(30.0)  # a finite norm is the plain one, bitwise
    assert matcore._fro(X[0]) == norms[0]


@pytest.mark.parametrize(
    "shape",
    [(2, 2), (3, 5), (5, 3), (1, 4096), (4096, 1), (64, 64), (6, 1, 7), (40, 1, 4096), (5, 2, 3),
     (3, 64, 64), (0, 3, 3), (0, 1, 4)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_frobenius_norm_is_numpy_norm_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    X = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape[:-2] + (1, 1))
    norms = matcore._fro(X)
    assert np.shape(norms) == shape[:-2]
    if len(shape) == 2:
        assert type(norms) is np.float64
    items = X.reshape((-1,) + shape[-2:])
    assert list(np.ravel(norms)) == [np.linalg.norm(item) for item in items]


def test_row_norms_of_every_length_are_numpy_norms_bitwise():
    rng = np.random.default_rng(15)
    for k in range(1, 4097):
        rows = rng.standard_normal((2, 1, k))
        norms = matcore._fro(rows)
        assert norms[0] == np.linalg.norm(rows[0]) == matcore._fro(rows[0])
        assert norms[1] == np.linalg.norm(rows[1])


@st.composite
def lqr_stacks(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    count = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return _same_size_instances(np.random.default_rng(seed), count, n, m)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lqr_stacks())
def test_stacked_solve_agrees_with_one_by_one(stacks):
    out = solve_care_stack(*stacks)
    for i, item in enumerate(zip(*stacks)):
        try:
            alone = solve_care(*item)
        except SolverError as exc:
            assert type(out.errors[i]) is type(exc)
            continue
        assert out.errors[i] is None
        for got, want in ((out.P[i], alone.P), (out.K[i], alone.K)):
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert abs(out.h2[i] - alone.h2) <= 1e-12 * alone.h2
