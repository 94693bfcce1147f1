import numpy as np
import pytest

from declqr import InputError, LqrProblem, UnstabilizableError, closed_loop, solve_lqr
from helpers import random_stabilizable_dense

SQRT2 = np.sqrt(2.0)


def worked_problem():
    return LqrProblem(
        A=[[1.0, 2.0], [-3.0, 4.0]],
        B=np.eye(2),
        Q=np.diag([3.0, 8.0]),
        R=np.diag([1.0, 1.0 / 6.0]),
    )


class TestSolveLqr:
    def test_rotation_plus_growth_plant(self):
        prob = LqrProblem(A=[[1.0, 1.0], [-1.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        sol = solve_lqr(prob)
        assert np.allclose(sol.K, (1.0 + SQRT2) * np.eye(2), atol=1e-10)
        assert abs(sol.h2_squared - 2.0 * (1.0 + SQRT2)) < 1e-10
        # Off-diagonal coupling balance of the Riccati solution.
        assert abs(-1.0 * sol.P[1, 1] + 1.0 * sol.P[0, 0]) < 1e-10

    def test_decoupled_plant(self):
        prob = LqrProblem(A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        sol = solve_lqr(prob)
        assert np.allclose(sol.K, (SQRT2 - 1.0) * np.eye(2), atol=1e-12)

    def test_worked_problem_cost(self):
        sol = solve_lqr(worked_problem())
        assert abs(sol.h2_squared - 5.0) < 1e-8
        assert abs(sol.h2 - np.sqrt(5.0)) < 1e-8

    def test_h2_matches_trace(self):
        sol = solve_lqr(worked_problem())
        assert sol.h2_squared == pytest.approx(np.trace(sol.P), rel=1e-12)


class TestClosedLoop:
    def test_worked_problem(self):
        prob = worked_problem()
        sol = solve_lqr(prob)
        assert np.allclose(closed_loop(prob, sol), [[-2.0, 2.0], [-3.0, -8.0]], atol=1e-8)

    def test_scalar(self):
        prob = LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
        sol = solve_lqr(prob)
        assert np.allclose(closed_loop(prob, sol), [[-SQRT2]], atol=1e-12)

    def test_decoupled(self):
        prob = LqrProblem(A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        sol = solve_lqr(prob)
        assert np.allclose(closed_loop(prob, sol), -SQRT2 * np.eye(2), atol=1e-12)


class TestInvariants:
    def test_riccati_to_lyapunov_identity(self):
        # (A-BK)'P + P(A-BK) + Q + K'RK = 0: the closed-loop cost identity.
        rng = np.random.default_rng(23)
        done = 0
        while done < 30:
            A, B, Q, R = random_stabilizable_dense(rng, max_n=6)
            prob = LqrProblem(A=A, B=B, Q=Q, R=R)
            try:
                sol = solve_lqr(prob)
            except UnstabilizableError:
                continue
            Acl = closed_loop(prob, sol)
            K, P = sol.K, sol.P
            res = np.linalg.norm(Acl.T @ P + P @ Acl + Q + K.T @ R @ K)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(Q))
            done += 1

    def test_cost_monotone_in_state_weight(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 50:
            A, B, Q, R = random_stabilizable_dense(rng, max_n=5)
            try:
                base = solve_lqr(LqrProblem(A=A, B=B, Q=Q, R=R))
                bumped = solve_lqr(LqrProblem(A=A, B=B, Q=Q + 0.1 * np.eye(Q.shape[0]), R=R))
            except UnstabilizableError:
                continue
            assert base.h2_squared > 0
            assert bumped.h2_squared >= base.h2_squared - 1e-10
            done += 1


class TestValidation:
    def test_asymmetric_q_rejected(self):
        with pytest.raises(InputError):
            LqrProblem(A=np.eye(2), B=np.eye(2), Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2))

    def test_indefinite_q_rejected(self):
        with pytest.raises(InputError):
            LqrProblem(A=np.eye(2), B=np.eye(2), Q=np.diag([1.0, -1.0]), R=np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            LqrProblem(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=np.eye(1))

    @pytest.mark.parametrize(
        "A",
        [[["x"]], [[1.0, 2.0], [3.0]], (1.0 + 1.0j) * np.eye(1), [[True]]],
        ids=["non-numeric", "ragged", "complex", "boolean"],
    )
    def test_non_real_matrix_rejected(self, A):
        # A complex A must not be cast to its real part and solved as A = I.
        with pytest.raises(InputError):
            LqrProblem(A=A, B=np.eye(1), Q=np.eye(1), R=np.eye(1))
