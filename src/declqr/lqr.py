"""LQR problem container and solve wrapper.

The closed-loop performance number reported here is trace(P): the squared H2
norm of the loop when a unit-intensity disturbance enters every state and the
performance output stacks Q^{1/2} x over R^{1/2} u. Under that convention it
coincides with the optimal quadratic regulator cost.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import CareResult, solve_care, validate_lqr_data


@dataclass
class LqrProblem:
    """State-feedback design data (A, B, Q, R) with Q, R symmetric positive definite."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.A, self.B, self.Q, self.R = validate_lqr_data(self.A, self.B, self.Q, self.R)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass
class LqrSolution:
    """Riccati solve artifacts plus the squared closed-loop H2 norm trace(P)."""

    care: CareResult
    h2_squared: float

    @property
    def P(self):
        return self.care.P

    @property
    def K(self):
        return self.care.K

    @property
    def h2(self):
        return float(np.sqrt(self.h2_squared))


def solve_lqr(prob):
    """Solve the Riccati equation for prob and attach h2_squared = trace(P)."""
    care = solve_care(prob.A, prob.B, prob.Q, prob.R)
    return LqrSolution(care=care, h2_squared=float(np.trace(care.P)))


def closed_loop(prob, sol):
    """Closed-loop state matrix A - B K for a solution of prob."""
    return prob.A - prob.B @ sol.care.K
