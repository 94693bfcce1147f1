"""LQR problem container and solve wrapper.

solve_lqr returns the solver's own CareResult. Its performance number
h2_squared = trace(P) is the squared H2 norm of the closed loop when a
unit-intensity disturbance enters every state and the performance output
stacks Q^{1/2} x over R^{1/2} u. Under that convention it coincides with the
optimal quadratic regulator cost.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import _as_float, _validate_stack, solve_care


@dataclass
class LqrProblem:
    """State-feedback design data with Q, R symmetric positive definite,
    validated as solve_care validates (matcore._validate_stack, a stack of one)."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        data = (self.A, self.B, self.Q, self.R)
        stacks = (_as_float(X, name)[None] for X, name in zip(data, "ABQR"))
        *data, errors = _validate_stack(*stacks)
        if errors[0] is not None:
            raise errors[0]
        self.A, self.B, self.Q, self.R = (X[0] for X in data)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def solve_lqr(prob):
    """Solve the Riccati equation of prob; returns a matcore.CareResult."""
    return solve_care(prob.A, prob.B, prob.Q, prob.R)


def closed_loop(prob, sol):
    """Closed-loop state matrix A - B K for a solution of prob."""
    return prob.A - prob.B @ sol.K
