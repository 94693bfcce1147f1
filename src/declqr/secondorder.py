"""Second-order (position/velocity) dynamics.

For x'' = A1 x + A2 x' + B0 u with cost weights Q0 (positions), Q2
(velocities) and R0 (inputs), the augmented 2n-state problem is assembled and
solved, and — in parallel — a two-stage reduction is run: P1 from the smaller
Riccati equation (A1, B0, Q0, R0), then P2 from (A2, B0, Qbar, R0) with
Qbar = Q2 + P1 + P1'. The gain blocks R0^{-1} B0' P1 and R0^{-1} B0' P2 from
the reduction are compared against the blocks of the full solve; the gap is
recorded as agreement_residual rather than assumed zero, because the corner
block of the full solution is not symmetric in general and the stage solves
are symmetric by construction. On circulant-symmetric data the two routes
coincide to solver precision.

Each input is validated once. SecondOrderSystem checks the blocks when it is
built, and reduce_and_solve hands the three problems it assembles from them
straight to the Riccati solver (matcore._solve_care_validated), without
validating them again: stage P1 takes the blocks as they are, stage P2's
Qbar is symmetric by construction and checked for positive definiteness
here, and the augmented problem's Q = blockdiag(Q0, Q2) is SPD because its
blocks are.
"""

from dataclasses import dataclass

import numpy as np

from .decentral import DecentralReport, Verdict, pattern_decentralized, position_velocity_neighborhoods
from .errors import InputError, SolverError
from .matcore import _fro, _solve_care_validated, as_matrix, is_positive_definite, require_spd


@dataclass
class SecondOrderSystem:
    """Blocks (A1, A2, B0, Q0, Q2, R0), all n x n, with SPD weights."""

    A1: np.ndarray
    A2: np.ndarray
    B0: np.ndarray
    Q0: np.ndarray
    Q2: np.ndarray
    R0: np.ndarray

    def __post_init__(self):
        self.A1 = as_matrix(self.A1, "A1", square=True)
        n = self.A1.shape[0]
        self.A2 = as_matrix(self.A2, "A2", rows=n, cols=n)
        self.B0 = as_matrix(self.B0, "B0", rows=n, cols=n)
        self.Q0 = require_spd(as_matrix(self.Q0, "Q0", rows=n, cols=n), "Q0")
        self.Q2 = require_spd(as_matrix(self.Q2, "Q2", rows=n, cols=n), "Q2")
        self.R0 = require_spd(as_matrix(self.R0, "R0", rows=n, cols=n), "R0")

    @property
    def n(self):
        return self.A1.shape[0]


@dataclass
class SecondOrderSolution:
    """Reduction artifacts and the full-solve cross-check.

    gain_pos = R0^{-1} B0' P1 and gain_vel = R0^{-1} B0' P2 are the gains of
    the two stage solves; full_P and full_gain from the augmented 2n solve.
    agreement_residual is the larger Frobenius gap between corresponding gain
    blocks, and corner_asymmetry records ||C - C'||_F for the full solution's
    upper-right n x n block C.
    """

    P1: np.ndarray
    P2: np.ndarray
    Qbar: np.ndarray
    gain_pos: np.ndarray
    gain_vel: np.ndarray
    full_P: np.ndarray
    full_gain: np.ndarray
    agreement_residual: float
    corner_asymmetry: float


def _augmented(sys):
    """(A, B, Q, R) of the 2n-state problem: A = [[0, I], [A1, A2]],
    B = [0; B0], Q = blockdiag(Q0, Q2), R = R0."""
    n = sys.n
    zero = np.zeros((n, n))
    A = np.block([[zero, np.eye(n)], [sys.A1, sys.A2]])
    B = np.vstack([zero, sys.B0])
    Q = np.block([[sys.Q0, zero], [zero, sys.Q2]])
    return A, B, Q, sys.R0


def _solve(stage, A, B, Q, R):
    """solve_care on blocks this module has validated, as a stack of one; an
    error's message is prefixed with the stage, its class and attributes kept."""
    try:
        return _solve_care_validated(A[None], B[None], Q[None], R[None], [None]).item(0)
    except (InputError, SolverError) as exc:
        exc.args = (f"{stage}: {exc}",)
        raise


def reduce_and_solve(sys):
    """Run the two-stage reduction and the full augmented solve.

    The three Riccati solves take the blocks that SecondOrderSystem validated
    and do not validate them again (see the module docstring). Raises the
    underlying solver error labeled with the failing stage ("stage-P1",
    "stage-P2" or "stage-full").
    """
    n = sys.n
    care1 = _solve("stage-P1", sys.A1, sys.B0, sys.Q0, sys.R0)
    P1 = care1.P
    Qbar = sys.Q2 + P1 + P1.T
    if not is_positive_definite(Qbar):
        raise SolverError("stage-P2: Qbar = Q2 + P1 + P1' is not positive definite")
    care2 = _solve("stage-P2", sys.A2, sys.B0, Qbar, sys.R0)

    full = _solve("stage-full", *_augmented(sys))
    agreement = max(
        float(_fro(full.K[:, :n] - care1.K)),
        float(_fro(full.K[:, n:] - care2.K)),
    )
    corner = full.P[:n, n:]
    return SecondOrderSolution(
        P1=P1,
        P2=care2.P,
        Qbar=Qbar,
        gain_pos=care1.K,
        gain_vel=care2.K,
        full_P=full.P,
        full_gain=full.K,
        agreement_residual=agreement,
        corner_asymmetry=float(_fro(corner - corner.T)),
    )


def check_second_order_decentral(solution):
    """Judge the solved gain against neighborhoods N_i = {x_i, x'_i}.

    Decentralization of the 2n-column gain is equivalent to both gain blocks
    being diagonal. The verdict is taken from the full-solve gain (the ground
    truth); the reduced blocks' own pattern test and the reduction agreement
    are attached as witnesses. One pattern_decentralized call judges both
    gains; the report holds Python bools and floats.
    """
    reduced = np.hstack([solution.gain_pos, solution.gain_vel])
    conforms, mass = pattern_decentralized(
        np.stack([solution.full_gain, reduced]),
        position_velocity_neighborhoods(solution.gain_pos.shape[1]),
    )
    (full_ok, red_ok), (full_mass, red_mass) = conforms.tolist(), mass.tolist()
    scale = max(1.0, float(_fro(solution.gain_pos)), float(_fro(solution.gain_vel)))
    agreement = solution.agreement_residual
    verdicts = [
        Verdict("reduced_gain_blocks_diagonal", red_ok, {"offdiag_mass": red_mass}),
        Verdict("reduction_matches_full_solve", agreement <= 1e-7 * scale,
                {"agreement_residual": agreement, "corner_asymmetry": solution.corner_asymmetry}),
    ]
    return DecentralReport(full_ok, full_mass, solution.full_gain, verdicts)
