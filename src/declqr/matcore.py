"""Dense linear-algebra core: one matrix-sign kernel behind the Lyapunov and
Riccati solvers and the stability test, plus Bass stabilizing gains, and the
converters through which every number from outside the program enters.

The kernel is the determinant-scaled Newton iteration for the matrix sign
function (Roberts 1971, Byers 1987) on real float64 arrays: eigensolver-free
and O(n^3) per step.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NonconvergentError,
    ResonantSpectrumError,
    SolverError,
    UnstabilizableError,
)

# Relative step that ends the sign iteration; the last step is quadratic, so
# the returned iterate is accurate to about this step squared.
SIGN_STEP_TOL = 1e-10
# Acceptance bound on the Riccati residual, relative to max(1, ||Q||_F).
CARE_RESIDUAL_TOL = 1e-8
# Step cap for every sign iteration.
CARE_MAX_ITER = 200
# Resolution limit: a spectrum within ||A||_1 / RESONANCE_COND_LIMIT of the
# imaginary axis is not Hurwitz, and a Bass Gramian above this condition
# number is singular.
RESONANCE_COND_LIMIT = 1e14
# A residual within this many machine epsilons of the Riccati expression's own
# scale is the attainable floor: exceeding the acceptance tolerance there
# means the pair is too ill-conditioned for 64-bit arithmetic, not that the
# iteration failed. Healthy solves land within ~10 eps of scale; genuine
# accuracy bugs land orders of magnitude above this factor.
RESIDUAL_FLOOR_FACTOR = 1e4


def as_real(value, name):
    """The one converter for a number from outside the program (a file, a
    model tag, a config or a call): a finite float from a Python or numpy real
    scalar. Strings, None, booleans, containers, complex values, NaN and Inf
    raise InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InputError(f"{name} must be finite, got {value!r}")
    return x


def as_positive_real(value, name):
    """as_real, also requiring value > 0."""
    x = as_real(value, name)
    if x <= 0:
        raise InputError(f"{name} must be positive, got {value!r}")
    return x


def as_real_array(M, name):
    """Convert to a finite float array, every entry under as_real's rule.

    A cast alone would read "1" and true as 1.0 and drop an imaginary part, so
    unless M is already an integer or float ndarray, one entry of each Python
    type goes through as_real. Ragged nesting raises InputError too.
    """
    try:
        A = np.asarray(M)
    except ValueError:
        raise InputError(f"{name} is ragged: rows of unequal length") from None
    if not (isinstance(M, np.ndarray) and M.dtype.kind in "iuf"):
        for x in {type(x): x for x in np.asarray(M, dtype=object).flat}.values():
            as_real(x, f"{name} entry")
    A = A.astype(float, copy=False)
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return A


def as_matrix(M, name="matrix", rows=None, cols=None, square=False):
    """Convert to a finite 2-D float array (as_real_array), rejecting bad shapes."""
    A = as_real_array(M, name)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={A.ndim}")
    r, c = A.shape
    if square and r != c:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    if rows is not None and r != rows:
        raise InputError(f"{name} must have {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise InputError(f"{name} must have {cols} columns, got {c}")
    return A


def is_symmetric(M, tol=1e-10):
    """True when ||M - M'||_F <= tol * max(1, ||M||_F)."""
    return np.linalg.norm(M - M.T) <= tol * max(1.0, np.linalg.norm(M))


def is_positive_definite(M):
    """Cholesky-based test; assumes M is (numerically) symmetric."""
    try:
        np.linalg.cholesky((M + M.T) / 2.0)
    except np.linalg.LinAlgError:
        return False
    return True


def require_spd(M, name):
    """Validate a symmetric positive definite weight matrix."""
    M = as_matrix(M, name, square=True)
    if not is_symmetric(M):
        raise InputError(f"{name} must be symmetric")
    if not is_positive_definite(M):
        raise InputError(f"{name} must be positive definite")
    return M


def validate_lqr_data(A, B, Q, R):
    """Validate LQR data once: finite A (n x n), B (n x m), SPD Q and R."""
    A = as_matrix(A, "A", square=True)
    B = as_matrix(B, "B", rows=len(A))
    Q = require_spd(as_matrix(Q, "Q", rows=len(A), cols=len(A)), "Q")
    R = require_spd(as_matrix(R, "R", rows=B.shape[1], cols=B.shape[1]), "R")
    return A, B, Q, R


def _sign(Z, F=None):
    """(S, F, steps): sign of Z by the Newton iteration Z <- (cZ + (cZ)^{-1}) / 2,
    c = |det Z|^{-1/N} (N = len(Z)) while the last relative step exceeds 1e-2, else 1.

    Given F, the iterate is [[Z, F], [0, -Z']], whose inverse holds Z^{-1} F Z^{-T}
    in F's place; F comes back as that block of the sign. An imaginary-axis
    eigenvalue raises ResonantSpectrumError: as a singular iterate (zero
    determinant, non-finite inverse, halves cancelling to 1/RESONANCE_COND_LIMIT
    of their size) or a stall (over log2(RESONANCE_COND_LIMIT) = 46 steps above
    1e-2; at relative distance d from the axis an eigenvalue needs log2(1/d)).
    CARE_MAX_ITER steps raise NonconvergentError (residual: the last step).
    """
    step, far = np.inf, 0
    for k in range(1, CARE_MAX_ITER + 1):
        sign, logdet = np.linalg.slogdet(Z)
        if sign:
            c = np.exp(-logdet / len(Z)) if step > 1e-2 else 1.0
            Zi = np.linalg.inv(Z)
            Z_next = (c * Z + Zi / c) / 2.0
            size = np.linalg.norm(Z, 1)
        if (
            not sign
            or not c * size <= RESONANCE_COND_LIMIT * np.linalg.norm(Z_next, 1) < np.inf
            or far > np.log2(RESONANCE_COND_LIMIT)
        ):
            raise ResonantSpectrumError("imaginary-axis eigenvalue (singular or stalled sign)")
        step = np.linalg.norm(Z_next - Z, 1) / size
        Z = Z_next
        done = step <= SIGN_STEP_TOL
        if F is not None:
            F_next = (c * F + Zi @ F @ Zi.T / c) / 2.0
            done = done and np.linalg.norm(F_next - F, 1) <= SIGN_STEP_TOL * np.linalg.norm(F, 1)
            F = F_next
        if done:
            return Z, F, k
        far += step > 1e-2
    raise NonconvergentError(
        f"nonconvergent: sign iteration at relative step {step:.3e} after {CARE_MAX_ITER} steps",
        residual=step,
    )


def _unstable_count(A, shift):
    """Count of eigenvalues of A right of -shift: (n + trace sign(A + shift I)) / 2."""
    S, _, _ = _sign(A + shift * np.eye(len(A)))
    return round((len(A) + np.trace(S)) / 2.0)


def solve_lyapunov(A, Q):
    """Solve A'X + XA + Q = 0 for symmetric X, with A Hurwitz.

    A is certified as in is_hurwitz; X is then read off sign([[A', Q], [0, -A]])
    = [[-I, 2X], [0, I]] and symmetrized. Raises ResonantSpectrumError for an
    eigenvalue within t = ||A||_1 / RESONANCE_COND_LIMIT of the imaginary axis,
    InputError for any other non-Hurwitz A, NonconvergentError at CARE_MAX_ITER.
    """
    A = as_matrix(A, "A", square=True)
    Q = as_matrix(Q, "Q", rows=len(A), cols=len(A))
    if not is_symmetric(Q, tol=1e-8):
        raise InputError("Q must be symmetric")
    t = np.linalg.norm(A, 1) / RESONANCE_COND_LIMIT
    unstable = _unstable_count(A, t)
    # An eigenvalue within t of the axis is counted at shift t but not at -t.
    if unstable and _unstable_count(A, -t) == unstable:
        raise InputError("A must be Hurwitz")
    if unstable:
        raise ResonantSpectrumError("eigenvalue within rounding of the imaginary axis")
    _, F, _ = _sign(A.T, Q)
    return (F + F.T) / 4.0


def is_hurwitz(A):
    """True iff sign(A + tI) = -I, t = ||A||_1 / RESONANCE_COND_LIMIT: the shift moves
    imaginary-axis eigenvalues, whose sign rounding would pick at random, right of
    the axis. A singular, stalled or nonconvergent iteration is not Hurwitz.
    """
    A = as_matrix(A, "A", square=True)
    try:
        return _unstable_count(A, np.linalg.norm(A, 1) / RESONANCE_COND_LIMIT) == 0
    except SolverError:
        return False


def bass_stabilizing_gain(A, B):
    """Closed-form stabilizing gain K0 with A - B K0 Hurwitz (Bass construction).

    Returns the zero gain when A is already Hurwitz. Otherwise solves the
    shifted Gramian equation (A + beta I) Z + Z (A + beta I)' = 2 B B' with
    beta = ||A||_F + 1, and returns K0 = B' Z^{-1}, certified with is_hurwitz.
    Failure of any step raises UnstabilizableError.
    """
    A = as_matrix(A, "A", square=True)
    n = A.shape[0]
    B = as_matrix(B, "B", rows=n)
    if is_hurwitz(A):
        return np.zeros((B.shape[1], n))
    try:
        # -(A + beta I)' is Hurwitz: beta exceeds the spectral radius of A.
        Z = solve_lyapunov(-(A + (np.linalg.norm(A) + 1.0) * np.eye(n)).T, 2.0 * B @ B.T)
        if not is_positive_definite(Z) or np.linalg.cond(Z) > RESONANCE_COND_LIMIT:
            raise SolverError("shifted Gramian is singular")
        K0 = np.linalg.solve(Z, B).T
        if not is_hurwitz(A - B @ K0):
            raise SolverError("Bass gain failed the stability certificate")
    except SolverError as exc:
        raise UnstabilizableError(f"unstabilizable or ill-conditioned pair: {exc}") from exc
    return K0


@dataclass
class CareResult:
    """Stabilizing Riccati solution, the one result of every LQR solve.

    P is symmetric positive definite, K = R^{-1} B' P, residual is the
    Frobenius norm of A'P + PA - P B R^{-1} B' P + Q, and iterations counts
    the sign steps taken on the Hamiltonian. h2_squared = trace(P) is the
    squared closed-loop H2 norm (the optimal cost, see lqr); h2 its root.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int

    @property
    def h2_squared(self):
        return float(np.trace(self.P))

    @property
    def h2(self):
        return float(np.sqrt(self.h2_squared))


def solve_care(A, B, Q, R):
    """Solve A'P + PA - P B R^{-1} B' P + Q = 0 for the stabilizing SPD P.

    A, B are (n, n) and (n, m); Q, R are SPD weights. Returns a CareResult.
    With G = B R^{-1} B', the sign W of the balanced Hamiltonian [[A, -rho G],
    [-Q / rho, -A']] negates its stable subspace [I; P / rho], read off (W + I)
    by least squares. Two Newton (Kleinman) steps P += dP polish P, where
    (A - BK)' dP + dP (A - BK) + D(P) = 0 for the defect D(P).

    Raises InputError for bad data; UnstabilizableError when the Hamiltonian
    or a closed loop has an imaginary-axis eigenvalue, the solution does not
    stabilize, or the pair's residual floor exceeds the tolerance;
    NonconvergentError when a sign iteration hits CARE_MAX_ITER or the
    residual exceeds CARE_RESIDUAL_TOL * max(1, ||Q||_F).
    """
    A, B, Q, R = validate_lqr_data(A, B, Q, R)
    n = A.shape[0]
    try:
        G = B @ np.linalg.solve(R, B.T)
        rho = np.sqrt(np.linalg.norm(Q, 1) / np.linalg.norm(G, 1)) if G.any() else 1.0
        W, _, iterations = _sign(np.block([[A, -rho * G], [-Q / rho, -A.T]]))
        W += np.eye(2 * n)  # (W + I) [I; P / rho] = 0
        P = rho * np.linalg.lstsq(W[:, n:], -W[:, :n], rcond=None)[0]
        P = (P + P.T) / 2.0
        for newton in range(3):
            # Quadratic term as (PB) R^{-1} (PB)': P G P loses digits at large ||P||.
            PB = P @ B
            K = np.linalg.solve(R, PB.T)
            quad = PB @ K
            defect = A.T @ P + P @ A - quad + Q
            if newton < 2:
                P = P + solve_lyapunov(A - B @ K, (defect + defect.T) / 2.0)
    except (InputError, ResonantSpectrumError) as exc:
        raise UnstabilizableError(
            "unstabilizable or ill-conditioned pair: no stabilizing solution"
        ) from exc

    residual = float(np.linalg.norm(defect))
    if residual > CARE_RESIDUAL_TOL * max(1.0, np.linalg.norm(Q)):
        scale = 2.0 * np.linalg.norm(A.T @ P) + np.linalg.norm(quad) + np.linalg.norm(Q)
        if residual <= RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * scale:
            raise UnstabilizableError(
                "unstabilizable or ill-conditioned pair: the attainable residual floor "
                f"({residual:.3e} at solution scale {scale:.3e}) exceeds the acceptance tolerance"
            )
        raise NonconvergentError(
            f"nonconvergent: residual {residual:.3e} exceeds tolerance after "
            f"{iterations} sign steps",
            residual=residual,
        )
    if not is_positive_definite(P):
        raise SolverError("Riccati solution failed the positive-definiteness check")
    if not is_hurwitz(A - B @ K):
        raise SolverError("closed loop failed the Hurwitz certificate")
    return CareResult(P=P, K=K, residual=residual, iterations=iterations)
