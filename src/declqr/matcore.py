"""Dense linear-algebra core: one matrix-sign kernel behind the Lyapunov and
Riccati solvers and the stability test, plus Bass stabilizing gains, and the
converters through which every number from outside the program enters.

The kernel is the determinant-scaled Newton iteration for the matrix sign
function (Roberts 1971, Byers 1987) on real float64 arrays: eigensolver-free
and O(n^3) per step.

Stack contract. The kernel and the solvers on top of it take stacks: arrays of
shape (N, k, k) holding N problems of one size, stepped together through
numpy's batched slogdet, inv, solve and matmul. Every item is judged on its
own. A failure (bad data, an imaginary-axis eigenvalue, the step cap, a missed
residual) becomes that item's error, the same exception the one-problem call
raises, and never stops the other items. An item's result is bitwise the same
alone as inside a larger stack, and as the one-problem call gives it.
solve_care_stack is the stacked Riccati entry and returns per-item results
and errors; solve_care is its N = 1 case. Given a stack, solve_lyapunov and
require_spd return (result, errors) and is_hurwitz a bool array; given one
matrix, they return its result or raise. solve_care_stack validates through
require_spd and hands the checked data to _solve_care_validated, which a
caller holding already validated blocks (secondorder.reduce_and_solve)
enters directly. That solver accepts a read-off that already passes its final
tests and polishes any other through solve_lyapunov. One judge, _final_tests,
holds those tests for both paths: P positive definite, then the closed loop
certified by a Lyapunov inequality, calling is_hurwitz only where that fails.
A healthy solve runs the kernel once, on the Hamiltonian, and takes each of
the eight Frobenius norms its tests share once (_fro_norms). One helper,
_refuse, turns a failed test's mask into per-item errors, the first error of
an item winning; _record files the errors a sign or Lyapunov run returns.
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
# Step cap for every sign iteration, and for the extra Kleinman steps of a
# Riccati solve still above tolerance.
CARE_MAX_ITER = 200
# Resolution limit: a spectrum within ||A||_1 / RESONANCE_COND_LIMIT of the
# imaginary axis is not Hurwitz, and a Bass Gramian above this condition
# number is singular.
RESONANCE_COND_LIMIT = 1e14
# A residual within this many machine epsilons of the Riccati expression's own
# scale (_residual_floor) is the attainable floor: a read-off there needs no
# Kleinman step, and exceeding the acceptance tolerance there means the pair
# is too ill-conditioned for 64-bit arithmetic, not that the iteration failed.
# Healthy read-offs land within ~10 eps of scale; genuine accuracy bugs land
# orders of magnitude above this factor.
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


def as_count(value, name):
    """as_real, also requiring an integral value; returns an int, so 4.7 and
    "5" raise InputError where int() would truncate or parse them."""
    x = as_real(value, name)
    if not x.is_integer():
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _as_float(M, name):
    """M as a float ndarray under as_real's rule for its entries, finite or not.

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
    return A.astype(float, copy=False)


def as_real_array(M, name):
    """Convert to a finite float array, every entry under as_real's rule."""
    A = _as_float(M, name)
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return A


def as_matrix(M, name="matrix", rows=None, cols=None, square=False):
    """Convert to a finite 2-D float array (as_real_array), rejecting bad shapes."""
    A = as_real_array(M, name)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={A.ndim}")
    _check_shape(A.shape, name, rows, cols, square)
    return A


def _check_shape(shape, name, rows=None, cols=None, square=False):
    r, c = shape
    if square and r != c:
        raise InputError(f"{name} must be square, got shape {shape}")
    if rows is not None and r != rows:
        raise InputError(f"{name} must have {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise InputError(f"{name} must have {cols} columns, got {c}")


def _t(X):
    """Transpose of each matrix of a stack (of the matrix, for 2-D X)."""
    return X.swapaxes(-1, -2)


# The helpers below call ufunc reductions directly: on the small matrices of a
# sweep, the ndarray method wrappers cost as much as the arithmetic.
def _norm1(X):
    """Matrix 1-norm (largest absolute column sum) of each item of a stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(X), axis=-2), axis=-1)


def _fro(X):
    """Euclidean norm of each item of a stack over its last two axes (of the
    matrix, for 2-D X), the scale of every relative test: the dot product of
    the C-ordered, raveled item, so every finite value is np.linalg.norm(item)
    bitwise. Squaring overflows above about 1.3e154, and a relative test
    against an infinite scale passes for any value: an item whose norm comes
    out inf although its entries are finite is taken again as s * norm(X / s),
    s its largest absolute entry.
    """
    v = np.ascontiguousarray(X).reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1], 1))
    with np.errstate(over="ignore"):
        out = np.sqrt((_t(v) @ v)[..., 0, 0])
        big = out == np.inf
        if not np.count_nonzero(big):
            return out
        s = np.max(np.abs(v), axis=(-2, -1), keepdims=True)
        # Other items divide by 1: a zero item stays 0, an inf entry inf.
        s = np.where((0.0 < s) & (s < np.inf), s, 1.0)
        v = v / s
        return np.where(big, s[..., 0, 0] * np.sqrt((_t(v) @ v)[..., 0, 0]), out)[()]


def _compact(keep, *stacks):
    """The kept items of each stack; the stacks themselves when keep is None
    or keeps every item, so a stack with no failures is never copied."""
    if keep is None or np.count_nonzero(keep) == len(keep):
        return stacks
    return tuple(X[keep] for X in stacks)


def _nan_like(X, N):
    """A NaN stack of N items shaped like those of the stack X."""
    return np.full((N,) + X.shape[1:], np.nan)


def _scatter(X, index, N):
    """A NaN stack of N items holding the items of X at positions index."""
    out = _nan_like(X, N)
    out[index] = X
    return out


def is_symmetric(M, tol=1e-10):
    """True when ||M - M'||_F <= tol * max(1, ||M||_F); per item for a stack.
    An item with ||M||_F >= 2^1022, where M - M' or the norm can overflow, is
    judged on M / 2^e, 2^e the power of two at or below its largest entry:
    the test is homogeneous once ||M||_F >= 1, and the division rounds only
    the entries it takes below 2^-1022, far under the tolerance."""
    scale = _fro(M)
    huge = scale >= 2.0 ** 1022
    if np.count_nonzero(huge):
        _, e = np.frexp(np.max(np.abs(M), axis=(-2, -1), keepdims=True))
        M = np.where(huge[..., None, None], np.ldexp(M, 1 - e), M)
        scale = _fro(M)
    return _fro(M - _t(M)) <= tol * np.maximum(1.0, scale)


def is_positive_definite(M):
    """Cholesky-based test, per item for a stack (tried item by item once
    the stack's factorization fails); assumes M is (numerically) symmetric.
    Entries above half the float range overflow to inf in the symmetrization,
    silently: the factorization judges the result."""
    with np.errstate(over="ignore"):
        M = (M + _t(M)) / 2.0
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return False
        return np.array([is_positive_definite(X) for X in M], dtype=bool)
    return True if M.ndim == 2 else np.ones(len(M), dtype=bool)


def _refuse(errors, live, ok, error_type, message):
    """The one per-item refusal: each item live[j] whose ok[j] is False gets
    error_type(message) unless it has an error already (the first error
    wins). Returns the mask ok of the items still going, None when all are."""
    if np.count_nonzero(ok) == len(ok):
        return None
    for i in live[~ok]:
        errors[i] = errors[i] or error_type(message)
    return ok


def require_spd(M, name):
    """Validate a symmetric positive definite weight matrix: finite,
    symmetric and positive definite, else InputError. Returns M as a float
    array; a stack (N, n, n) gives (M, errors), errors[i] None or the
    InputError item i raises alone."""
    M = _as_float(M, name)
    stack = M.ndim == 3
    if stack:
        _check_shape(M.shape[1:], name, square=True)
    else:
        M = as_matrix(M, name, square=True)[None]
    errors, live = [None] * len(M), np.arange(len(M))
    finite = np.logical_and.reduce(np.isfinite(M), axis=(1, 2))
    X = M
    if _refuse(errors, live, finite, InputError, f"{name} contains NaN or Inf entries") is not None:
        X = np.where(finite[:, None, None], M, 0.0)  # those items have failed already
    _refuse(errors, live, is_symmetric(X), InputError, f"{name} must be symmetric")
    _refuse(errors, live, is_positive_definite(X), InputError, f"{name} must be positive definite")
    if stack:
        return M, errors
    if errors[0] is not None:
        raise errors[0]
    return M[0]


def _validate_stack(A, B, Q, R):
    """(A, B, Q, R, errors): stacked LQR data as float arrays, checked.

    Shapes hold for the whole stack: A (N, n, n), B (N, n, m), Q (N, n, n),
    R (N, m, m), else InputError. The finiteness of A and B and require_spd
    on Q and R are judged per item: errors[i] is None or the first InputError
    of item i, in the order A, B, Q, R.
    """
    A, B, Q, R = stacks = tuple(_as_float(X, name) for X, name in zip((A, B, Q, R), "ABQR"))
    for X, name in zip(stacks, "ABQR"):
        if X.ndim != 3:
            raise InputError(f"{name} must be 2-D, got ndim={X.ndim - 1}")
    n, m = A.shape[1], B.shape[2]
    _check_shape(A.shape[1:], "A", square=True)
    _check_shape(B.shape[1:], "B", rows=n)
    _check_shape(Q.shape[1:], "Q", rows=n, cols=n)
    _check_shape(R.shape[1:], "R", rows=m, cols=m)
    if not len(A) == len(B) == len(Q) == len(R):
        raise InputError("A, B, Q and R must stack the same number of items")
    errors, live = [None] * len(A), np.arange(len(A))
    for X, name in ((A, "A"), (B, "B")):
        finite = np.logical_and.reduce(np.isfinite(X), axis=(1, 2))
        _refuse(errors, live, finite, InputError, f"{name} contains NaN or Inf entries")
    for X, name in ((Q, "Q"), (R, "R")):
        _, spd_errors = require_spd(X, name)
        errors = [e or spd for e, spd in zip(errors, spd_errors)]
    return A, B, Q, R, errors


def _newton_mean(X, Y, c3):
    """(cX + Y / c) / 2 with c3 the per-item scales c as (N, 1, 1); c3 = None
    stands for c = 1, where the product and quotient are exact and skipped."""
    if c3 is None:
        return (X + Y) / 2.0
    return (c3 * X + Y / c3) / 2.0


def _carried_mean(F, Zi, c3):
    """The carried block's step, (cF + Zi F Zi' / c) / 2. Zi is of the order
    of c, so Zi F Zi' alone under- or overflows where c is far from 1; it is
    formed from 2^s Zi, 2^s near c^(-1/2), and divided by c 4^s instead. The
    powers of two are exact, so wherever nothing leaves the float range the
    block is bitwise the unscaled product's."""
    if c3 is None:
        return _newton_mean(F, Zi @ F @ _t(Zi), None)
    s = -(np.frexp(c3)[1] // 2)
    Zs = np.ldexp(Zi, s)
    return (c3 * F + (Zs @ F @ _t(Zs)) / np.ldexp(c3, 2 * s)) / 2.0


def _sign(Z, F=None):
    """(S, F, steps, errors): the sign of each item of the stack Z (N, k, k) by
    the Newton iteration Z <- (cZ + (cZ)^{-1}) / 2, c = |det Z|^{-1/k} while
    the item's last relative step exceeds 1e-2, else 1. In a step where no
    running item is scaled, the products and quotients by c = 1 are skipped:
    they are exact, so the iterates are bitwise the same.

    F, if given, is a stack of M <= N matrices carried by the first M items:
    such an iterate is [[Z, F], [0, -Z']], whose inverse holds Z^{-1} F Z^{-T}
    in F's place, and F comes back as that block of the sign. Items stop on
    their own. errors[i] is None, ResonantSpectrumError for an imaginary-axis
    eigenvalue (a singular iterate: zero determinant, non-finite inverse,
    halves cancelling to 1/RESONANCE_COND_LIMIT of their size, an overflowing
    F; or a stall: over log2(RESONANCE_COND_LIMIT) = 46 steps above 1e-2,
    where at relative distance d from the axis an eigenvalue needs log2(1/d)),
    or NonconvergentError after CARE_MAX_ITER steps (residual: the last step).
    A failed item's S and F are NaN and its steps 0. The running items are
    stepped as one array, compacted only in a step where some item stops.
    """
    N, k = len(Z), Z.shape[-1]
    S, steps, errors = _nan_like(Z, N), np.zeros(N, dtype=int), [None] * N
    F_out = None if F is None else _nan_like(F, len(F))
    # Per running item: its index, iterate, 1-norm, whether its last step
    # exceeded 1e-2, count of such steps, and last step. F rides on the first
    # items and follows every compaction.
    state = (
        np.arange(N), Z, _norm1(Z), np.ones(N, dtype=bool), np.zeros(N, dtype=int), np.full(N, np.inf)
    )
    stall = math.log2(RESONANCE_COND_LIMIT)
    # One item's overflow must not stop the others or warn for the whole stack:
    # a non-finite iterate fails that item through the checks below. Masks are
    # tested with count_nonzero, several times cheaper than any/all.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, CARE_MAX_ITER + 1):
            live, Z, size, scaled, far, _ = state
            if not len(live):
                break
            n_scaled = np.count_nonzero(scaled)
            if n_scaled:
                c = np.exp(np.linalg.slogdet(Z)[1] * (-1.0 / k))
                if n_scaled < len(live):
                    c[~scaled] = 1.0
                c3 = c[:, None, None]
            else:
                c = c3 = None  # c = 1 for every item
            regular = None
            try:
                Zi = np.linalg.inv(Z)
            except np.linalg.LinAlgError:
                # An exactly singular item (slogdet shares inv's LU, so its sign
                # is 0) fails; the identity stands in for it this step.
                regular = np.linalg.slogdet(Z)[0] != 0
                Zi = np.linalg.inv(np.where(regular[:, None, None], Z, np.eye(k)))
            Z_next = _newton_mean(Z, Zi, c3)
            size_next = _norm1(Z_next)
            bound = RESONANCE_COND_LIMIT * size_next
            fine = ((size if c is None else c * size) <= bound) & (bound < np.inf)
            if regular is not None:
                fine &= regular
            if it > stall:
                fine &= far <= stall
            step = _norm1(Z_next - Z) / size
            scaled = step > 1e-2
            far = far + scaled
            state = live, Z_next, size_next, scaled, far, step
            done = step <= SIGN_STEP_TOL
            if F is not None:
                m = len(F)
                F_next = _carried_mean(F, Zi[:m], None if c3 is None else c3[:m])
                if np.count_nonzero(done[:m]):
                    dF = _norm1(F_next - F)
                    # F overflows only beside an eigenvalue within rounding of
                    # zero; such an item would step on to the cap.
                    fine[:m] &= ~done[:m] | (dF < np.inf)
                    done[:m] &= dF <= SIGN_STEP_TOL * _norm1(F)
                F = F_next
            if np.count_nonzero(fine) == len(live) and not np.count_nonzero(done):
                continue
            done &= fine
            if np.count_nonzero(done) == N:
                # Every item stops in this step, as a lone item always does:
                # recording them item by item costs a 2 x 2 solve_care 12%.
                return Z_next, F, np.full(N, it), errors
            message = "imaginary-axis eigenvalue (singular or stalled sign)"
            _refuse(errors, live, fine, ResonantSpectrumError, message)
            S[live[done]], steps[live[done]] = Z_next[done], it
            keep = fine & ~done
            state = _compact(keep, *state)
            if F is not None:
                F_out[live[:m][done[:m]]] = F[done[:m]]
                F = _compact(keep[:m], F)[0]
    live, *_, step = state
    for i, s in zip(live, step):
        errors[i] = NonconvergentError(
            f"nonconvergent: sign iteration at relative step {s:.3e} after {CARE_MAX_ITER} steps",
            residual=float(s),
        )
    return S, F_out, steps, errors


def _unstable_count(A, shift):
    """(counts, errors): per item, the count of eigenvalues of A right of
    -shift, (k + trace sign(A + shift I)) / 2; NaN where the sign failed."""
    k = A.shape[-1]
    S, _, _, errors = _sign(A + shift[:, None, None] * np.eye(k))
    return np.rint((k + np.trace(S, axis1=-2, axis2=-1)) / 2.0), errors


def solve_lyapunov(A, Q):
    """Solve A'X + XA + Q = 0 for symmetric X, with A Hurwitz.

    A is certified as in is_hurwitz; X is then read off sign([[A', Q], [0, -A]])
    = [[-I, 2X], [0, I]] and symmetrized; both sign runs are items of one
    stack. Raises ResonantSpectrumError for an eigenvalue within
    t = ||A||_1 / RESONANCE_COND_LIMIT of the imaginary axis, InputError for
    asymmetric Q or any other non-Hurwitz A, NonconvergentError at
    CARE_MAX_ITER. Finite stacks A and Q (N, n, n) give (X, errors):
    errors[i] is None or the exception item i raises alone, and then X[i] is
    NaN.
    """
    stack = np.ndim(A) == 3
    A = _as_float(A, "A") if stack else as_matrix(A, "A", square=True)[None]
    Q = _as_float(Q, "Q") if stack else as_matrix(Q, "Q")[None]
    if Q.ndim != 3 or len(Q) != len(A):
        raise InputError("Q must stack as many matrices as A")
    N, k = A.shape[:2]
    _check_shape(A.shape[1:], "A", square=True)
    _check_shape(Q.shape[1:], "Q", rows=k, cols=k)
    t = _norm1(A) / RESONANCE_COND_LIMIT
    S, F, _, errors = _sign(np.concatenate([_t(A), A + t[:, None, None] * np.eye(k)]), Q)
    X = (F + _t(F)) / 4.0
    unstable = np.rint((k + np.trace(S[N:], axis1=-2, axis2=-1)) / 2.0)
    symmetric = is_symmetric(Q, tol=1e-8)
    ok = (unstable == 0) & symmetric
    if np.count_nonzero(ok) < N:
        X[~ok] = np.nan
        errors = [errors[i] if unstable[i] == 0 else errors[N + i] for i in range(N)]
        suspect = np.flatnonzero(unstable > 0)
        # An eigenvalue within t of the axis is counted at shift t but not at -t.
        again, again_errors = _unstable_count(A[suspect], -t[suspect])
        for i, count, error in zip(suspect, again, again_errors):
            if error is None and count == unstable[i]:
                error = InputError("A must be Hurwitz")
            errors[i] = error or ResonantSpectrumError("eigenvalue within rounding of the imaginary axis")
        for i in np.flatnonzero(~symmetric):
            errors[i] = InputError("Q must be symmetric")
    if stack:
        return X, errors[:N]
    if errors[0] is not None:
        raise errors[0]
    return X[0]


def is_hurwitz(A):
    """True iff sign(A + tI) = -I, t = ||A||_1 / RESONANCE_COND_LIMIT: the shift moves
    imaginary-axis eigenvalues, whose sign rounding would pick at random, right of
    the axis. A singular, stalled or nonconvergent iteration is not Hurwitz. A
    finite stack (N, n, n) gives a bool array, item by item.
    """
    stack = np.ndim(A) == 3
    A = _as_float(A, "A") if stack else as_matrix(A, "A", square=True)[None]
    _check_shape(A.shape[1:], "A", square=True)
    hurwitz = _unstable_count(A, _norm1(A) / RESONANCE_COND_LIMIT)[0] == 0
    return hurwitz if stack else bool(hurwitz[0])


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


@dataclass
class CareStack:
    """Per-item results of solve_care_stack over N problems of one size.

    P (N, n, n), K (N, m, n), residual and iterations (N,) are CareResult's
    fields item by item, and h2 (N,) its h2. errors[i] is None or the
    exception solve_care raises for item i, whose P, K, residual and h2 are
    then NaN.
    """

    P: np.ndarray
    K: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    errors: list

    @property
    def h2(self):
        return np.sqrt(np.trace(self.P, axis1=-2, axis2=-1))

    def item(self, i):
        """Item i as a CareResult; raises the item's error if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return CareResult(
            P=self.P[i], K=self.K[i], residual=float(self.residual[i]),
            iterations=int(self.iterations[i]),
        )


def _care_defect(A, B, Q, R, P):
    """(K, quad, defect) at P: the gain R^{-1} B' P, the quadratic term and
    the Riccati defect A'P + PA - quad + Q, stacked. The quadratic term is
    (PB) R^{-1} (PB)', since P G P loses digits at large ||P||."""
    PB = P @ B
    K = np.linalg.solve(R, _t(PB))
    quad = PB @ K
    return K, quad, _t(A) @ P + P @ A - quad + Q


def _closed_loop_hurwitz(A, B, Q, P, K, quad, defect, norms):
    """Per item, whether A_cl = A - BK is Hurwitz as is_hurwitz judges it:
    A_cl + tI Hurwitz, t = ||A_cl||_1 / RESONANCE_COND_LIMIT. P is SPD,
    (K, quad, defect) = _care_defect(A, B, Q, R, P) and norms is their
    _fro_norms.

    The certificate is Lyapunov's inequality: with P > 0, M = -[(A_cl + tI)'P
    + P(A_cl + tI)] > 0 proves A_cl + tI Hurwitz (v*Mv = -2 Re(lambda) v*Pv
    for an eigenpair). For the computed K, M = sym(Q + quad - defect) - 2tP
    exactly, so M costs no product. An item passes iff the Cholesky
    factorization of M - delta I succeeds, where delta bounds every rounding
    between the computed and the exact M (u = eps / 2, gamma_k = ku / (1 - ku)):
    - the products A'P, PA, PB (inner size n: gamma_n |X||Y|) and PB K
      (inner size m), the sums forming defect and M, and the step from A - BK
      to the computed A_cl that is_hurwitz would be given; at most
      (n + 2m + 8) u S with S = 2(||A|| + ||B|| ||K|| + t) ||P|| + ||Q||
      + ||quad|| + ||defect||, Frobenius norms;
    - the Cholesky factorization itself: its success proves X + E >= 0 with
      ||E||_2 <= gamma_{n+1} trace(X) (Rump 2006, "Verification of positive
      definiteness"), so (n + 1) u trace(M) covers it.
    delta states both with eps in place of u, twice these bounds; the slack
    covers second-order terms and the rounding of M - delta I. Items left
    uncertified go to is_hurwitz, so no verdict is looser than is_hurwitz's
    own. The factorization runs item by item.
    """
    n, m = B.shape[1:]
    A_cl = A - B @ K
    t = _norm1(A_cl) / RESONANCE_COND_LIMIT
    M = Q + quad - defect
    M = (M + _t(M)) / 2.0 - 2.0 * t[:, None, None] * P
    a, b, q, p, k, quad_n, _, defect_n = norms.T
    size = 2.0 * (a + b * k + t) * p + q + quad_n + defect_n
    # A trace <= 0 fails the factorization anyway; clipping keeps delta >= 0.
    trace = np.maximum(np.trace(M, axis1=-2, axis2=-1), 0.0)
    delta = np.finfo(float).eps * ((n + 2 * m + 8) * size + (n + 1) * trace)
    hurwitz = is_positive_definite(M - delta[:, None, None] * np.eye(n))
    doubt = np.flatnonzero(~hurwitz)
    if doubt.size:
        hurwitz[doubt] = is_hurwitz(A_cl[doubt])
    return hurwitz


def _lstsq(M, b):
    """Minimum-norm least-squares solution of M X = b for each item of a
    stack, by one batched SVD: X = V diag(w) U' b with w = 1/s for singular
    values s > eps * max(rows, cols) * max(s), the cut-off of
    np.linalg.lstsq(rcond=None), and w = 0 for the rest. The SVD runs item by
    item inside numpy's gufunc, so an item's X is bitwise the same alone as
    inside a stack."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cut = np.finfo(float).eps * max(M.shape[-2:]) * s[..., :1]
    w = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    return _t(Vt) @ (w[..., None] * (_t(U) @ b))


def _record(errors, live, item_errors, wrap=lambda exc: exc):
    """Record item_errors[j], through wrap, as the error of item live[j]; the
    mask of the items still going, None when all are."""
    if not any(item_errors):
        return None
    for i, exc in zip(live, item_errors):
        if exc is not None:
            errors[i] = wrap(exc)
    return np.array([exc is None for exc in item_errors], dtype=bool)


def _care_error(exc):
    """A sign or Lyapunov failure as a Riccati error: bad data or an
    imaginary-axis eigenvalue there means an unstabilizable pair."""
    if not isinstance(exc, (InputError, ResonantSpectrumError)):
        return exc
    error = UnstabilizableError("unstabilizable or ill-conditioned pair: no stabilizing solution")
    error.__cause__ = exc
    return error


def _fro_norms(A, B, Q, P, K, quad, residual):
    """(N, 8) array whose row i holds the _fro norms of item i of A, B, Q, P,
    K, quad and A'P, then residual, the norm of its Riccati defect. The
    residual tolerance, _residual_floor and _closed_loop_hurwitz read their
    norms here, so a solve takes each once."""
    return np.stack([*map(_fro, (A, B, Q, P, K, quad, _t(A) @ P)), residual], axis=-1)


def _residual_floor(norms):
    """(scale, floor) per item of _fro_norms: the scale of the Riccati
    expression, which counts the rounding in A'P + PA, in the quadratic term
    and inside PB, and in Q, and the attainable residual floor
    RESIDUAL_FLOOR_FACTOR * eps times it."""
    _, b, q, p, k, quad, ap, _ = norms.T
    scale = 2.0 * ap + quad + q + p * b * k
    return scale, RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * scale


def _final_tests(ok, A, B, Q, P, K, quad, defect, norms):
    """(pd, hurwitz): the mask ok narrowed to the items whose P is positive
    definite, then to those whose closed loop _closed_loop_hurwitz certifies.
    Each test runs on the survivors of the one before, the certificate last;
    the arguments are as _closed_loop_hurwitz takes them."""
    pd = ok.copy()
    if np.count_nonzero(pd):
        pd[pd] = is_positive_definite(*_compact(pd, P))
    hurwitz = pd.copy()
    if np.count_nonzero(hurwitz):
        hurwitz[hurwitz] = _closed_loop_hurwitz(*_compact(hurwitz, A, B, Q, P, K, quad, defect, norms))
    return pd, hurwitz


def solve_care_stack(A, B, Q, R):
    """Solve A'P + PA - P B R^{-1} B' P + Q = 0 for the stabilizing SPD P of
    every item of the stacks A (N, n, n), B (N, n, m), Q (N, n, n) and
    R (N, m, m). Returns a CareStack.

    With G = B R^{-1} B', the sign W of the balanced Hamiltonian [[A, -rho G],
    [-Q / rho, -A']] negates its stable subspace [I; P / rho], read off (W + I)
    by least squares. An item whose read-off P passes every final test (the
    residual within tolerance and within the attainable floor, P positive
    definite, and the closed loop A - BK certified Hurwitz) is accepted as it
    is. Every other item is polished by Newton (Kleinman) steps P += dP, where
    (A - BK)' dP + dP (A - BK) + D(P) = 0 for the defect D(P): one step, whose
    Lyapunov solve certifies the read-off closed loop, and more while its
    residual is above tolerance and falls. The closed loop is certified by
    Lyapunov's inequality with P (_closed_loop_hurwitz), which falls back to
    is_hurwitz.

    An item's error is InputError for bad data; UnstabilizableError when the
    Hamiltonian or a closed loop has an imaginary-axis eigenvalue, the
    solution does not stabilize, or the pair's residual floor exceeds the
    tolerance; NonconvergentError when a sign iteration hits CARE_MAX_ITER or
    the residual exceeds CARE_RESIDUAL_TOL * max(1, ||Q||_F); SolverError when
    P fails the definiteness or A - BK the Hurwitz certificate. Stacks whose
    shapes do not fit raise InputError.
    """
    return _solve_care_validated(*_validate_stack(A, B, Q, R))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_care_validated(A, B, Q, R, errors):
    """solve_care_stack on data that already passed its checks: float stacks
    of fitting shapes, A and B finite and Q and R SPD as _validate_stack
    judges them, and errors[i] None or item i's error, which stops it before
    the first step (the list is filled in place). A caller that assembled its
    data from validated blocks (secondorder.reduce_and_solve) enters here, so
    the blocks are not validated a second time.

    A healthy item runs the sign kernel once, on its Hamiltonian: its read-off
    is at the floor, where a Kleinman step only moves the rounding. The other
    items take _kleinman_steps. As in _sign, floating-point errors do not
    warn: one item's overflow must not stop the others, and every item is
    judged on its finite results. An item whose G = B R^{-1} B', or whose
    read-off quadratic term P B R^{-1} B' P, is not finite fails as
    UnstabilizableError, naming that term."""
    N, n, m = B.shape
    iterations, live = np.zeros(N, dtype=int), np.arange(N)
    live, A, B, Q, R = _compact(_record(errors, live, errors), live, A, B, Q, R)
    G = B @ np.linalg.solve(R, _t(B))
    finite = np.logical_and.reduce(np.isfinite(G), axis=(1, 2))
    overflow = "unstabilizable or ill-conditioned pair: {} is not finite in 64-bit floats"
    keep = _refuse(errors, live, finite, UnstabilizableError, overflow.format("G = B R^-1 B'"))
    live, A, B, Q, R, G = _compact(keep, live, A, B, Q, R, G)
    g = _norm1(G)
    rho = np.sqrt(np.divide(_norm1(Q), g, out=np.ones_like(g), where=g > 0))[:, None, None]
    H = np.empty((len(live), 2 * n, 2 * n))
    H[:, :n, :n], H[:, :n, n:] = A, -rho * G
    H[:, n:, :n], H[:, n:, n:] = -Q / rho, -_t(A)
    W, _, iterations[live], sign_errors = _sign(H)
    keep = _record(errors, live, sign_errors, _care_error)
    live, A, B, Q, R, rho, W = _compact(keep, live, A, B, Q, R, rho, W)
    W += np.eye(2 * n)  # (W + I) [I; P / rho] = 0
    P = rho * _lstsq(W[:, :, n:], -W[:, :, :n])
    P = (P + _t(P)) / 2.0
    K, quad, defect = _care_defect(A, B, Q, R, P)
    # Where the quadratic term leaves the float range, the defect and every
    # test on it are void.
    finite = np.logical_and.reduce(np.isfinite(quad), axis=(1, 2))
    keep = _refuse(errors, live, finite, UnstabilizableError, overflow.format("P B R^-1 B' P"))
    live, A, B, Q, R, P, K, quad, defect = _compact(keep, live, A, B, Q, R, P, K, quad, defect)
    residual = _fro(defect)
    norms = _fro_norms(A, B, Q, P, K, quad, residual)
    tol = CARE_RESIDUAL_TOL * np.maximum(1.0, norms[:, 2])  # column 2 is ||Q||
    # A read-off within tolerance and the floor faces the final tests.
    ok = (residual <= tol) & (residual <= _residual_floor(norms)[1])
    _, ok = _final_tests(ok, A, B, Q, P, K, quad, defect, norms)
    stepped = ~ok
    if np.count_nonzero(stepped):
        accepted = _compact(ok, live, P, K, residual)
        polished = _kleinman_steps(
            errors, iterations, *_compact(stepped, live, A, B, Q, R, P, K, defect, tol)
        )
        live, P, K, residual = (np.concatenate(pair) for pair in zip(accepted, polished))
    # The concatenation leaves live out of order.
    if len(live) < N or np.count_nonzero(stepped):
        P, K, residual = (_scatter(X, live, N) for X in (P, K, residual))
    return CareStack(P=P, K=K, residual=residual, iterations=iterations, errors=errors)


def _kleinman_steps(errors, iterations, live, A, B, Q, R, P, K, defect, tol):
    """(live, P, K, residual) of the items of live that pass the final tests
    after Kleinman steps from their read-off P, where K and defect are the
    gain and the Riccati defect D(P) at P and tol is each item's residual
    tolerance; the other items' errors go to errors.

    Every item takes one step, whose Lyapunov solve certifies the read-off
    closed loop; an item still above tolerance takes further steps while its
    residual falls. An item left above tolerance is floor-limited
    (UnstabilizableError) or NonconvergentError; the others face
    _final_tests, and an item that fails one is a SolverError naming it.
    """
    dP, lyap_errors = solve_lyapunov(A - B @ K, (defect + _t(defect)) / 2.0)
    keep = _record(errors, live, lyap_errors, _care_error)
    live, A, B, Q, R, P, dP, tol = _compact(keep, live, A, B, Q, R, P, dP, tol)
    P = P + dP
    K, quad, defect = _care_defect(A, B, Q, R, P)

    residual = _fro(defect)
    # Items still above tolerance take further steps while their residual falls.
    todo = np.flatnonzero(residual > tol)
    for _ in range(CARE_MAX_ITER):
        if not todo.size:
            break
        a, b, k, d = A[todo], B[todo], K[todo], defect[todo]
        dP, lyap_errors = solve_lyapunov(a - b @ k, (d + _t(d)) / 2.0)
        solved = np.array([e is None for e in lyap_errors], dtype=bool)
        todo, dP = todo[solved], dP[solved]
        P_try = P[todo] + dP
        K_try, quad_try, defect_try = _care_defect(A[todo], B[todo], Q[todo], R[todo], P_try)
        res_try = _fro(defect_try)
        fell = res_try < residual[todo]
        todo = todo[fell]
        P[todo], K[todo], quad[todo] = P_try[fell], K_try[fell], quad_try[fell]
        defect[todo], residual[todo] = defect_try[fell], res_try[fell]
        todo = todo[residual[todo] > tol[todo]]

    norms = _fro_norms(A, B, Q, P, K, quad, residual)
    over = residual > tol
    if np.count_nonzero(over):
        scale, floor = _residual_floor(norms)
        for j in np.flatnonzero(over):
            if residual[j] <= floor[j]:
                errors[live[j]] = UnstabilizableError(
                    "unstabilizable or ill-conditioned pair: the attainable residual floor "
                    f"({residual[j]:.3e} at solution scale {scale[j]:.3e}) exceeds the "
                    "acceptance tolerance"
                )
            else:
                errors[live[j]] = NonconvergentError(
                    f"nonconvergent: residual {residual[j]:.3e} exceeds tolerance after "
                    f"{iterations[live[j]]} sign steps",
                    residual=float(residual[j]),
                )
    # The first error wins: an item over tolerance keeps its own.
    pd, hurwitz = _final_tests(~over, A, B, Q, P, K, quad, defect, norms)
    _refuse(errors, live, pd, SolverError, "Riccati solution failed the positive-definiteness check")
    _refuse(errors, live, hurwitz, SolverError, "closed loop failed the Hurwitz certificate")
    return _compact(hurwitz, live, P, K, residual)


def solve_care(A, B, Q, R):
    """Solve A'P + PA - P B R^{-1} B' P + Q = 0 for the stabilizing SPD P.

    A, B are (n, n) and (n, m); Q, R are SPD weights. Returns a CareResult.
    This is solve_care_stack on a stack of one, whose docstring gives the
    method; the item's error is raised: InputError for bad data,
    UnstabilizableError for an unstabilizable or ill-conditioned pair,
    NonconvergentError when the iteration or the residual misses its bound,
    SolverError when a certificate fails.
    """
    stacks = (_as_float(X, name)[None] for X, name in zip((A, B, Q, R), "ABQR"))
    return solve_care_stack(*stacks).item(0)
