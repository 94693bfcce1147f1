"""Complete-decentralization tests for unconstrained LQR gains.

A gain is completely decentralized when every input u_i depends only on the
states its own subcontroller can see (neighborhood N_i); with one input per
state that means a diagonal K. This module provides

* a numeric oracle: solve the Riccati equation and test the gain's sparsity
  pattern,
* Verdict, the one record of a named condition, its answer and witness,
* the one map of 2x2 plants with B = I and diagonal Q, R to matrices and
  back (diagonal_cost_stack, DiagonalCost2x2.from_problem), the four
  conditions on them (sign pattern of the coupling plus two weight-ratio
  identities) and the cost synthesis these induce,
* a per-frequency uniform-gain search for circulant quadruples of any size,
  exact for non-symmetric A and B, specialized to a pair of balance ratios
  for the 2x2 circulant case (balance_ratio, which the two-chamber model
  reuses; frequency_singular is the search's vanishing-eigenvalue test).

Tolerance split: analytic ratio identities are checked at 1e-10 (exact
arithmetic facts), while oracle diagonality is judged at 1e-6, downstream of
the iterative Riccati solve. The scale of every relative test is
matcore._fro, which stays finite for finite entries, so entries above about
1.3e154 cannot pass against an infinite scale.
"""

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import InputError
from .lqr import LqrProblem, solve_lqr
from .matcore import _fro, as_positive_real, as_real, as_real_array
from .spectral import CirculantSpec, circulant_eigenvalues, circulant_materialize

# Relative tolerance for analytic ratio identities.
RATIO_TOL = 1e-10
# Gain-sparsity tolerance of every pattern test.
ORACLE_TOL = 1e-6
# Imaginary parts above this, or relative spreads above it, disqualify the
# per-frequency gains as one uniform real gain.
UNIFORM_GAIN_TOL = 1e-9


# ---------------------------------------------------------------------------
# Sparsity patterns and the numeric oracle
# ---------------------------------------------------------------------------

def single_station_neighborhoods(n):
    """N_i = {i}: each input sees exactly its own state, the (n, n) mask I."""
    return np.eye(n, dtype=bool)


def position_velocity_neighborhoods(n):
    """N_i = {i, n+i} over a stacked [positions; velocities] state of size 2n:
    the (n, 2n) mask [I I]."""
    return np.tile(np.eye(n, dtype=bool), 2)


def pattern_decentralized(K, allowed):
    """Test whether K, or each gain of a stack K (N, m, n), conforms to the
    information pattern allowed: a boolean (m, n) numpy array whose row i
    marks N_i, the states input i may read, and is nowhere empty.

    Returns (conforms, offdiag_mass), as arrays over the stack for a stack.
    conforms is True when every entry K[i, j] with j outside N_i satisfies
    |K[i, j]| <= ORACLE_TOL * max(1, ||K||_F); offdiag_mass is the Frobenius
    norm of the off-pattern part divided by ||K||_F (0 for a zero gain).
    """
    K = as_real_array(K, "K")
    if K.ndim not in (2, 3):
        raise InputError(f"K must be 2-D or a stack of 2-D gains, got ndim={K.ndim}")
    m, n = K.shape[-2:]
    if not (isinstance(allowed, np.ndarray) and allowed.dtype == bool
            and allowed.shape == (m, n)):
        raise InputError(f"the pattern must be a boolean numpy array of K's shape ({m}, {n})")
    empty = np.flatnonzero(~allowed.any(axis=1))
    if empty.size:
        raise InputError(f"neighborhood {empty[0]} is empty")
    gains = K.reshape(-1, m * n)
    off = gains[:, ~allowed.ravel()]
    k_norm = _fro(gains[:, None, :])
    conforms = np.abs(off).max(axis=1, initial=0.0) <= ORACLE_TOL * np.maximum(1.0, k_norm)
    mass = np.divide(_fro(off[:, None, :]), k_norm, out=np.zeros_like(k_norm), where=k_norm > 0)
    if K.ndim == 2:
        return bool(conforms[0]), float(mass[0])
    return conforms, mass


@dataclass
class Verdict:
    """One named condition: whether it holds, and the values that witness the
    answer, a map from name to float kept in the order they print."""

    name: str
    holds: bool
    witness: dict = field(default_factory=dict)


@dataclass
class DecentralReport:
    """The numeric-oracle decision and off-pattern mass of the judged gain K,
    and the analytic conditions judged alongside it, as Verdicts."""

    oracle_decentralized: bool
    offdiag_mass: float
    K: np.ndarray
    analytic_verdicts: list = field(default_factory=list)


def oracle_check(prob):
    """Solve prob and judge the gain against single-station neighborhoods,
    which need one input per state.

    Every CLI check mode judges the system file's own problem here;
    run_sweep solves its whole stack with solve_care_stack and judges it with
    one pattern_decentralized call, under the same rule. Solver errors
    propagate.
    """
    if prob.m != prob.n:
        raise InputError("single-station neighborhoods need one input per state")
    sol = solve_lqr(prob)
    decentralized, mass = pattern_decentralized(sol.K, single_station_neighborhoods(prob.n))
    return DecentralReport(
        oracle_decentralized=decentralized,
        offdiag_mass=mass,
        K=sol.K,
    )


def approx_equal(u, v, tol):
    """Symmetric relative closeness; safe when either value is zero, and
    false unless both are finite."""
    finite = math.isfinite(u) and math.isfinite(v)
    return finite and abs(u - v) <= tol * max(1.0, abs(u), abs(v))


# ---------------------------------------------------------------------------
# 2x2 dynamics with B = I and diagonal Q, R
# ---------------------------------------------------------------------------

def diagonal_cost_stack(a0, a1, a_minus1, a2, q0, q2, r0, r2):
    """Unvalidated (A, B, Q, R) of the plants [[a0, a1], [a_minus1, a2]] with
    B = I, Q = diag(q0, q2) and R = diag(r0, r2), R's entries as given. The
    arguments broadcast: scalars give 2x2 matrices, N-vectors stacks of N."""
    shape = np.broadcast_shapes(*map(np.shape, (a0, a1, a_minus1, a2, q0, q2, r0, r2)))
    A, B, Q, R = (np.zeros(shape + (2, 2)) for _ in range(4))
    A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1] = a0, a1, a_minus1, a2
    B[..., 0, 0] = B[..., 1, 1] = 1.0
    Q[..., 0, 0], Q[..., 1, 1], R[..., 0, 0], R[..., 1, 1] = q0, q2, r0, r2
    return A, B, Q, R


@dataclass
class DiagonalCost2x2:
    """A 2x2 plant [[a0, a1], [a_minus1, a2]] with B = I and decoupled weights
    Q = diag(q0, q2), R = diag(1/gamma0, 1/gamma2)."""

    a0: float
    a1: float
    a_minus1: float
    a2: float
    q0: float
    q2: float
    gamma0: float
    gamma2: float

    def __post_init__(self):
        for name in ("a0", "a1", "a_minus1", "a2"):
            setattr(self, name, as_real(getattr(self, name), name))
        for name in ("q0", "q2", "gamma0", "gamma2"):
            setattr(self, name, as_positive_real(getattr(self, name), name))

    def lqr_problem(self):
        *entries, gamma0, gamma2 = astuple(self)
        return LqrProblem(*diagonal_cost_stack(*entries, 1.0 / gamma0, 1.0 / gamma2))

    @classmethod
    def from_problem(cls, prob):
        """The member whose problem is the LqrProblem prob, gamma = 1/diag(R).
        An InputError names the first hypothesis that fails: 2x2 data, B = I,
        Q and R diagonal (within 1e-12 of max(1, its norm))."""
        A, B, Q, R = prob.A, prob.B, prob.Q, prob.R
        if any(M.shape != (2, 2) for M in (A, B, Q, R)):
            raise InputError("this check needs a 2x2 dense system")
        for M, target, need in ((B, np.eye(2), "B = I (rescale the input first)"),
                                (Q, np.diag(np.diag(Q)), "a diagonal Q"),
                                (R, np.diag(np.diag(R)), "a diagonal R")):
            if np.max(np.abs(M - target)) > 1e-12 * max(1.0, _fro(M)):
                raise InputError(f"this check needs {need}")
        with np.errstate(over="ignore"):  # gamma = inf, from a subnormal r, is refused
            gamma0, gamma2 = 1.0 / np.diag(R)
        return cls(*A.ravel(), *np.diag(Q), gamma0, gamma2)


def _require_nonzero_coupling(a1, a_minus1, a2):
    if a1 == 0.0 or a_minus1 == 0.0 or a2 == 0.0:
        raise InputError(
            "degenerate coupling: a1, a_minus1 and a2 must be nonzero "
            "(fully diagonal plants are decentralized trivially)"
        )


def diagonal_cost_conditions(sys):
    """Evaluate four conditions that together suffice for the gain of sys to
    be diagonal. They are not necessary: A = [[1, 1], [-1, -2]] with
    Q = diag(2, 5), R = diag(1/4, 1) fails (ii)-(iv), yet its gain is
    diag(4, 1).

    (i)   a1 and a_minus1 have opposite signs;
    (ii)  a0 and a2 have the same sign;
    (iii) q0/q2 equals -a0 a_minus1 / (a1 a2) within RATIO_TOL;
    (iv)  gamma0/gamma2 equals (a1/a_minus1)^2 * q0/q2 within RATIO_TOL.

    Returns (holds, verdicts): the conjunction, and one Verdict per
    condition in the order above, (iii) and (iv) witnessed by their ratio
    and its target, each of which must be finite (an InputError names it).
    """
    _require_nonzero_coupling(sys.a1, sys.a_minus1, sys.a2)
    state_ratio = sys.q0 / sys.q2
    input_ratio = sys.gamma0 / sys.gamma2
    try:
        state_target = -sys.a0 * sys.a_minus1 / (sys.a1 * sys.a2)
    except ZeroDivisionError:  # a1 * a2 underflows to 0, where float arithmetic gives inf
        state_target = math.inf
    try:
        input_target = (sys.a1 / sys.a_minus1) ** 2 * state_ratio
    except OverflowError:  # a float power raises where float arithmetic gives inf
        input_target = math.inf
    verdicts = [
        Verdict("opposite_offdiag_signs", sys.a1 * sys.a_minus1 < 0),
        Verdict("same_diag_signs", sys.a0 * sys.a2 > 0),
        Verdict("state_weight_ratio", approx_equal(state_ratio, state_target, RATIO_TOL),
                {"ratio": state_ratio, "target": state_target}),
        Verdict("input_weight_ratio", approx_equal(input_ratio, input_target, RATIO_TOL),
                {"ratio": input_ratio, "target": input_target}),
    ]
    for v in verdicts:
        for key, value in v.witness.items():
            if not math.isfinite(value):
                raise InputError(f"condition {v.name}: its {key} is not finite")
    return all(v.holds for v in verdicts), verdicts


def synthesize_diagonal_cost(a0, a1, a_minus1, a2, q2=1.0, gamma2=1.0):
    """Choose diagonal weights that make the gain of the given plant diagonal.

    Requires the sign pattern (a1, a_minus1 opposite; a0, a2 same); then
    q0 = q2 * (-a0 a_minus1)/(a1 a2) and gamma0 = gamma2 * (a1/a_minus1)^2
    * (q0/q2) are positive and satisfy diagonal_cost_conditions by
    construction.
    """
    a0, a1, a_minus1, a2 = (
        as_real(x, name) for x, name in zip((a0, a1, a_minus1, a2), ("a0", "a1", "a_minus1", "a2"))
    )
    _require_nonzero_coupling(a1, a_minus1, a2)
    q2 = as_positive_real(q2, "q2")
    gamma2 = as_positive_real(gamma2, "gamma2")
    if not (a1 * a_minus1 < 0 and a0 * a2 > 0):
        raise InputError(
            "preconditions fail, positivity of cost impossible: need opposite-sign "
            "coupling and same-sign self terms"
        )
    q0 = q2 * (-a0 * a_minus1) / (a1 * a2)
    gamma0 = gamma2 * (a1 / a_minus1) ** 2 * (q0 / q2)
    return DiagonalCost2x2(
        a0=a0, a1=a1, a_minus1=a_minus1, a2=a2,
        q0=q0, q2=q2, gamma0=gamma0, gamma2=gamma2,
    )


def _riccati_root(a, g, q):
    """Positive root p of 2 a p - g p^2 + q = 0 (g, q > 0), elementwise and
    free of cancellation: t/g for a > 0, else q/t, t = |a| + sqrt(a^2 + g q)
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, 1.8). Where
    a^2 + g q overflows (|a| above about 1.3e154), its root is taken as
    hypot(a, sqrt(g) sqrt(q)); every other root is the direct formula's. A
    t beyond the float range is inf, silently, so its root is inf or 0."""
    with np.errstate(over="ignore"):
        s = np.sqrt(a * a + g * q)
        big = np.isinf(s)
        if np.count_nonzero(big):
            s = np.where(big, np.hypot(a, np.sqrt(g) * np.sqrt(q)), s)
        t = np.abs(a) + s
        return np.where(a > 0, t / g, q / t)


def diagonal_riccati_roots(sys):
    """Diagonal entries (p0, p2) of the Riccati solution for a conforming sys.

    p2 is the positive root of 2 a2 p - gamma2 p^2 + q2 = 0 and
    p0 = -a_minus1 p2 / a1; both are strictly positive when
    diagonal_cost_conditions holds (required).
    """
    holds, verdicts = diagonal_cost_conditions(sys)
    if not holds:
        failed = [v.name for v in verdicts if not v.holds]
        raise InputError(f"conditions do not hold (failed: {', '.join(failed)})")
    p2 = float(_riccati_root(sys.a2, sys.gamma2, sys.q2))
    p0 = -sys.a_minus1 * p2 / sys.a1
    if p2 <= 0 or p0 <= 0:
        raise InputError("no positive root pair exists for these parameters")
    return p0, p2


# ---------------------------------------------------------------------------
# Circulant quadruples: uniform scalar gain
# ---------------------------------------------------------------------------

def frequency_singular(vals):
    """True when an eigenvalue sequence has an entry within 1e-12 of zero,
    relative to its largest magnitude (at least 1). The uniform-gain search
    rejects a frequency-singular b or r. A singular B makes the optimal gain
    K = R^-1 B' P singular, so K = c I would need B = 0."""
    return np.min(np.abs(vals)) <= 1e-12 * max(1.0, float(np.max(np.abs(vals))))


def _frequency_data(a, b, q, r):
    ah, bh, qh, rh = circulant_eigenvalues(a, b, q, r)
    for name, vals in (("b", bh), ("r", rh)):
        if frequency_singular(vals):
            raise InputError(
                f"frequency-singular: an eigenvalue of '{name}' vanishes"
            )
    for name, spec, vals in (("q", q, qh), ("r", r, rh)):
        row = spec.first_row
        odd = row - np.roll(row[::-1], 1)
        if _fro(odd[None]) > 1e-10 * max(1.0, _fro(row[None])):
            raise InputError(f"'{name}' must be symmetric (first row even)")
        if np.min(vals.real) <= 0:
            raise InputError(f"'{name}' must be positive definite")
    return ah, bh, qh.real, rh.real


def uniform_gain_candidates(a, b, q, r):
    """Per-frequency optimal gains K(k) of a circulant quadruple.

    K(k) = conj(b(k)) p / r(k), where p > 0 is the stabilizing root of the
    scalar Riccati equation 2 Re a(k) p - |b(k)|^2 p^2 / r(k) + q(k) = 0,
    taken without cancellation (_riccati_root). This is exact for complex
    a(k), b(k) (non-symmetric A and B); Q and R must be symmetric positive
    definite, so that q(k) and r(k) are real and positive.
    """
    ah, bh, qh, rh = _frequency_data(a, b, q, r)
    return np.conj(bh) * _riccati_root(ah.real, np.abs(bh) ** 2 / rh, qh) / rh


def find_uniform_gain(a, b, q, r):
    """Real constant c with gain K = c I for the circulant quadruple, if any.

    Returns K(0) when every per-frequency gain of uniform_gain_candidates has
    imaginary part within UNIFORM_GAIN_TOL and all agree within
    UNIFORM_GAIN_TOL * max(1, |K(0)|); returns None otherwise. No root
    polishing is attempted: presence vs absence is decided by these
    tolerances alone.
    """
    ch = uniform_gain_candidates(a, b, q, r)
    if np.max(np.abs(ch.imag)) > UNIFORM_GAIN_TOL:
        return None
    c0 = ch[0]
    if np.max(np.abs(ch - c0)) > UNIFORM_GAIN_TOL * max(1.0, abs(c0)):
        return None
    return float(c0.real)


def circulant_lqr_problem(a, b, q, r):
    """Materialize a circulant quadruple into an LqrProblem."""
    return LqrProblem(
        A=circulant_materialize(a),
        B=circulant_materialize(b),
        Q=circulant_materialize(q),
        R=circulant_materialize(r),
    )


def balance_ratio(v0, v1, name):
    """Relative difference in influence (v0 - v1)/(v0 + v1) of the 2x2
    circulant [[v0, v1], [v1, v0]]; InputError when v0 + v1 is zero. name
    labels the entries in that error ("a" for a0, a1)."""
    if v0 + v1 == 0.0:
        raise InputError(f"degenerate: {name}0 + {name}1 is zero")
    return (v0 - v1) / (v0 + v1)


def circulant_pair_conditions(a, b, q, r):
    """Balance test for 2x2 circulant quadruples.

    Each matrix [[v0, v1], [v1, v0]] maps a coordinate to itself with weight
    v0 and to the opposite coordinate with weight v1; (v0 - v1)/(v0 + v1) is
    its relative difference in influence. The test requires that difference to
    balance between A and B, and between Q and R:

        (a0 - a1)/(a0 + a1) == (b0 - b1)/(b0 + b1)  and
        (q0 - q1)/(q0 + q1) == (r0 - r1)/(r0 + r1),

    both within RATIO_TOL. Returns (holds, c) with c the shared scalar gain
    from find_uniform_gain when the balance holds (None when the per-frequency
    stabilizing branches fail to agree, which can happen when the eigenvalues
    of B differ in sign).
    """
    for name, spec in (("a", a), ("b", b), ("q", q), ("r", r)):
        if spec.n != 2:
            raise InputError(f"spec '{name}' must have size 2, got {spec.n}")
    ra, rb, rq, rr = (
        balance_ratio(*spec.first_row, name)
        for spec, name in ((a, "a"), (b, "b"), (q, "q"), (r, "r"))
    )
    dynamics_ok = approx_equal(ra, rb, RATIO_TOL)
    cost_ok = approx_equal(rq, rr, RATIO_TOL)
    holds = dynamics_ok and cost_ok
    c = find_uniform_gain(a, b, q, r) if holds else None
    return holds, c
