"""Checks of the program's outputs against computations made apart from it.

Riccati solutions are compared with scipy.linalg.solve_continuous_are, the
2x2 decentralization flags with the paper's sign and ratio conditions coded
here, and circulant uniform gains with the exact per-frequency Riccati
solution computed through numpy.fft. Nothing here imports declqr.

Every check returns None when the output is right and a one-line reason when
it is not.
"""

import csv
import io
import json
import math

import numpy as np
import scipy.linalg

# Riccati residual bound relative to max(1, ||Q||_F), as the solver promises.
RESIDUAL_TOL = 1e-8
# Agreement of P, K and h2 with scipy, relative to max(1, ||reference||).
AGREE_TOL = 1e-6
# Gain-pattern tolerance of the numeric oracle, relative to max(1, ||K||_F).
ORACLE_TOL = 1e-6
# Uniform-gain agreement across frequencies, relative to max(1, |c|).
GAIN_TOL = 1e-9
# Relative tolerance of the 2x2 weight-ratio identities.
RATIO_TOL = 1e-9


# ---------------------------------------------------------------------------
# Parsing the command line's text output
# ---------------------------------------------------------------------------

def parse_cli_text(text):
    """Split declqr's printed output into scalars and matrices.

    Lines "name: value" become scalars (strings); a line "name:" followed by
    indented rows of numbers becomes a matrix.
    """
    scalars, matrices = {}, {}
    current = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            matrices[current].append([float(v) for v in line.split()])
            continue
        current = None
        key, sep, value = line.partition(":")
        if not sep:
            continue
        if value.strip():
            scalars[key] = value.strip()
        else:
            current = key
            matrices[key] = []
    return scalars, {k: np.array(v) for k, v in matrices.items()}


def _rel_gap(X, Xref):
    return float(np.linalg.norm(X - Xref)) / max(1.0, float(np.linalg.norm(Xref)))


def care_reference(A, B, Q, R):
    """Stabilizing Riccati solution and gain from scipy."""
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    return P, np.linalg.solve(R, B.T @ P)


def pattern_ok(K, allowed, tol=ORACLE_TOL):
    """True when every entry of K outside the boolean mask `allowed` is
    within tol * max(1, ||K||_F)."""
    off = np.abs(K[~allowed])
    return bool(off.size == 0 or off.max() <= tol * max(1.0, float(np.linalg.norm(K))))


# ---------------------------------------------------------------------------
# dense: solve, check oracle, reduce
# ---------------------------------------------------------------------------

def check_solve(text, A, B, Q, R):
    """Output of `declqr solve`: residual, SPD P, Hurwitz closed loop, scipy."""
    _, mats = parse_cli_text(text)
    if "P" not in mats or "K" not in mats:
        return "solve printed no P or K"
    P, K = mats["P"], mats["K"]
    if P.shape != A.shape:
        return f"P has shape {P.shape}"
    residual = np.linalg.norm(A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q)
    if residual > RESIDUAL_TOL * max(1.0, np.linalg.norm(Q)):
        return f"Riccati residual {residual:.3e} over tolerance"
    try:
        np.linalg.cholesky((P + P.T) / 2.0)
    except np.linalg.LinAlgError:
        return "P is not positive definite"
    if np.max(np.linalg.eigvals(A - B @ K).real) >= 0.0:
        return "A - B K is not Hurwitz"
    P_ref, _ = care_reference(A, B, Q, R)
    gap = _rel_gap(P, P_ref)
    if gap > AGREE_TOL:
        return f"P differs from scipy by {gap:.3e}"
    return None


def check_oracle(text, A, B, Q, R, expect_decentralized=None):
    """Output of `declqr check oracle` on a one-input-per-state system.

    The verdict must match the gain pattern of scipy's solution and, for
    instances built to have a diagonal optimum, must be true.
    """
    scalars, mats = parse_cli_text(text)
    verdict = scalars.get("oracle decentralized")
    if verdict not in ("true", "false") or "K" not in mats:
        return "oracle printed no verdict or K"
    _, K_ref = care_reference(A, B, Q, R)
    gap = _rel_gap(mats["K"], K_ref)
    if gap > AGREE_TOL:
        return f"K differs from scipy by {gap:.3e}"
    expected = pattern_ok(K_ref, np.eye(len(A), dtype=bool))
    if expect_decentralized is not None and expected != expect_decentralized:
        return "instance does not have the optimum it was built with"
    if (verdict == "true") != expected:
        return f"oracle verdict {verdict}, scipy gain says {str(expected).lower()}"
    return None


def check_reduce(text, A1, A2, B0, Q0, Q2, R0, expect_decentralized=None):
    """Output of `declqr reduce`: both reduced gain blocks and the full gain
    against scipy, and the position/velocity pattern verdict."""
    scalars, mats = parse_cli_text(text)
    verdict = scalars.get("oracle decentralized")
    if verdict not in ("true", "false"):
        return "reduce printed no verdict"
    n = len(A1)
    P1, gain_pos = care_reference(A1, B0, Q0, R0)
    _, gain_vel = care_reference(A2, B0, Q2 + P1 + P1.T, R0)
    zero = np.zeros((n, n))
    A = np.block([[zero, np.eye(n)], [A1, A2]])
    B = np.vstack([zero, B0])
    Q = np.block([[Q0, zero], [zero, Q2]])
    _, K_ref = care_reference(A, B, Q, R0)
    for name, ref in (("gain_pos", gain_pos), ("gain_vel", gain_vel), ("K", K_ref)):
        if name not in mats:
            return f"reduce printed no {name}"
        gap = _rel_gap(mats[name], ref)
        if gap > AGREE_TOL:
            return f"{name} differs from scipy by {gap:.3e}"
    allowed = np.hstack([np.eye(n, dtype=bool), np.eye(n, dtype=bool)])
    expected = pattern_ok(K_ref, allowed)
    if expect_decentralized is not None and expected != expect_decentralized:
        return "instance does not have the optimum it was built with"
    if (verdict == "true") != expected:
        return f"reduce verdict {verdict}, scipy gain says {str(expected).lower()}"
    return None


# ---------------------------------------------------------------------------
# sweep: 2x2 plants with B = I and diagonal weights
# ---------------------------------------------------------------------------

def paper_2x2_decentralized(A, q0, q2, gamma0, gamma2):
    """The paper's conditions for a diagonal LQR gain of a 2x2 plant with
    B = I, Q = diag(q0, q2), R = diag(1/gamma0, 1/gamma2): opposite-sign
    coupling, same-sign self terms, q0/q2 = -a0 a_-1/(a1 a2) and
    gamma0/gamma2 = (a1/a_-1)^2 q0/q2."""
    (a0, a1), (am1, a2) = A
    if a1 * am1 >= 0 or a0 * a2 <= 0:
        return False

    def close(u, v):
        return abs(u - v) <= RATIO_TOL * max(1.0, abs(u), abs(v))

    state = q0 / q2
    return close(state, -a0 * am1 / (a1 * a2)) and close(gamma0 / gamma2, (a1 / am1) ** 2 * state)


def sweep_point(kind, x1, x2):
    """Plant and weights of one grid point: (A, q0, q2, gamma0, gamma2)."""
    if kind == "qr":
        return np.array([[1.0, 1.0], [-1.0, 1.0]]), x1, 1.0, 1.0, 1.0 / x2
    return np.array([[1.0, 1.0], [-1.0, x2]]), x1, 1.0, 1.0, 1.0 / x1


def _check_point(kind, x1, x2, h2, flag):
    A, q0, q2, g0, g2 = sweep_point(kind, x1, x2)
    P, _ = care_reference(A, np.eye(2), np.diag([q0, q2]), np.diag([1.0 / g0, 1.0 / g2]))
    h2_ref = float(np.sqrt(np.trace(P)))
    if abs(h2 - h2_ref) > AGREE_TOL * max(1.0, h2_ref):
        return f"h2 {h2!r} at ({x1!r}, {x2!r}) differs from scipy {h2_ref!r}"
    if flag != paper_2x2_decentralized(A, q0, q2, g0, g2):
        return f"decentralized flag {flag} at ({x1!r}, {x2!r}) contradicts the 2x2 conditions"
    return None


def check_sweep(kind, points, csv_bytes, sidecar_bytes):
    """CSV and sidecar of one sweep: every grid point in order, h2 against
    scipy, flags against the 2x2 conditions, and (qa) every curve sample on
    the decentralization locus."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    if len(rows) != len(points):
        return f"{len(rows)} CSV rows for {len(points)} grid points"
    for row, (x1, x2) in zip(rows, points):
        if row["status"] != "ok":
            return f"grid point ({x1!r}, {x2!r}) failed: {row['status']}"
        if not (math.isclose(float(row["axis1"]), x1, rel_tol=1e-12)
                and math.isclose(float(row["axis2"]), x2, rel_tol=1e-12)):
            return f"CSV row ({row['axis1']}, {row['axis2']}) is not grid point ({x1!r}, {x2!r})"
        reason = _check_point(kind, x1, x2, float(row["h2"]), row["decentralized"] == "1")
        if reason:
            return reason
    sidecar = json.loads(sidecar_bytes)
    if kind == "qa":
        if not sidecar["curve"] or sidecar["curve_excluded"]:
            return "locus curve is empty or has exclusions"
        for s in sidecar["curve"]:
            if not s["decentralized"]:
                return f"curve sample a2={s['a2']!r} is not decentralized"
            reason = _check_point(kind, s["q0"], s["a2"], s["h2"], True)
            if reason:
                return "curve: " + reason
    return None


# ---------------------------------------------------------------------------
# ring: circulant quadruples
# ---------------------------------------------------------------------------

def circulant_symbol(row):
    """Eigenvalue sequence m(k) = sum_j row[j] exp(+2 pi i j k / n)."""
    row = np.asarray(row, dtype=float)
    return np.fft.ifft(row) * row.size


def exact_frequency_gains(a_row, b_row, q_row, r_row):
    """Gain symbol K(k) of the circulant LQR problem, frequency by frequency.

    With Q and R symmetric, q(k) and r(k) are real and the scalar Riccati
    equation 2 Re a(k) p - |b(k)|^2 p^2 / r(k) + q(k) = 0 has the stabilizing
    root p(k) > 0; the gain is K(k) = conj(b(k)) p(k) / r(k). This holds for
    complex a(k), b(k), that is, for non-symmetric A and B.
    """
    ah, bh = circulant_symbol(a_row), circulant_symbol(b_row)
    qh, rh = circulant_symbol(q_row).real, circulant_symbol(r_row).real
    b2 = np.abs(bh) ** 2
    p = rh * (ah.real + np.sqrt(ah.real ** 2 + b2 * qh / rh)) / b2
    return np.conj(bh) * p / rh


def exact_uniform_gain(gains, tol=GAIN_TOL):
    """Real c with K(k) = c at every frequency, or None."""
    c0 = gains[0]
    if np.max(np.abs(gains - c0)) > tol * max(1.0, abs(c0)):
        return None
    return float(c0.real)


def check_ring(returned, exact):
    """find_uniform_gain's answer against the exact uniform gain (or None)."""
    if exact is None:
        return None if returned is None else f"returned c={returned!r} where no uniform gain exists"
    if returned is None:
        return f"returned None where K = {exact!r} I"
    if abs(returned - exact) > GAIN_TOL * max(1.0, abs(exact)):
        return f"returned c={returned!r}, exact c={exact!r}"
    return None
