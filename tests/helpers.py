"""Shared random-instance generators for the test suite."""

import numpy as np

from declqr import CirculantSpec, UnstabilizableError, solve_care
from declqr.matcore import as_matrix


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix M'M + I."""
    M = rng.uniform(-scale, scale, (n, n))
    return M.T @ M + np.eye(n)


def is_stabilizable(A, B):
    """PBH test, independent of the solver's sign kernel: [A - lambda I, B]
    has rank n at every eigenvalue lambda of A with Re lambda >= 0, each rank
    by SVD (np.linalg.matrix_rank's default cut-off)."""
    n = len(A)
    return all(
        np.linalg.matrix_rank(np.hstack([A - lam * np.eye(n), B])) == n
        for lam in np.linalg.eigvals(A)
        if lam.real >= 0
    )


def random_stabilizable_dense(rng, max_n=8, entry_range=2.0):
    """Random (A, B, Q, R) with B of full column rank and (A, B) stabilizable
    by the PBH test (is_stabilizable); other draws are rejected."""
    while True:
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, n + 1))
        A = rng.uniform(-entry_range, entry_range, (n, n))
        B = rng.uniform(-entry_range, entry_range, (n, m))
        if np.linalg.matrix_rank(B) < m:
            continue
        Q = random_spd(rng, n)
        R = random_spd(rng, m)
        if is_stabilizable(A, B):
            return A, B, Q, R


def solved_random_instance(rng, max_n=8):
    """Random admissible instance together with its Riccati solution.

    Draws that the solver classifies as unstabilizable or ill-conditioned are
    resampled; every other failure propagates (a convergence failure on an
    admissible instance is a real bug).
    """
    while True:
        A, B, Q, R = random_stabilizable_dense(rng, max_n=max_n)
        try:
            return A, B, Q, R, solve_care(A, B, Q, R)
        except UnstabilizableError:
            continue


def symmetric_circulant_row(rng, n, lo=-1.0, hi=1.0):
    """Random first row with row[k] == row[n-k], so the matrix is symmetric."""
    row = rng.uniform(lo, hi, n)
    for k in range(1, n // 2 + 1):
        row[n - k] = row[k]
    return row


def eigenvalues_to_row(eigs):
    """First row of the circulant whose frequency-k eigenvalue is eigs[k]."""
    row = np.fft.fft(np.asarray(eigs, dtype=complex)) / len(eigs)
    return np.real(row)


def pd_symmetric_circulant_spec(rng, n, lo=0.2, hi=3.0):
    """Symmetric positive definite circulant via a positive even eigenvalue
    sequence."""
    eigs = rng.uniform(lo, hi, n)
    for k in range(1, n // 2 + 1):
        eigs[n - k] = eigs[k]
    return CirculantSpec(eigenvalues_to_row(eigs))


def uniform_gain_instance(rng, n):
    """Circulant quadruple built so the optimal gain is c I; returns
    (a, b, q, r, c).

    A is a random symmetric circulant, B and R are positive definite
    symmetric circulants, c sits above every a(k)/b(k) so the stabilizing
    branch recovers it, and Q's eigenvalues r(k) * (c^2 - 2 c a(k)/b(k)) are
    positive by construction.
    """
    a = CirculantSpec(symmetric_circulant_row(rng, n))
    b = pd_symmetric_circulant_spec(rng, n, lo=0.5, hi=2.5)
    r = pd_symmetric_circulant_spec(rng, n, lo=0.5, hi=2.5)
    ah = np.real(np.fft.ifft(a.first_row) * n)
    bh = np.real(np.fft.ifft(b.first_row) * n)
    rh = np.real(np.fft.ifft(r.first_row) * n)
    c = float(max(np.max(2.0 * ah / bh), np.max(ah / bh), 0.0) + rng.uniform(0.5, 2.0))
    qh = rh * (c * c - 2.0 * c * ah / bh)
    assert np.all(qh > 0)
    q = CirculantSpec(eigenvalues_to_row(qh))
    return a, b, q, r, c


def nonsymmetric_uniform_gain_instance(n=5):
    """Ring of n >= 3 sites with non-symmetric A (first row 0.3, 1, 0, ...,
    0, -0.2), B = R = I and q(k) = 16 - 8 Re a(k): the optimal gain is 4 I
    although a(k) is complex. Returns (a, b, q, r)."""
    row = np.zeros(n)
    row[0], row[1], row[-1] = 0.3, 1.0, -0.2
    ah = np.fft.ifft(row) * n
    q = CirculantSpec(eigenvalues_to_row(16.0 - 8.0 * ah.real))
    eye = CirculantSpec(np.eye(n)[0])
    return CirculantSpec(row), eye, q, eye


def is_circulant(M, tol=1e-12):
    """True when every row is the cyclic right-shift of the previous row,
    entrywise within absolute tolerance tol."""
    M = as_matrix(M, "M", square=True)
    for i in range(1, M.shape[0]):
        if np.max(np.abs(M[i] - np.roll(M[i - 1], 1))) > tol:
            return False
    return True


def forward_difference_operator(n, delta=1.0):
    """Forward-difference circulant with first row (1/delta) * [-1, 1, 0, ..., 0]."""
    row = np.zeros(n)
    row[0] = -1.0
    row[1] = 1.0
    return CirculantSpec(row / delta)
