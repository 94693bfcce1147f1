"""Circulant matrices and their eigenvalue sequences.

A circulant matrix is fixed by its first row; row j is the first row cyclically
shifted right by j entries. The DFT diagonalizes every circulant, and the
diagonal is the eigenvalue sequence indexed by spatial frequency
kappa = 0..n-1. circulant_eigenvalues is the only transform. It takes one spec
or a stack of specs of one size and sums directly against one shared table of
n-th roots of unity: O(n^2) time per spec and O(n) working memory per spec,
with no n x n matrix built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matcore import as_count, as_real_array

# Most sites of a ring that identity_spec or models.diffusion_operator builds.
MAX_RING_SIZE = 10 ** 7


@dataclass
class CirculantSpec:
    """A circulant matrix, stored as its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        row = as_real_array(self.first_row, "first_row")
        if row.ndim != 1 or row.size < 1:
            raise InputError("first_row must be a nonempty 1-D sequence")
        self.first_row = row

    @property
    def n(self):
        return self.first_row.size


def _ring_size(n):
    """n read by as_count, refused above MAX_RING_SIZE before any allocation."""
    n = as_count(n, "n")
    if n > MAX_RING_SIZE:
        raise InputError(f"n must be at most {MAX_RING_SIZE}, got {n}")
    return n


def identity_spec(n):
    """CirculantSpec of the n x n identity, 1 <= n <= MAX_RING_SIZE."""
    n = _ring_size(n)
    if n < 1:
        raise InputError(f"n must be at least 1, got {n}")
    return CirculantSpec(np.eye(1, n)[0])


def circulant_materialize(spec):
    """Dense n x n matrix of a CirculantSpec: M[i, j] = first_row[(j - i) mod n]."""
    row = spec.first_row
    n = row.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return row[idx]


def circulant_eigenvalues(*specs):
    """Eigenvalue sequence m(kappa) = sum_j row[j] exp(+2 pi i j kappa / n).

    Ordered by frequency kappa = 0..n-1, matching the diagonal of F M F^{-1}.
    One spec gives an (n,) sequence; s specs of one size n give an (s, n)
    array, one row per spec, and InputError is raised for no specs or for
    mixed sizes.

    The sums read one table of the n-th roots of unity exp(2 pi i m / n),
    m = 0..n-1: frequency kappa gathers roots[(j kappa) mod n], reduced in
    exact integer arithmetic, so no exponent grows with j kappa. Each row is
    reduced against that vector by np.add.reduce along its last axis, which
    sums pairwise, so every row of a stack is bitwise its one-spec sequence;
    the working memory is O(n) per spec and frequency. The upper half is
    filled by conjugation and the kappa = n/2 bin is summed in real
    arithmetic, so values[n - k] == conj(values[k]) holds exactly. Against
    np.fft.ifft(row) * n the error stays near rounding level: about 5e-14
    at n = 4096 for entries in [-1, 1]. An eigenvalue beyond the float range
    (finite entries can sum past it) is an InputError naming the spec.
    """
    if not specs:
        raise InputError("circulant_eigenvalues needs at least one CirculantSpec")
    n = specs[0].n
    if any(spec.n != n for spec in specs):
        raise InputError(
            "circulant specs must share one size, got sizes "
            + ", ".join(str(spec.n) for spec in specs)
        )
    rows = np.stack([spec.first_row for spec in specs])
    # Cast once here rather than inside every frequency's product.
    complex_rows = rows.astype(complex)
    j = np.arange(n)
    roots = np.exp(2j * np.pi * j / n)
    vals = np.empty(rows.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        for k in range(n // 2 + 1):
            if 2 * k == n:
                # Self-conjugate frequency: the value is sum_j row[j] (-1)^j,
                # computed in real arithmetic so it is exactly real.
                vals[:, k] = np.add.reduce(rows * np.where(j % 2 == 0, 1.0, -1.0), axis=-1)
            else:
                vals[:, k] = np.add.reduce(complex_rows * roots[j * k % n], axis=-1)
            if 0 < k < n - k:
                vals[:, n - k] = np.conj(vals[:, k])
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=-1))
    if bad.size:
        where = f" (spec {bad[0] + 1} of {len(specs)})" if len(specs) > 1 else ""
        raise InputError(f"circulant eigenvalues leave the float range{where}")
    return vals[0] if len(specs) == 1 else vals
