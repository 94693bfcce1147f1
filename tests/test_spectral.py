import numpy as np
import pytest

from declqr import (
    CirculantSpec,
    InputError,
    circulant_eigenvalues,
    circulant_materialize,
    identity_spec,
)
from helpers import is_circulant, symmetric_circulant_row


class TestIdentitySpec:
    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_or_negative_size_is_refused(self, n):
        with pytest.raises(InputError) as info:
            identity_spec(n)
        assert str(info.value) == f"n must be at least 1, got {n}"


class TestCirculantMaterialize:
    def test_two_by_two_is_symmetric(self):
        M = circulant_materialize(CirculantSpec([3.0, -1.0]))
        assert np.array_equal(M, [[3.0, -1.0], [-1.0, 3.0]])

    def test_ring_second_difference(self):
        M = circulant_materialize(CirculantSpec([-2.0, 1.0, 0.0, 1.0]))
        expected = np.array(
            [
                [-2.0, 1.0, 0.0, 1.0],
                [1.0, -2.0, 1.0, 0.0],
                [0.0, 1.0, -2.0, 1.0],
                [1.0, 0.0, 1.0, -2.0],
            ]
        )
        assert np.array_equal(M, expected)

    def test_one_by_one(self):
        assert np.array_equal(circulant_materialize(CirculantSpec([5.0])), [[5.0]])

    def test_round_trip_is_circulant(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 9):
            spec = CirculantSpec(rng.uniform(-2, 2, n))
            assert is_circulant(circulant_materialize(spec))


class TestCirculantEigenvalues:
    def test_ring_second_difference_values(self):
        vals = circulant_eigenvalues(CirculantSpec([-2.0, 1.0, 0.0, 1.0]))
        assert np.allclose(vals, [0.0, -2.0, -4.0, -2.0], atol=1e-13)

    def test_identity_row(self):
        # The identity's first row is the unit impulse, n = 1 included.
        for n in (1, 4, 5):
            assert np.allclose(circulant_eigenvalues(identity_spec(n)), np.ones(n), atol=1e-15)

    def test_cyclic_shift_gives_roots_of_unity(self):
        vals = circulant_eigenvalues(CirculantSpec([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(np.abs(vals), 1.0, atol=1e-13)
        assert np.allclose(np.sort(vals**4), np.ones(4), atol=1e-12)

    def test_conjugate_symmetry_is_exact(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 8, 11):
            vals = circulant_eigenvalues(CirculantSpec(rng.uniform(-3, 3, n)))
            for k in range(1, n):
                assert vals[n - k] == np.conj(vals[k])

    def test_matches_fft_oracle(self):
        rng = np.random.default_rng(14)
        # A constant row puts everything in the DC bin.
        for row in [rng.uniform(-2, 2, n) for n in (2, 6, 13)] + [np.full(6, 1.7)]:
            n = row.size
            assert np.allclose(
                circulant_eigenvalues(CirculantSpec(row)),
                np.fft.ifft(row) * n,
                atol=1e-11,
            )

    def test_diagonalization(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 33))
            spec = CirculantSpec(rng.uniform(-2, 2, n))
            M = circulant_materialize(spec)
            F = np.fft.fft(np.eye(n)) / np.sqrt(n)
            D = F @ M @ np.conj(F.T)
            off = D - np.diag(np.diag(D))
            tol = 1e-10 * max(1.0, np.linalg.norm(M))
            assert np.max(np.abs(off)) <= tol
            assert np.allclose(np.diag(D), circulant_eigenvalues(spec), atol=tol)

    def test_product_closure(self):
        rng = np.random.default_rng(10)
        for n in (2, 4, 7):
            s1 = CirculantSpec(rng.uniform(-2, 2, n))
            s2 = CirculantSpec(rng.uniform(-2, 2, n))
            prod = circulant_materialize(s1) @ circulant_materialize(s2)
            assert is_circulant(prod, tol=1e-10)
            prod_vals = circulant_eigenvalues(CirculantSpec(prod[0]))
            expected = circulant_eigenvalues(s1) * circulant_eigenvalues(s2)
            assert np.allclose(prod_vals, expected, atol=1e-10 * max(1.0, np.max(np.abs(expected))))


class TestStackedEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 1024, 1031])
    def test_rows_are_bitwise_one_spec_calls(self, n):
        rng = np.random.default_rng(n)
        specs = [CirculantSpec(rng.uniform(-3, 3, n)) for _ in range(4)]
        stacked = circulant_eigenvalues(*specs)
        assert stacked.shape == (4, n)
        for row, spec in zip(stacked, specs):
            assert np.array_equal(row, circulant_eigenvalues(spec))

    def test_conjugate_symmetry_is_exact_in_a_stack(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 8, 11, 64):
            stacked = circulant_eigenvalues(*(CirculantSpec(rng.uniform(-3, 3, n)) for _ in range(3)))
            for k in range(1, n):
                assert np.array_equal(stacked[:, n - k], np.conj(stacked[:, k]))

    def test_matches_fft_at_large_n(self):
        # Exponents reduced mod n keep the error near rounding level; summing
        # exp(2 pi i j k / n) with j k unreduced drifts to about 5e-11 here.
        n = 4096
        row = np.random.default_rng(16).uniform(-1, 1, n)
        vals = circulant_eigenvalues(CirculantSpec(row))
        assert np.max(np.abs(vals - np.fft.ifft(row) * n)) <= 1e-12

    def test_no_specs_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            circulant_eigenvalues()

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InputError, match="share one size"):
            circulant_eigenvalues(identity_spec(3), identity_spec(4))


class TestIsCirculant:
    def test_symmetric_two_by_two(self):
        assert is_circulant([[1.0, 2.0], [2.0, 1.0]])

    def test_non_circulant(self):
        assert not is_circulant([[1.0, 2.0], [3.0, 1.0]])

    def test_diagonal_circulant_is_scalar_identity(self):
        # Rigidity: circulant + diagonal forces equal diagonal entries.
        assert is_circulant(np.diag([2.0, 2.0, 2.0]))
        assert not is_circulant(np.diag([1.0, 2.0, 2.0]))

    def test_tolerance(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]])
        assert not is_circulant(M, tol=1e-12)
        assert is_circulant(M, tol=1e-6)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            is_circulant(np.ones((2, 3)))


class TestSpecValidation:
    def test_empty_row_rejected(self):
        with pytest.raises(InputError):
            CirculantSpec([])

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            CirculantSpec([1.0, np.nan])

    @pytest.mark.parametrize(
        "row",
        [["x", 1.0], [[1.0, 2.0], [3.0]], [1.0 + 1.0j, 2.0], [1.0, True]],
        ids=["non-numeric", "ragged", "complex", "boolean"],
    )
    def test_non_real_row_rejected(self, row):
        with pytest.raises(InputError):
            CirculantSpec(row)

    def test_symmetric_row_helper(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 8):
            row = symmetric_circulant_row(rng, n)
            M = circulant_materialize(CirculantSpec(row))
            assert np.allclose(M, M.T, atol=1e-15)
