"""Tests for the dense-matrix layer: products, SVD, pseudoinverse, min-norm solve.

Expected values are checked against independent oracles implemented
here with different algorithms: a naive triple loop for products,
Gauss-Jordan elimination for inverses, and the normal equations for
full-column-rank pseudoinverses.
"""

import numpy as np
import pytest

from elmkit.linalg import (
    LinalgError,
    SvdFactors,
    as_matrix,
    min_norm_lstsq,
    pseudoinverse,
    svd,
)


# ---------------------------------------------------------------------------
# Oracles (deliberately naive, independent code paths)
# ---------------------------------------------------------------------------

def gauss_jordan_inverse(a):
    """Invert a square matrix by Gauss-Jordan elimination with partial pivoting."""
    n = a.shape[0]
    aug = np.hstack([a.astype(float).copy(), np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if abs(aug[pivot, col]) < 1e-12:
            raise ValueError("singular matrix in oracle")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def normal_equations_pinv(a):
    """(A^T A)^{-1} A^T for full-column-rank A, via the Gauss-Jordan oracle."""
    return gauss_jordan_inverse(a.T @ a) @ a.T


def rank_deficient(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


# ---------------------------------------------------------------------------
# as_matrix
# ---------------------------------------------------------------------------

class TestAsMatrix:
    def test_accepts_lists(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(LinalgError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(LinalgError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(LinalgError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(LinalgError):
            as_matrix([[np.inf], [0.0]])


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

class TestSvd:
    def test_identity_singular_values(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.singular_values, np.ones(3), atol=1e-14)

    def test_diagonal_absolute_values_sorted(self):
        f = svd(np.array([[3.0, 0.0], [0.0, -4.0]]))
        np.testing.assert_allclose(f.singular_values, [4.0, 3.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        a = rng.standard_normal((6, 4))
        u, s, v = svd(a)
        recon = u @ np.diag(s) @ v.T
        rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
        assert rel < 1e-10
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)

    def test_thin_shapes_wide_input(self, rng):
        a = rng.standard_normal((3, 8))
        u, s, v = svd(a)
        assert u.shape == (3, 3)
        assert s.shape == (3,)
        assert v.shape == (8, 3)

    def test_singular_values_non_increasing_non_negative(self, rng):
        for _ in range(10):
            a = rng.standard_normal((7, 5))
            s = svd(a).singular_values
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 0)

    def test_sign_convention(self, rng):
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            u = svd(a).u
            for col in range(u.shape[1]):
                column = u[:, col]
                leading = column[np.nonzero(column)[0][0]]
                assert leading >= 0

    def test_bit_identical_repeats(self, rng):
        a = rng.standard_normal((9, 4))
        f1 = svd(a)
        f2 = svd(a)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.singular_values.tobytes() == f2.singular_values.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_returns_named_factors(self, rng):
        f = svd(rng.standard_normal((4, 4)))
        assert isinstance(f, SvdFactors)


# ---------------------------------------------------------------------------
# pseudoinverse
# ---------------------------------------------------------------------------

class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_all_zeros_convention(self):
        out = pseudoinverse(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_column_of_ones(self):
        out = pseudoinverse(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-14)

    def test_matches_normal_equations_oracle(self, rng):
        a = rng.standard_normal((8, 3))
        np.testing.assert_allclose(pseudoinverse(a), normal_equations_pinv(a), atol=1e-10)

    def test_matches_gauss_jordan_inverse(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
            p = pseudoinverse(a)
            inv = gauss_jordan_inverse(a)
            rel = np.linalg.norm(p - inv) / np.linalg.norm(inv)
            assert rel < 1e-8

    def penrose_errors(self, a, p):
        scale = max(1.0, np.linalg.norm(a))
        return (
            np.linalg.norm(a @ p @ a - a) / scale,
            np.linalg.norm(p @ a @ p - p) / scale,
            np.linalg.norm((a @ p).T - a @ p) / scale,
            np.linalg.norm((p @ a).T - p @ a) / scale,
        )

    def test_penrose_conditions_random(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 20))
            cols = int(rng.integers(1, 20))
            a = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-2, 3)
            p = pseudoinverse(a)
            assert max(self.penrose_errors(a, p)) < 1e-8

    def test_penrose_conditions_rank_deficient(self, rng):
        for _ in range(20):
            rank = int(rng.integers(1, 4))
            a = rank_deficient(rng, 12, 9, rank)
            p = pseudoinverse(a)
            assert max(self.penrose_errors(a, p)) < 1e-8

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(LinalgError):
            pseudoinverse(np.eye(2), rank_tol=-1.0)


# ---------------------------------------------------------------------------
# min_norm_lstsq
# ---------------------------------------------------------------------------

class TestMinNormLstsq:
    def test_identity_system(self):
        out = min_norm_lstsq(np.eye(2), [[1.0], [2.0]])
        np.testing.assert_allclose(out, [[1.0], [2.0]], atol=1e-14)

    def test_underdetermined_line(self):
        # x + y = 2: the minimum-norm point on the line is (1, 1).
        out = min_norm_lstsq(np.array([[1.0, 1.0]]), [[2.0]])
        np.testing.assert_allclose(out, [[1.0], [1.0]], atol=1e-12)

    def test_solution_lies_in_row_space(self, rng):
        a = rng.standard_normal((3, 7))
        y = rng.standard_normal((3, 1))
        x = min_norm_lstsq(a, y)
        # Project x onto the row space of a; minimum-norm solutions have
        # no component outside it.
        q = svd(a).v  # orthonormal basis of the row space (rank 3)
        projected = q @ (q.T @ x)
        np.testing.assert_allclose(x, projected, atol=1e-10)

    def test_consistent_system_residual_and_norm(self, rng):
        a = rng.standard_normal((10, 4))
        x_true = rng.standard_normal((4, 2))
        y = a @ x_true
        x = min_norm_lstsq(a, y)
        assert np.linalg.norm(a @ x - y) < 1e-9
        # Any null-space perturbation must not reduce the norm; with full
        # column rank the null space is trivial, so build a wide system too.
        wide = rng.standard_normal((4, 10))
        yw = wide @ rng.standard_normal((10, 1))
        xw = min_norm_lstsq(wide, yw)
        u, s, v = svd(wide)
        null_basis = _null_space_basis(wide)
        for _ in range(20):
            coeffs = rng.standard_normal((null_basis.shape[1], 1))
            alt = xw + null_basis @ coeffs
            assert np.linalg.norm(wide @ alt - yw) < 1e-8
            assert np.linalg.norm(xw) <= np.linalg.norm(alt) + 1e-12

    def test_residual_not_beaten_by_random_candidates(self, rng):
        a = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 3))
        x = min_norm_lstsq(a, y)
        best = np.linalg.norm(a @ x - y)
        for _ in range(100):
            beta = rng.standard_normal((5, 3))
            assert best <= np.linalg.norm(a @ beta - y) + 1e-8

    def test_bit_identical_repeats(self, rng):
        a = rank_deficient(rng, 8, 6, 3)
        y = rng.standard_normal((8, 2))
        x1 = min_norm_lstsq(a, y)
        x2 = min_norm_lstsq(a, y)
        assert x1.tobytes() == x2.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(LinalgError, match="dimension mismatch"):
            min_norm_lstsq(np.ones((3, 2)), np.ones((4, 1)))


def _null_space_basis(a):
    """Orthonormal basis of the right null space, from the full SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T
