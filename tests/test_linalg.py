"""Tests for the dense-matrix layer: products, pseudoinverse, min-norm solve.

Expected values are checked against independent oracles implemented
here with different algorithms: a naive triple loop for products,
Gauss-Jordan elimination for inverses, and the normal equations for
full-column-rank pseudoinverses.
"""

import ctypes
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elmkit.data import (
    SplitSpec,
    fit_scaling,
    generate_synthetic,
    littleport_like_config,
    scale_features,
    stratified_split,
)
from elmkit import linalg
from elmkit.elm import ElmConfig, _init_random_layer, build_hidden_matrix, encode_targets
from elmkit.linalg import (
    as_matrix,
    min_norm_lstsq,
    pseudoinverse,
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
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dimensions must be at least 1x1"):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError, match="entries must be finite"):
            as_matrix([[np.inf], [0.0]])
        with pytest.raises(ValueError, match="entries must be finite"):
            as_matrix([[0.0, 2.0], [-np.inf, 1.0]])

    def test_checks_finiteness_without_a_copy(self):
        """A fit's hidden matrix passes through here: no matrix-sized temporary."""
        a = np.ones((1000, 100))
        tracemalloc.start()
        try:
            as_matrix(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.size // 10


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

    def test_convergence_failure_raises_svd_convergence_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(ValueError, match="did not converge for 3x5 input"):
            pseudoinverse(np.ones((3, 5)))

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
        q = np.linalg.svd(a, full_matrices=False)[2].T  # orthonormal basis of the row space (rank 3)
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
        with pytest.raises(ValueError, match="dimension mismatch"):
            min_norm_lstsq(np.ones((3, 2)), np.ones((4, 1)))


# ---------------------------------------------------------------------------
# min_norm_lstsq against the SVD pseudoinverse reference
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def lstsq_tolerance(a, y, ref):
    """Relative error bound 10 * (cond + cond**2 * ||r|| / (||a||_2 * ||ref||)) * eps.

    The least-squares perturbation bound (Wedin, BIT 1973; Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 20) for two
    backward-stable solves: cond is the ratio of the largest singular
    value to the smallest one kept by the 1e-10 cutoff, and r = y - a @ ref
    is the residual.  A consistent system (r = 0) leaves 10 * cond * eps.
    """
    s = np.linalg.svd(a, compute_uv=False)
    kept = s[s > 1e-10 * s[0]]
    cond = kept[0] / kept[-1]
    residual = np.linalg.norm(y - a @ ref) / (s[0] * np.linalg.norm(ref))
    return 10.0 * (cond + cond ** 2 * residual) * EPS


def assert_matches_pseudoinverse(a, y):
    """min_norm_lstsq(a, y) equals pseudoinverse(a) @ y within :func:`lstsq_tolerance`."""
    x = min_norm_lstsq(a, y)
    # the in-place solve of a Fortran-ordered copy gives the same bits
    in_place = min_norm_lstsq(a.copy(order="F"), y, overwrite_a=True)
    assert in_place.tobytes() == x.tobytes()
    ref = pseudoinverse(a) @ y
    err, tolerance = np.linalg.norm(x - ref) / np.linalg.norm(ref), lstsq_tolerance(a, y, ref)
    assert err <= tolerance, (err, tolerance)
    return x


class TestMinNormLstsqMatchesPseudoinverse:
    @pytest.mark.parametrize("shape", [(30, 8), (8, 30), (15, 15), (200, 60)])
    def test_well_conditioned(self, rng, shape):
        a = rng.standard_normal(shape)
        y = rng.standard_normal((shape[0], 3))
        assert_matches_pseudoinverse(a, y)

    def test_ill_conditioned_hidden_matrices(self):
        train, _ = stratified_split(generate_synthetic(littleport_like_config()),
                                    SplitSpec(seed=42))
        features = scale_features(train.features, fit_scaling(train))
        targets = encode_targets(train.labels, train.n_classes)
        for width in (25, 100, 300, 450):
            weights, biases = _init_random_layer(6, ElmConfig(hidden_nodes=width))
            hidden = build_hidden_matrix(features, weights, biases)
            assert_matches_pseudoinverse(hidden, targets)

    def test_rank_deficient(self, rng):
        a = rank_deficient(rng, 14, 9, 3)
        y = rng.standard_normal((14, 2))
        assert_matches_pseudoinverse(a, y)

    def test_all_zero_matrix_gives_zero_solution(self, rng):
        y = rng.standard_normal((5, 2))
        out = min_norm_lstsq(np.zeros((5, 3)), y)
        assert out.shape == (3, 2)
        assert not out.any()

    def test_cuts_the_same_singular_values(self, rng, magnitude=1.0):
        """One singular value just above 1e-10 * s_max is kept, one just below is cut."""
        u, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        s = magnitude * np.array([1.0, 0.25, 1.2e-10, 0.8e-10, 1e-14])
        a = u @ np.diag(s) @ v.T
        y = rng.standard_normal((20, 2))
        x = assert_matches_pseudoinverse(a, y)

        def truncated(rank):
            return v[:, :rank] @ ((u[:, :rank].T @ y) / s[:rank, None])

        scale = np.linalg.norm(truncated(3))
        assert np.linalg.norm(x - truncated(3)) <= lstsq_tolerance(a, y, truncated(3)) * scale
        assert np.linalg.norm(x - truncated(4)) > 0.1 * scale
        assert np.linalg.norm(x - truncated(2)) > 0.1 * scale

    @pytest.mark.parametrize("magnitude", [1e-6, 1e6])
    def test_cutoff_is_relative_to_the_largest_singular_value(self, rng, magnitude):
        """Scaling the matrix keeps and cuts the same singular values."""
        self.test_cuts_the_same_singular_values(rng, magnitude)


# ---------------------------------------------------------------------------
# The same cases without the bundled OpenBLAS: the np.linalg.lstsq route
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("lstsq_route")
class TestMinNormLstsqWithoutOpenblas(TestMinNormLstsq):
    """Every case of :class:`TestMinNormLstsq` on the np.linalg.lstsq route."""


@pytest.mark.usefixtures("lstsq_route")
class TestMinNormLstsqMatchesPseudoinverseWithoutOpenblas(TestMinNormLstsqMatchesPseudoinverse):
    """Every case of :class:`TestMinNormLstsqMatchesPseudoinverse` on the np.linalg.lstsq route."""


# ---------------------------------------------------------------------------
# min_norm_lstsq: its two routes against np.linalg.lstsq
# ---------------------------------------------------------------------------

def _training_systems(widths=(25, 300, 450)):
    """Hidden matrices and targets the size of the bundled training split."""
    train, _ = stratified_split(generate_synthetic(littleport_like_config()),
                                SplitSpec(seed=42))
    features = scale_features(train.features, fit_scaling(train))
    targets = encode_targets(train.labels, train.n_classes)
    for width in widths:
        weights, biases = _init_random_layer(6, ElmConfig(hidden_nodes=width))
        yield build_hidden_matrix(features, weights, biases), targets


def test_bundled_openblas_is_found():
    """A wheel that ships OpenBLAS must yield its routines, or every test
    taking ``blas`` skips and every fit quietly goes to np.linalg.lstsq."""
    package = Path(np.__file__).parent
    bundled = sorted([*package.with_name(package.name + ".libs").glob("*openblas*"),
                      *(package / ".dylibs").glob("*openblas*")])
    if not bundled:
        pytest.skip("this numpy ships no OpenBLAS library")
    if linalg._openblas() is None:
        lacking = []
        for path in bundled:
            try:
                lib = ctypes.CDLL(str(path))
            except OSError as exc:
                lacking.append(f"{path.name} does not load: {exc}")
                continue
            for names in linalg._OPENBLAS_SYMBOLS:
                missing = [name for name in names if not hasattr(lib, name)]
                lacking.append(f"{path.name} lacks {', '.join(missing)} of the set from {names[0]}")
        pytest.fail("no symbol set of linalg matches: " + "; ".join(lacking))


class TestDirectGelsd:
    def test_bit_identical_to_numpy_lstsq_on_training_sized_systems(self):
        """A wide system goes to np.linalg.lstsq through the public solve."""
        for hidden, targets in _training_systems():
            rows = hidden.shape[1] - 5
            wide = min_norm_lstsq(hidden[:rows], targets[:rows])
            assert wide.tobytes() == np.linalg.lstsq(hidden[:rows], targets[:rows],
                                                     rcond=1e-10)[0].tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged_without_overwrite_a(self, rng, order):
        a = np.array(rng.standard_normal((40, 12)), order=order)
        before = a.copy(order="K")
        min_norm_lstsq(a, rng.standard_normal((40, 2)))
        assert a.tobytes(order="A") == before.tobytes(order="A")

    def test_overwrite_a_factorises_a_fortran_input_in_place(self, rng, blas):
        a = np.asfortranarray(rng.standard_normal((40, 12)))
        original = a.copy(order="F")
        y = rng.standard_normal((40, 2))
        want = min_norm_lstsq(a, y)
        got = min_norm_lstsq(a, y, overwrite_a=True)
        assert got.tobytes() == want.tobytes()
        # no copy was made: the QR factors now sit in a
        assert not np.array_equal(a, original)

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_c_ordered_input_with_overwrite_a_is_solved(self, rng, shape):
        a = np.ascontiguousarray(rng.standard_normal(shape))
        before = a.copy()
        y = rng.standard_normal((shape[0], 3))
        got = min_norm_lstsq(a, y, overwrite_a=True)
        # a C-ordered matrix is copied, never factorised in place
        assert np.array_equal(a, before)
        if shape[0] < shape[1]:  # wide: np.linalg.lstsq itself
            assert got.tobytes() == np.linalg.lstsq(a, y, rcond=1e-10)[0].tobytes()
        else:
            assert got.tobytes() == min_norm_lstsq(np.asfortranarray(a), y).tobytes()
            assert_matches_pseudoinverse(a, y)

    def test_fallback_without_bundled_openblas_agrees_within_tolerance(self, monkeypatch):
        systems = list(_training_systems(widths=(25, 300)))
        direct = [min_norm_lstsq(a, y) for a, y in systems]
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        for (a, y), qr in zip(systems, direct):
            x = assert_matches_pseudoinverse(a, y)
            s = np.linalg.svd(a, compute_uv=False)
            err = np.linalg.norm(x - qr) / np.linalg.norm(x)
            assert err <= 10.0 * (s[0] / s[-1]) * EPS, err

    def test_convergence_failure_raises_svd_convergence_error(self, monkeypatch, blas):
        """A wide input reaches np.linalg.lstsq directly, a rank-one tall one through R."""
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        for rows, cols in [(3, 5), (5, 3)]:
            with pytest.raises(ValueError,
                               match=f"did not converge for .*{rows}x{cols} input"):
                min_norm_lstsq(np.ones((rows, cols)), np.ones((rows, 1)))


# ---------------------------------------------------------------------------
# min_norm_lstsq: the QR route and its fallback to np.linalg.lstsq
# ---------------------------------------------------------------------------

@pytest.fixture
def gelsd_calls(blas, monkeypatch):
    """Shapes of the matrices np.linalg.lstsq (gelsd) is called on, in call order."""
    calls, lstsq = [], linalg._lstsq

    def spy(a, *args):
        calls.append(a.shape)
        return lstsq(a, *args)

    monkeypatch.setattr(linalg, "_lstsq", spy)
    return calls


class TestQrRoute:
    def test_training_sized_systems_take_the_qr_route(self, gelsd_calls):
        """dgeqrt works in blocks of nb = min(32, n) columns: widths 1 and 31
        are one block of n, 33 is a block and a column, 450 the sweep's
        widest fit, and width 3 has more targets (7) than columns, so
        dgemqrt's workspace is sized by the targets."""
        for hidden, targets in _training_systems(widths=(1, 3, 25, 31, 32, 33, 100, 300, 450)):
            assert_matches_pseudoinverse(hidden, targets)
        assert gelsd_calls == []

    def test_fewer_than_twice_as_many_rows_as_columns(self, blas, gelsd_calls, monkeypatch):
        """At m < 2n, R^-1 goes to its own n x n array, not below R."""
        [(hidden, targets)] = _training_systems(widths=(300,))
        a, y = hidden[::5], targets[::5]
        assert a.shape == (540, 300)
        inv_ld = []

        def dlacpy(*args):
            inv_ld.append(args[6]._obj.value)
            blas.dlacpy(*args)

        monkeypatch.setattr(linalg, "_openblas", lambda: blas._replace(dlacpy=dlacpy))
        assert_matches_pseudoinverse(a, y)
        assert inv_ld == [300, 300] and gelsd_calls == []

    def test_graded_singular_values_fall_back_and_cut_nothing(self, rng, gelsd_calls):
        """cond 1e9 exceeds the bound's 0.01 / 1e-10 = 1e8 but not the cutoff's 1e10."""
        u, _ = np.linalg.qr(rng.standard_normal((200, 20)))
        v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s = np.logspace(0, -9, 20)
        a = u @ np.diag(s) @ v.T
        y = rng.standard_normal((200, 3))
        x = assert_matches_pseudoinverse(a, y)
        # both solves, the copy and the in-place one, ran gelsd on the 20 x 20 R
        assert gelsd_calls == [(20, 20), (20, 20)]
        untruncated = v @ ((u.T @ y) / s[:, None])
        err = np.linalg.norm(x - untruncated) / np.linalg.norm(untruncated)
        assert err <= 10.0 * 1e9 * EPS, err

    def test_duplicate_columns_fall_back(self, rng, gelsd_calls):
        """Rounding leaves a tiny diagonal entry in R, and the bound rejects it."""
        a = rng.standard_normal((40, 6))
        a[:, 4] = a[:, 1]
        assert_matches_pseudoinverse(a, rng.standard_normal((40, 2)))
        assert gelsd_calls == [(6, 6), (6, 6)]

    def test_exact_zero_on_the_diagonal_of_r_falls_back(self, blas, gelsd_calls, monkeypatch,
                                                        rng):
        """Duplicate unit columns factorise exactly, so R has a zero pivot and dtrtri fails."""
        infos = []

        def dtrtri(*args):
            blas.dtrtri(*args)
            infos.append(args[5]._obj.value)

        monkeypatch.setattr(linalg, "_openblas", lambda: blas._replace(dtrtri=dtrtri))
        a = np.zeros((30, 6))
        a[:6] = np.eye(6)
        a[:, 4] = a[:, 1]
        y = rng.standard_normal((30, 2))
        x = min_norm_lstsq(a, y)
        assert infos == [5] and gelsd_calls == [(6, 6)]
        np.testing.assert_allclose(x, pseudoinverse(a) @ y, rtol=0, atol=1e-14)

    def test_cut_singular_values_take_the_fallback(self, rng, gelsd_calls):
        TestMinNormLstsqMatchesPseudoinverse().test_cuts_the_same_singular_values(rng)
        assert gelsd_calls == [(5, 5), (5, 5)]

    def test_all_zero_matrix_takes_the_fallback(self, rng, gelsd_calls):
        out = min_norm_lstsq(np.zeros((5, 3)), rng.standard_normal((5, 2)))
        assert not out.any()
        assert gelsd_calls == [(3, 3)]

    def test_concurrent_solves_give_the_serial_bits(self):
        """Each solve on one BLAS thread, as in training: the bits can depend
        on the thread count."""
        systems = list(_training_systems(widths=(33, 100, 300, 450)))
        with linalg._one_blas_thread():
            serial = [min_norm_lstsq(a, y).tobytes() for a, y in systems]
        results, start = {}, threading.Barrier(2)

        def solve(index):
            start.wait(timeout=60)
            with linalg._one_blas_thread():
                for repeat in range(3):
                    a, y = systems[(index + repeat) % len(systems)]
                    x = min_norm_lstsq(a.copy(order="F"), y, overwrite_a=True)
                    results[index, repeat] = x.tobytes() == serial[(index + repeat) % len(systems)]

        workers = [threading.Thread(target=solve, args=(index,)) for index in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == 6 and all(results.values())


# ---------------------------------------------------------------------------
# _one_blas_thread
# ---------------------------------------------------------------------------

class TestOneBlasThread:
    def test_one_thread_inside_and_count_restored(self, blas_threads):
        with linalg._one_blas_thread():
            assert blas_threads() == 1
            with linalg._one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_count_restored_after_an_error(self, blas_threads):
        with pytest.raises(ValueError, match="dimension mismatch"):
            with linalg._one_blas_thread():
                min_norm_lstsq(np.eye(2), np.ones((3, 1)))
        assert blas_threads() == 2

    def test_overlapping_users_restore_the_count(self, blas_threads):
        """Many threads entering and leaving at once: one thread inside, count restored."""
        seen, start = [], threading.Barrier(8)

        def user():
            start.wait(timeout=60)
            for _ in range(1000):
                with linalg._one_blas_thread():
                    seen.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=user) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * 1000 and set(seen) == {1}
        assert blas_threads() == 2

    def test_same_solution_on_one_thread(self, rng):
        a = rng.standard_normal((600, 120))
        y = rng.standard_normal((600, 4))
        with linalg._one_blas_thread():
            single = min_norm_lstsq(a, y)
        np.testing.assert_allclose(single, min_norm_lstsq(a, y), rtol=1e-10, atol=1e-12)


def _null_space_basis(a):
    """Orthonormal basis of the right null space, from the full SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T
