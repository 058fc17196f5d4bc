"""Dense real-matrix helpers: validation, SVD, pseudoinverse, min-norm least squares.

Matrices are plain 2-D float64 ndarrays with at least one row and one
column and only finite entries; :func:`as_matrix` enforces that contract
at every public entry point.  All functions are pure and never mutate
their arguments, so they are safe to call concurrently.  The one
exception is :func:`min_norm_lstsq` with ``overwrite_a=True``: it may
factorise its matrix argument in place, so that matrix must not be read
by anyone else during or after the call.

The SVD is computed by LAPACK through numpy and then normalised to a
fixed sign convention (first nonzero entry of each left-singular vector
is non-negative), which makes repeated factorisations of the same input
bit-identical and keeps the downstream least-squares solution unique in
a testable way.

:func:`min_norm_lstsq`, the solve behind training, goes straight to
LAPACK's SVD-based least-squares routine (gelsd) instead of building the
pseudoinverse, calling numpy's bundled OpenBLAS through ctypes where
there is one; :func:`svd` and :func:`pseudoinverse` are the reference
it is checked against.  :func:`_one_blas_thread` confines the BLAS
and LAPACK calls in its block to one OpenBLAS thread; training runs its
hidden-layer product and solve inside it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class LinalgError(ValueError):
    """Invalid matrix input: bad shape, non-finite entries, or a dimension mismatch."""


class SvdConvergenceError(LinalgError):
    """The SVD backend failed to converge, which signals a pathological input.

    Convergence control (iteration caps) is delegated to the LAPACK
    backend; this error simply surfaces its failure with the offending
    shape attached.
    """


class SvdFactors(NamedTuple):
    """Thin SVD of a rows x cols matrix.

    ``u`` is rows x r with orthonormal columns, ``singular_values`` is a
    non-increasing length-r vector of non-negative reals, and ``v`` is
    cols x r with orthonormal columns, where r = min(rows, cols).  The
    product ``u @ diag(singular_values) @ v.T`` reconstructs the input.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a dense real matrix and return it as a float64 ndarray.

    Raises :class:`LinalgError` if *a* is not 2-D, has a zero dimension,
    or contains NaN/infinity.
    """
    try:
        out = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise LinalgError(f"{name}: could not interpret input as a real matrix: {exc}") from None
    if out.ndim != 2:
        raise LinalgError(f"{name}: expected a 2-D matrix, got {out.ndim} dimension(s)")
    rows, cols = out.shape
    if rows < 1 or cols < 1:
        raise LinalgError(f"{name}: dimensions must be at least 1x1, got {rows}x{cols}")
    if not np.isfinite(out).all():
        raise LinalgError(f"{name}: entries must be finite (found NaN or infinity)")
    return out


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # Flip column pairs so the first nonzero entry of each u column is >= 0.
    # u has orthonormal columns, so every column has a nonzero entry.
    first_nonzero = (u != 0.0).argmax(axis=0)
    leading = u[first_nonzero, np.arange(u.shape[1])]
    flip = leading < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def svd(a) -> SvdFactors:
    """Thin singular value decomposition with a fixed sign convention.

    Returns :class:`SvdFactors` ``(u, singular_values, v)`` such that
    ``a == u @ diag(singular_values) @ v.T``.  Signs are normalised so
    that the first nonzero entry of each column of ``u`` is non-negative,
    making the factorisation deterministic for a fixed input.

    Raises :class:`SvdConvergenceError` if the backend does not converge.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge for {a.shape[0]}x{a.shape[1]} input: {exc}") from None
    v = np.ascontiguousarray(vt.T)
    _fix_signs(u, v)
    return SvdFactors(u, s, v)


def _check_rank_tol(rank_tol: float) -> None:
    # NaN fails too; from 1 up, gelsd cuts nothing and the reference everything
    if not (0.0 <= rank_tol < 1.0):
        raise LinalgError(f"rank_tol must be non-negative and below 1, got {rank_tol}")


def pseudoinverse(a, rank_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose generalized inverse via the SVD.

    Singular values s_i with ``s_i > rank_tol * s_max`` are inverted;
    the rest are treated as zero rank.  The all-zero matrix therefore
    maps to the all-zero matrix of transposed shape.  The result
    satisfies the four Penrose conditions up to floating-point error.

    Parameters
    ----------
    a : array_like
        Matrix to invert, any shape.
    rank_tol : float
        Relative rank tolerance, as a fraction of the largest singular
        value.  The default 1e-10 is the standard numerical-rank
        convention; raise it for badly conditioned inputs.
    """
    _check_rank_tol(rank_tol)
    u, s, v = svd(a)
    cutoff = rank_tol * s[0]
    inv_s = np.zeros_like(s)
    keep = s > cutoff
    inv_s[keep] = 1.0 / s[keep]
    out = v @ (inv_s[:, None] * u.T)
    if not np.isfinite(out).all():
        raise LinalgError("pseudoinverse produced non-finite entries")
    return out


# Symbols of numpy's bundled OpenBLAS, one (set thread count, get
# thread count, dgelsd) triple per wheel generation: scipy-openblas64 in
# numpy 2 wheels, openblas64_ in numpy 1.22-1.26 wheels.  Both are ILP64
# builds, so every Fortran INTEGER is 64-bit.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_", "scipy_dgelsd_64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_", "dgelsd_64_"),
)

_int_p = ctypes.POINTER(ctypes.c_int64)
_double_p = ctypes.POINTER(ctypes.c_double)
# DGELSD(M, N, NRHS, A, LDA, B, LDB, S, RCOND, RANK, WORK, LWORK, IWORK, INFO)
_DGELSD_ARGTYPES = [_int_p, _int_p, _int_p, _double_p, _int_p, _double_p, _int_p,
                    _double_p, _double_p, _int_p, _double_p, _int_p, _int_p, _int_p]


class _OpenBlas(NamedTuple):
    set_threads: Callable
    get_threads: Callable
    dgelsd: Callable


@functools.cache
def _openblas() -> _OpenBlas | None:
    """Thread-count controls and dgelsd of numpy's bundled OpenBLAS, or None.

    Wheels ship the library next to the package (``numpy.libs`` on Linux
    and Windows, ``numpy/.dylibs`` on macOS), already loaded by numpy
    itself.  A numpy linked against another BLAS (Accelerate in macOS
    arm64 wheels, a distribution's own BLAS) yields None.  ctypes
    releases the GIL for the duration of each call.
    """
    package = Path(np.__file__).parent
    libs = package.with_name(package.name + ".libs")
    for path in sorted([*libs.glob("*openblas*"), *(package / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for names in _OPENBLAS_SYMBOLS:
            found = [getattr(lib, name, None) for name in names]
            if None in found:
                continue
            set_threads, get_threads, dgelsd = found
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            dgelsd.argtypes, dgelsd.restype = _DGELSD_ARGTYPES, None
            return _OpenBlas(set_threads, get_threads, dgelsd)
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads_before = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS/LAPACK calls on one OpenBLAS thread.

    On training-sized inputs (a few thousand rows by 25-450 columns)
    gelsd took 13-48% less time on one thread than on two on a 2-vCPU
    machine, and a threaded call stalls at every synchronisation point
    while the machine runs something else on one of its threads' cores.

    The thread count is process-wide, so concurrent users are counted:
    the first to enter saves the count and the last to leave restores it.
    Without a recognised OpenBLAS this does nothing.
    """
    global _blas_users, _blas_threads_before
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas.set_threads, blas.get_threads
    with _blas_lock:
        if _blas_users == 0:
            _blas_threads_before = get_threads()
            set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_threads(_blas_threads_before)


def _dgelsd(dgelsd, a: np.ndarray, y: np.ndarray, rank_tol: float,
            overwrite_a: bool) -> np.ndarray:
    """gelsd as ``np.linalg.lstsq`` calls it, on *a* itself where allowed.

    The workspace query and sizes match numpy's, so the results match
    bit for bit.  *a* is factorised in place only when *overwrite_a* is
    set and it is a writable Fortran-ordered array; anything else is
    copied first.
    """
    m, n = a.shape
    nrhs = y.shape[1]
    if not (overwrite_a and a.flags.f_contiguous and a.flags.writeable):
        a = np.array(a, order="F")
    # gelsd returns the solution in the first n rows of b
    b = np.zeros((max(m, n), nrhs), order="F")
    b[:m] = y
    s = np.empty(min(m, n))
    dims = [ctypes.byref(ctypes.c_int64(v)) for v in (m, n, nrhs)]
    lda, ldb = ctypes.byref(ctypes.c_int64(m)), ctypes.byref(ctypes.c_int64(b.shape[0]))
    rcond, rank, info = ctypes.c_double(rank_tol), ctypes.c_int64(), ctypes.c_int64()

    def run(work, iwork, lwork):
        dgelsd(*dims, a.ctypes.data_as(_double_p), lda, b.ctypes.data_as(_double_p), ldb,
               s.ctypes.data_as(_double_p), ctypes.byref(rcond), ctypes.byref(rank),
               work.ctypes.data_as(_double_p), ctypes.byref(ctypes.c_int64(lwork)),
               iwork.ctypes.data_as(_int_p), ctypes.byref(info))

    # lwork = -1 asks for the workspace sizes, returned in work[0] and iwork[0]
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    run(work, iwork, -1)
    if info.value == 0:
        work, iwork = np.empty(int(work[0])), np.empty(max(1, iwork[0]), dtype=np.int64)
        run(work, iwork, work.size)
    if info.value > 0:
        raise SvdConvergenceError(
            f"least-squares SVD did not converge for {m}x{n} input: "
            f"{info.value} off-diagonal elements did not converge to zero"
        )
    if info.value < 0:
        raise LinalgError(f"gelsd rejected argument {-info.value} for {m}x{n} input")
    return np.ascontiguousarray(b[:n])


def min_norm_lstsq(a, y, rank_tol: float = 1e-10, overwrite_a: bool = False) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x = y``.

    Among all x minimising the Frobenius norm of ``a @ x - y``, returns
    the unique one of smallest Frobenius norm: ``pseudoinverse(a, rank_tol)
    @ y`` up to rounding.  Singular values s_i with ``s_i <= rank_tol *
    s_max`` count as zero, the same cutoff as :func:`pseudoinverse`.

    The solve runs in LAPACK's divide-and-conquer SVD least-squares
    routine (gelsd), which never forms the left singular vectors or the
    pseudoinverse; :func:`svd` and :func:`pseudoinverse` stay as the
    reference it is tested against.  With numpy's bundled OpenBLAS it
    calls gelsd directly, elsewhere through ``np.linalg.lstsq``; both
    give the same bits, and identical inputs give bit-identical results.

    With *overwrite_a* set, the solve may destroy *a* (scipy's name for
    this): a writable Fortran-ordered float64 *a* is then factorised in
    place with no copy, which halves the memory a tall solve needs.
    Without it, *a* is left unchanged.
    """
    a = as_matrix(a, "a")
    y = as_matrix(y, "y")
    if a.shape[0] != y.shape[0]:
        raise LinalgError(
            f"dimension mismatch in min_norm_lstsq: a has {a.shape[0]} rows, y has {y.shape[0]}"
        )
    # gelsd would silently read a negative cutoff as machine precision
    _check_rank_tol(rank_tol)
    blas = _openblas()
    if blas is not None:
        out = _dgelsd(blas.dgelsd, a, y, rank_tol, overwrite_a)
    else:
        try:
            out = np.linalg.lstsq(a, y, rcond=rank_tol)[0]
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(
                f"least-squares SVD did not converge for {a.shape[0]}x{a.shape[1]} input: {exc}"
            ) from None
    if not np.isfinite(out).all():
        raise LinalgError("min_norm_lstsq produced non-finite entries")
    return out
