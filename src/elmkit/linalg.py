"""Dense real-matrix helpers: validation, pseudoinverse, min-norm least squares.

Matrices are plain 2-D float64 ndarrays with at least one row and one
column and only finite entries; :func:`as_matrix` enforces that contract
at every public entry point.  A matrix that breaks it and an SVD that
does not converge raise ``ValueError``.  Both solvers count a singular
value as zero at one fixed cutoff, ``1e-10`` times the largest.
All functions are pure and never mutate
their arguments, so they are safe to call concurrently.  The one
exception is :func:`min_norm_lstsq` with ``overwrite_a=True``: it may
factorise its matrix argument in place, so that matrix must not be read
by anyone else during or after the call.

:func:`min_norm_lstsq`, the solve behind training, never builds the
pseudoinverse; its docstring describes its QR and SVD routes.
:func:`_one_blas_thread` confines the BLAS and LAPACK calls in its block
to one OpenBLAS thread; both classifiers fit and score inside it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a dense real matrix and return it as a float64 ndarray.

    Raises ``ValueError`` if *a* is not 2-D, has a zero dimension,
    or contains NaN/infinity.
    """
    try:
        out = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: could not interpret input as a real matrix: {exc}") from None
    if out.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got {out.ndim} dimension(s)")
    rows, cols = out.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"{name}: dimensions must be at least 1x1, got {rows}x{cols}")
    # min and max carry a NaN through and reach any infinity, without the
    # boolean copy np.isfinite would make of a hidden matrix
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise ValueError(f"{name}: entries must be finite (found NaN or infinity)")
    return out


# Relative rank cutoff of both solvers: a singular value at or below
# _RANK_TOL * s_max counts as zero, the standard numerical-rank convention.
_RANK_TOL = 1e-10


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose generalized inverse of the matrix *a* via the SVD.

    Singular values s_i with ``s_i > 1e-10 * s_max`` are inverted; the
    rest are treated as zero rank.  The all-zero matrix therefore maps
    to the all-zero matrix of transposed shape.  The result satisfies
    the four Penrose conditions up to floating-point error.

    Raises ``ValueError``, naming the shape, if numpy's SVD (LAPACK
    gesdd) does not converge.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD did not converge for {a.shape[0]}x{a.shape[1]} input: {exc}") from None
    inv_s = np.zeros_like(s)
    keep = s > _RANK_TOL * s[0]
    inv_s[keep] = 1.0 / s[keep]
    # C-ordered V: the transposed view of vt takes another BLAS path and
    # moves the last bits of some results
    out = np.ascontiguousarray(vt.T) @ (inv_s[:, None] * u.T)
    if not np.isfinite(out).all():
        raise ValueError("pseudoinverse produced non-finite entries")
    return out


_int_p = ctypes.POINTER(ctypes.c_int64)
_double_p = ctypes.POINTER(ctypes.c_double)
# A CHARACTER argument and, after all the others, its hidden length
_char, _len = ctypes.c_char_p, ctypes.c_size_t
# Argument and result types of the BLAS and LAPACK routines of the QR
# solve; each is a field of _OpenBlas
_SIGNATURES = {
    # DGEQRT(M, N, NB, A, LDA, T, LDT, WORK, INFO)
    "dgeqrt": ([_int_p, _int_p, _int_p, _double_p, _int_p, _double_p, _int_p, _double_p, _int_p], None),
    # DGEMQRT(SIDE, TRANS, M, N, K, NB, V, LDV, T, LDT, C, LDC, WORK, INFO)
    "dgemqrt": ([_char, _char, _int_p, _int_p, _int_p, _int_p, _double_p, _int_p, _double_p,
                 _int_p, _double_p, _int_p, _double_p, _int_p, _len, _len], None),
    # DLACPY(UPLO, M, N, A, LDA, B, LDB)
    "dlacpy": ([_char, _int_p, _int_p, _double_p, _int_p, _double_p, _int_p, _len], None),
    # DTRTRI(UPLO, DIAG, N, A, LDA, INFO)
    "dtrtri": ([_char, _char, _int_p, _double_p, _int_p, _int_p, _len, _len], None),
    # DTRTRS(UPLO, TRANS, DIAG, N, NRHS, A, LDA, B, LDB, INFO)
    "dtrtrs": ([_char, _char, _char, _int_p, _int_p, _double_p, _int_p, _double_p, _int_p,
                _int_p, _len, _len, _len], None),
    # DLANTR(NORM, UPLO, DIAG, M, N, A, LDA, WORK): its Frobenius norm is
    # a scaled sum (dlassq), safe from overflow and underflow
    "dlantr": ([_char, _char, _char, _int_p, _int_p, _double_p, _int_p, _double_p,
                _len, _len, _len], ctypes.c_double),
}

# Symbols of numpy's bundled OpenBLAS: the thread-count setter and
# getter, then the BLAS and LAPACK routines of the QR solve.  numpy 2 wheels
# bundle scipy-openblas64 (scipy_-prefixed names), numpy 1.22-1.26 wheels
# openblas64_ (plain names); both are ILP64 builds, so every Fortran
# INTEGER is 64-bit.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
     *(f"scipy_{name}_64_" for name in _SIGNATURES)),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_",
     *(f"{name}_64_" for name in _SIGNATURES)),
)


# Fields in the order of the symbols of _OPENBLAS_SYMBOLS
_OpenBlas = NamedTuple("_OpenBlas", [(name, Callable)
                                     for name in ("set_threads", "get_threads", *_SIGNATURES)])


@functools.cache
def _openblas() -> _OpenBlas | None:
    """Thread-count controls and solve routines of numpy's bundled OpenBLAS, or None.

    Wheels ship the library next to the package (``numpy.libs`` on Linux
    and Windows, ``numpy/.dylibs`` on macOS), already loaded by numpy
    itself.  A numpy linked against another BLAS (Accelerate in macOS
    arm64 wheels, a distribution's own BLAS), or a library missing any of
    the symbols, yields None.  ctypes releases the GIL for the duration
    of each call.
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
            set_threads, get_threads, *routines = found
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            for name, routine in zip(_SIGNATURES, routines):
                routine.argtypes, routine.restype = _SIGNATURES[name]
            return _OpenBlas(set_threads, get_threads, *routines)
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads_before = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS/LAPACK calls on one OpenBLAS thread.

    Both classifiers fit and score inside it.  On training-sized inputs
    (2,700 rows by 25-450 columns) the QR solve took 2-48% less time on
    one thread than on two on a 2-vCPU machine, and ``train_mlp`` as long.
    A threaded call stalls at every synchronisation point while the
    machine runs something else on one of its threads' cores, and the
    first one in a process touches a second OpenBLAS work buffer: ELM
    scores for 2,037 rows at width 300 added 5.0 MB of RSS on two threads,
    0.3 MB on one.  On one thread the MLP also gets the same weights on
    every machine; on two they round differently from 8,100 rows up.

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


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _ptr(x: np.ndarray):
    return x.ctypes.data_as(_double_p)


def _check_arguments(routine: str, info: ctypes.c_int64, shape) -> None:
    if info.value < 0:
        raise ValueError(f"{routine} rejected argument {-info.value} for {shape[0]}x{shape[1]} input")


def _lstsq(a: np.ndarray, y: np.ndarray, shape) -> np.ndarray:
    """``np.linalg.lstsq`` (LAPACK gelsd), its failure named by the caller's *shape*."""
    try:
        return np.linalg.lstsq(a, y, rcond=_RANK_TOL)[0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"least-squares SVD did not converge for {shape[0]}x{shape[1]} input: {exc}"
        ) from None


# Largest _RANK_TOL * ||A||_F * ||R^-1||_F that takes the QR route: that
# product bounds _RANK_TOL * cond_2(A), so the route's systems are 100
# times too well conditioned for the cutoff to remove a singular value.
_QR_MARGIN = 0.01

_QR_BLOCK = 32  # column block of dgeqrt and dgemqrt; of 16 to 64, 32 and 48 were fastest


def _qr_solve(blas: _OpenBlas, a: np.ndarray, y: np.ndarray, overwrite_a: bool) -> np.ndarray:
    """Least squares for a tall *a* by blocked Householder QR and back-substitution.

    dgeqrt factorises A = QR in place in blocks of nb = min(32, n)
    columns, each recursively in level-3 BLAS, and dgemqrt applies Q^T to
    y.  The width sweep's 54 solves took 0.85 s on one thread (2 vCPUs)
    against 1.29 s with dgeqrf and dormqr, which run level-2 dgeqr2 on
    each block and on any fit under 128 columns.  dlacpy and dtrtri form
    R^-1, and dlantr takes ||R||_F (= ||A||_F) and ||R^-1||_F.  Within the
    bound (see :func:`min_norm_lstsq`) dtrtrs solves R x = (Q^T y)[:n];
    otherwise :func:`_lstsq` solves that triangular system.  *a* is
    factorised in place only when *overwrite_a* is set and it is a
    writable Fortran-ordered array; anything else is copied.
    """
    m, n = a.shape
    nrhs = y.shape[1]
    nb = min(_QR_BLOCK, n)
    if not (overwrite_a and a.flags.f_contiguous and a.flags.writeable):
        a = np.array(a, order="F")
    b = np.array(y, order="F")
    # t holds each block's nb x nb triangular factor; the two routines share work
    t, work, info = np.empty((nb, n), order="F"), np.empty(nb * max(n, nrhs)), ctypes.c_int64()
    blas.dgeqrt(_int(m), _int(n), _int(nb), _ptr(a), _int(m), _ptr(t), _int(nb), _ptr(work),
                ctypes.byref(info))
    _check_arguments("dgeqrt", info, (m, n))
    blas.dgemqrt(b"L", b"T", _int(m), _int(nrhs), _int(n), _int(nb), _ptr(a), _int(m), _ptr(t),
                 _int(nb), _ptr(b), _int(m), _ptr(work), ctypes.byref(info), 1, 1)
    _check_arguments("dgemqrt", info, (m, n))
    # Q^T y is formed, so the Householder vectors below R are spent: rows
    # n to 2n - 1 of a can hold R^-1 when a has that many rows
    if m >= 2 * n:
        inv, ld_inv = a[n:2 * n], m
    else:
        inv, ld_inv = np.empty((n, n), order="F"), n
    # a numpy copy between two views of a would go through a temporary
    blas.dlacpy(b"U", _int(n), _int(n), _ptr(a), _int(m), _ptr(inv), _int(ld_inv), 1)
    blas.dtrtri(b"U", b"N", _int(n), _ptr(inv), _int(ld_inv), ctypes.byref(info), 1, 1)
    _check_arguments("dtrtri", info, (m, n))
    if info.value == 0:  # info > 0 marks an exact zero on R's diagonal
        # ||A||_F = ||R||_F as Q is orthogonal; the Frobenius norm does not
        # reference dlantr's WORK argument
        norm_a, norm_inv = (blas.dlantr(b"F", b"U", b"N", _int(n), _int(n), _ptr(x), _int(ld),
                                        _ptr(work), 1, 1, 1) for x, ld in ((a, m), (inv, ld_inv)))
        # NaN or infinity in either norm fails the test
        if _RANK_TOL * norm_a * norm_inv <= _QR_MARGIN:
            blas.dtrtrs(b"U", b"N", b"N", _int(n), _int(nrhs), _ptr(a), _int(m), _ptr(b), _int(m),
                        ctypes.byref(info), 1, 1, 1)
            _check_arguments("dtrtrs", info, (m, n))
            return np.ascontiguousarray(b[:n])
    return _lstsq(np.triu(a[:n]), b[:n], (m, n))


def min_norm_lstsq(a, y, overwrite_a: bool = False) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x = y``.

    Among all x minimising the Frobenius norm of ``a @ x - y``, returns
    the unique one of smallest Frobenius norm: ``pseudoinverse(a) @ y``
    up to rounding.  Singular values s_i with ``s_i <= 1e-10 * s_max``
    count as zero, the same fixed cutoff as :func:`pseudoinverse`.

    With numpy's bundled OpenBLAS, a tall *a* (rows >= cols) is factorised by
    blocked Householder QR: dgeqrt and dgemqrt in 32-column blocks, in a third
    less time than dgeqrf and dormqr over the width sweep (see
    :func:`_qr_solve`).  When ``||a||_F * ||R^-1||_F``, an upper bound on the
    condition number, is at most ``0.01 / 1e-10 = 1e8``, the cutoff would
    remove no singular value even with a 100-fold margin, and back-substitution
    with R gives the solution.  Otherwise ``np.linalg.lstsq``, LAPACK's SVD
    least-squares routine (gelsd), solves the n x n system in R with the same
    cutoff.  A wide *a*, and any *a* without the bundled OpenBLAS, goes to
    ``np.linalg.lstsq`` directly.  The routes agree within rounding, not bit
    for bit; identical inputs give bit-identical results on the same number of
    BLAS threads and BLAS kernel.  Neither forms the pseudoinverse;
    :func:`pseudoinverse` stays as the reference they are tested against,
    within the least-squares perturbation bound
    ``10 * (k + k**2 * ||r|| / (||a||_2 * ||x||)) * eps``, where k is the
    condition number of the kept singular values and r = y - a @ x the
    residual (Wedin 1973).

    With *overwrite_a* set, the solve may destroy *a* (scipy's name for
    this): on the QR route a writable Fortran-ordered float64 *a* is then
    factorised in place with no copy, which halves the memory a tall
    solve needs.  ``np.linalg.lstsq`` always works on a copy.  Without
    *overwrite_a*, *a* is left unchanged.
    """
    a = as_matrix(a, "a")
    y = as_matrix(y, "y")
    if a.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch in min_norm_lstsq: a has {a.shape[0]} rows, y has {y.shape[0]}"
        )
    blas = _openblas()
    if blas is not None and a.shape[0] >= a.shape[1]:
        out = _qr_solve(blas, a, y, overwrite_a)
    else:
        out = _lstsq(a, y, a.shape)
    if not np.isfinite(out).all():
        raise ValueError("min_norm_lstsq produced non-finite entries")
    return out
