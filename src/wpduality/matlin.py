"""Dense complex Hermitian linear algebra kernels.

Eigendecomposition (LAPACK ``eigh`` behind a descending-order API), the one
PSD rule (:func:`psd_spectrum`, which every accepted Gram matrix passes) and
the one rank rule (:func:`numerical_support`), Gram-matrix factorization, and
a factor-once linear solver.  Matrices are plain numpy arrays; the helpers
here validate them, at fixed tolerances, instead of wrapping them in classes.

:func:`lu_solver` LU-factors a square matrix once (LAPACK ``getrf``) and
returns a function that solves for each right-hand side with the factor
(``getrs``), where every ``np.linalg.solve`` call factors the matrix again.
numpy has no factor-then-solve API, and scipy's would add its import to
every start-up: on a 2-core VM, ``import scipy.linalg`` took 0.23-0.31 s
more than ``import numpy`` alone and raised peak RSS from 27 to 55 MB, where
a whole benchmark set-up takes about 0.25 s and peaks at 43-47 MB.  So the
two routines are called through ``ctypes`` in the OpenBLAS that
``numpy.linalg`` itself links (the ``scipy_*_64_`` symbols of numpy's wheels,
64-bit integers).  ``np.linalg.solve`` runs the same ``getrf`` and ``getrs``
inside ``gesv``, so with OpenBLAS on one thread the results are bitwise those
of ``np.linalg.solve``; on more threads OpenBLAS chooses its serial or
threaded kernels by different size rules in ``gesv`` and in
``getrf``/``getrs``, and the last bits can differ.  Where the
symbols are missing (a numpy built against another LAPACK), or the matrix
is not a square float64 or complex128 one of order ``LU_MIN_ORDER`` or
more, the returned function is ``np.linalg.solve``.  Inside an
interior-point iteration, refactoring a small matrix for the second solve
costs less than the three foreign calls of a factor and two solves: on a
2-core VM, N = 16 solves at P_e = 0 (a real Schur matrix of order 16) ran
about 2 % slower through them, and the factor wins from order 32.  A
writable, F-contiguous matrix is factored in place, so the SDP solve hands
over a Schur workspace it refills every iteration without a copy; any other
matrix is copied, and left as it was.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "NotPsdError",
    "ValidationError",
    "eig_hermitian",
    "hermitian",
    "lu_solver",
    "numerical_support",
    "psd_spectrum",
    "support_factor",
]

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9  # most negative eigenvalue a matrix accepted as PSD may have
SUPPORT_RTOL = 1e-10  # relative eigenvalue cutoff of the numerical support
LU_MIN_ORDER = 32  # smallest matrix lu_solver factors itself


class ValidationError(ValueError):
    """Input fails a structural precondition (shape, symmetry, finiteness)."""


class NotPsdError(ValidationError):
    """Matrix required to be positive semidefinite is not."""


def hermitian(entries) -> np.ndarray:
    """Validate a square Hermitian matrix and return a canonicalized copy.

    The input must be finite, square, Hermitian within ``HERMITIAN_TOL`` and
    have real diagonal entries within it.  The returned array is exactly
    Hermitian (symmetrized) with a real diagonal, dtype complex128.
    """
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValidationError("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.abs(a).max()))
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITIAN_TOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: max |A - A^H| = {asym:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``eigenvectors[:, k]`` pairs with ``eigenvalues[k]``.  The descending
    sort is stable, so tied eigenvalues keep the order LAPACK returned them
    in and results are deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    The input is validated and symmetrized by :func:`hermitian` first; the
    eigenpairs are then reordered to descending eigenvalues.
    """
    w, v = np.linalg.eigh(hermitian(a))
    order = np.argsort(-w, kind="stable")
    return EigenDecomposition(w[order], v[:, order])


def psd_spectrum(a) -> EigenDecomposition:
    """The one PSD rule: the eigendecomposition of ``a``, read-only, or
    :class:`NotPsdError` if an eigenvalue lies below ``-PSD_TOL``."""
    dec = eig_hermitian(a)
    if dec.eigenvalues[-1] < -PSD_TOL:
        raise NotPsdError(f"matrix is not PSD: eigenvalue {dec.eigenvalues[-1]:.3e} < -{PSD_TOL:g}")
    dec.eigenvalues.setflags(write=False)
    dec.eigenvectors.setflags(write=False)
    return dec


def numerical_support(dec: EigenDecomposition) -> EigenDecomposition:
    """The eigenpairs of ``dec`` on its numerical support.

    Keeps the eigenvalues above ``SUPPORT_RTOL`` times the largest one (and
    above zero), in their descending order.  This is the one rank rule of
    the package: the SDP solve and :func:`support_factor` both use it.
    """
    w = dec.eigenvalues
    keep = w > SUPPORT_RTOL * max(float(w[0]), 1e-300)
    return EigenDecomposition(w[keep], dec.eigenvectors[:, keep])


def support_factor(dec: EigenDecomposition) -> np.ndarray:
    """The state vectors F = diag(lambda)^{1/2} Q^H of a PSD Gram matrix
    G ~ Q diag(lambda) Q^H, from its decomposition ``dec``.

    Returns a ``(rank, n)`` array whose column ``k`` is the (unnormalized)
    vector of state ``k``, so G = F^H F within the truncation error.  The
    rank is that of :func:`numerical_support`, so eigenvalues at or below
    ``SUPPORT_RTOL`` times the largest are truncated.  Row ``i`` is
    sqrt(lambda_i) v_i^H for a kept eigenpair, so the rows are orthogonal:
    F F^H = diag(lambda).
    """
    support = numerical_support(dec)
    return np.sqrt(support.eigenvalues)[:, None] * support.eigenvectors.conj().T


@functools.cache
def _lapack() -> dict:
    """``getrf`` and ``getrs`` of numpy's bundled OpenBLAS by dtype character
    ("d" float64, "D" complex128), or an empty dict where numpy links another
    LAPACK.  ``dlsym`` on ``numpy.linalg``'s extension module finds them in
    the library that module links."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {char: (getattr(lib, f"scipy_{prefix}getrf_64_"),
                           getattr(lib, f"scipy_{prefix}getrs_64_"))
                    for char, prefix in (("d", "d"), ("D", "z"))}
    except (ImportError, OSError, AttributeError):
        return {}
    pointer = ctypes.c_void_p  # every argument is passed by reference
    for getrf, getrs in routines.values():
        getrf.argtypes = [pointer] * 6  # M, N, A, LDA, IPIV, INFO
        # TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO, then TRANS's hidden length
        getrs.argtypes = [ctypes.c_char_p] + [pointer] * 8 + [ctypes.c_size_t]
        getrf.restype = getrs.restype = None
    return routines


def _address(x: np.ndarray):
    """Pointer argument to the data of Fortran-ordered ``x``.  It holds a
    reference to ``x``, so the array lives as long as the pointer does."""
    return ctypes.byref(ctypes.c_char.from_buffer(x.T))  # x.T is C-contiguous


def lu_solver(a):
    """Factor square ``a`` once; return ``solve(b)``, which solves a x = b.

    Matrices of order below ``LU_MIN_ORDER`` are not factored here: each
    solve is ``np.linalg.solve``.  A writable, F-contiguous ``a`` of a
    factored dtype is factored in place: it holds the factors afterwards,
    and the solves read them there, so it must not change until the last
    one (pass a copy to keep the matrix).  Any other ``a`` is left as it is,
    and the factor is taken in a copy.

    ``b`` is a vector or a matrix of columns, with the dtype of ``a`` (or one
    that casts to it within its kind); the result is a new C-contiguous array
    as ``np.linalg.solve(a, b)`` returns it, bitwise equal to it with
    OpenBLAS on one thread.  A singular ``a`` raises
    ``np.linalg.LinAlgError("Singular matrix")``, here (at the first solve on
    the ``np.linalg.solve`` fallback).
    """
    a = np.asarray(a)
    n = a.shape[0] if a.ndim == 2 else 0
    routines = _lapack().get(a.dtype.char) if a.dtype.isnative else None
    if routines is None or a.shape != (n, n) or n < LU_MIN_ORDER:  # also stacked, non-square
        return lambda b: np.linalg.solve(a, b)
    getrf, getrs = routines
    in_place = a.flags.f_contiguous and a.flags.writeable
    lu = a if in_place else np.array(a, order="F")  # getrf overwrites it with the factors
    pivots = np.empty(n, dtype=np.int64)
    # The closure holds the pointers, and each pointer keeps its object alive.
    info = ctypes.c_int64()
    n_ref, info_ref = ctypes.byref(ctypes.c_int64(n)), ctypes.byref(info)
    lu_ref, pivots_ref = _address(lu), _address(pivots)
    getrf(n_ref, n_ref, lu_ref, n_ref, pivots_ref, info_ref)
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")

    def solve(b):
        x = np.asarray(b).astype(lu.dtype, order="F", casting="same_kind")
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"right-hand side of shape {x.shape} for a {n} x {n} matrix")
        if x.size:
            nrhs = ctypes.byref(ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1))
            getrs(b"N", n_ref, nrhs, lu_ref, n_ref, pivots_ref, _address(x), n_ref, info_ref, 1)
        return np.ascontiguousarray(x)

    return solve
