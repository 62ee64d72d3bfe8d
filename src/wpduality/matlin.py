"""Dense complex Hermitian linear algebra kernels.

Eigendecomposition (LAPACK ``eigh`` behind a descending-order API), the one
PSD rule (:func:`psd_spectrum`, which every accepted Gram matrix passes), the
one rank rule (:func:`numerical_support`), the one rule for counts
(:func:`integer_at_least`), the one for real numbers (:func:`real_in`,
with :func:`probability` its [0, 1] case) and the one for numeric arrays
(:func:`number_array`), Gram-matrix factorization, a
per-matrix Cholesky test of a stack (:func:`cholesky_succeeds`), and a
factor-once linear solver.  Matrices are plain numpy arrays; the helpers here validate
them, at fixed tolerances, instead of wrapping them in classes.

:func:`lu_solver` LU-factors (LAPACK ``zgetrf``) the one matrix the SDP
solve refills every iteration at P_e > 0, a native complex128, writable,
F-contiguous square matrix of order ``LU_MIN_ORDER`` or more, once and in
place, and solves each right-hand side with the factor (``zgetrs``).  For
any other matrix, or where numpy links another LAPACK, each solve is
``np.linalg.solve``, which factors the matrix anew.  numpy has no
factor-then-solve API, and scipy's import would cost every start-up
0.23-0.31 s and raise peak RSS from 27 to 55 MB (2-core VM; a benchmark
set-up takes about 0.25 s and 43-47 MB), so the two routines are called
through ``ctypes`` in the OpenBLAS ``numpy.linalg`` links (the
``scipy_*_64_`` symbols of numpy's wheels, 64-bit integers).
``np.linalg.solve`` runs them inside ``zgesv``, so with OpenBLAS on one
thread the results are bitwise its own; on more threads OpenBLAS picks its
kernels by other size rules in ``zgesv``, and the last bits can differ.
Below ``LU_MIN_ORDER`` refactoring for the second solve of an iteration
costs less than three foreign calls: over 1440 P_e > 0 solves at N = 2-5
(Schur orders 4-25; 2-core VM, BLAS on one thread, interleaved pairs) the
median time ratio of ``LU_MIN_ORDER`` = 32 to 1 was 0.987, quartiles
[0.941, 1.024].
"""

from __future__ import annotations

import ctypes
import functools
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "EigenDecomposition",
    "NotPsdError",
    "ValidationError",
    "cholesky_succeeds",
    "eig_hermitian",
    "hermitian",
    "integer_at_least",
    "lu_solver",
    "number_array",
    "numerical_support",
    "probability",
    "psd_spectrum",
    "real_in",
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


def integer_at_least(value, minimum: int, name: str) -> int:
    """``value`` as an ``int``, or :class:`ValidationError` unless it is an
    integral number of at least ``minimum``.  A bool is rejected although it
    is an ``int``: ``True`` would pass as 1."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def real_in(value, low: float, high: float, name: str) -> float:
    """``value`` as a ``float``, or :class:`ValidationError` unless it is a
    real number with ``low <= value <= high``; NaN fails the comparison.  A
    bool is rejected although it is a number: ``True`` would pass as 1.0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not low <= value <= high:
        raise ValidationError(f"{name} {value} outside [{low:.12g}, {high:.12g}]")
    return float(value)


def probability(value, name: str) -> float:
    """:func:`real_in` on [0, 1], the range of every error budget."""
    return real_in(value, 0.0, 1.0, name)


def number_array(values, name: str, dtype=np.float64) -> np.ndarray:
    """``values`` as a finite array of ``dtype``, float64 or complex128, or
    :class:`ValidationError`.  numpy alone would read a bool as 1 and a
    numeric string as its number.  ``values`` is walked with a stack, so no
    depth of nesting recurses: lists, tuples and object arrays are opened,
    and each leaf must be an integer or real number (or complex, for
    complex128) that is not a bool, or must be what numpy reads as an array
    of such numbers: a numeric numpy array, a ``range``, an ``array.array``,
    a ``memoryview`` or an object with ``__array__``."""
    is_complex = np.dtype(dtype).kind == "c"
    kinds = "iufc" if is_complex else "iuf"
    concrete = (float, int, complex) if is_complex else (float, int)
    number = numbers.Complex if is_complex else numbers.Real
    pending = [values]
    while pending:
        item = pending.pop()
        if type(item) in concrete:  # the common leaves, before the slower ABC test
            continue
        if isinstance(item, (list, tuple)):
            pending.extend(item)
        elif isinstance(item, np.ndarray) and item.dtype.kind == "O":
            pending.extend(item.flat)
        elif (isinstance(item, bool) or not isinstance(item, number)) and (
                np.asarray(item).dtype.kind not in kinds):
            raise ValidationError(f"{name} must hold only numbers")
    try:
        a = np.asarray(values, dtype=dtype)
    except (OverflowError, ValueError) as exc:  # ragged nesting, an integer beyond float
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} must hold finite numbers")
    return a


def hermitian(entries) -> np.ndarray:
    """Validate a square Hermitian matrix and return a canonicalized copy.

    The input must pass :func:`number_array` as complex128, be square,
    Hermitian within ``HERMITIAN_TOL`` and have real diagonal entries within
    it.  The returned array is exactly Hermitian (symmetrized) with a real
    diagonal, dtype complex128.
    """
    a = number_array(entries, "matrix", np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
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
    above zero), in their descending order.  ``dec`` is sorted descending,
    so these are its leading r pairs, returned as views: read-only where
    ``dec`` is, as :func:`psd_spectrum` makes it.  This is the one rank rule
    of the package: the SDP solve and :func:`support_factor` both use it.
    """
    w = dec.eigenvalues
    r = int(np.count_nonzero(w > SUPPORT_RTOL * max(float(w[0]), 1e-300)))
    return EigenDecomposition(w[:r], dec.eigenvectors[:, :r])


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


def cholesky_succeeds(a: np.ndarray) -> np.ndarray:
    """Per matrix of the complex stack ``a``, shape (..., n, n), whether its
    Cholesky factorization succeeds: a boolean array of shape ``a.shape[:-2]``.

    A finite matrix's flag is True exactly where ``np.linalg.cholesky``
    returns its factor; a matrix with a NaN or inf entry in the lower
    triangle, which is all the factorization reads, is False.  The input is
    not written to, and no warning is raised.  ``np.linalg.cholesky`` raises
    for the whole stack if one matrix fails, so this calls its gufunc,
    ``cholesky_lo``, on the stack directly: a failed matrix comes back NaN,
    and a matrix succeeds where its factor's diagonal is finite.
    """
    with np.errstate(invalid="ignore"):
        factors = _umath_linalg.cholesky_lo(a, signature="D->D")
    return np.isfinite(factors.diagonal(axis1=-2, axis2=-1)).all(axis=-1)


@functools.cache
def _lapack():
    """``zgetrf`` and ``zgetrs`` of numpy's bundled OpenBLAS, or ``None``
    where numpy links another LAPACK.  ``dlsym`` on ``numpy.linalg``'s
    extension module finds them in the library that module links."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        getrf, getrs = lib.scipy_zgetrf_64_, lib.scipy_zgetrs_64_
    except (OSError, AttributeError):
        return None
    pointer = ctypes.c_void_p  # every argument is passed by reference
    getrf.argtypes = [pointer] * 6  # M, N, A, LDA, IPIV, INFO
    # TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO, then TRANS's hidden length
    getrs.argtypes = [ctypes.c_char_p] + [pointer] * 8 + [ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    return getrf, getrs


def _address(x: np.ndarray):
    """Pointer argument to the data of Fortran-ordered ``x``.  It holds a
    reference to ``x``, so the array lives as long as the pointer does."""
    return ctypes.byref(ctypes.c_char.from_buffer(x.T))  # x.T is C-contiguous


def lu_solver(a):
    """Factor square ``a`` once; return ``solve(b)``, which solves a x = b.

    A native complex128, writable, F-contiguous ``a`` of order
    ``LU_MIN_ORDER`` or more is factored in place, so it must not change
    until the last solve; any other ``a`` is left as it is, and each solve
    is ``np.linalg.solve(a, b)``.  ``b`` is a vector or a matrix of columns
    that casts to complex128 within its kind; the result is a new
    C-contiguous array, bitwise ``np.linalg.solve(a, b)`` with OpenBLAS on
    one thread.  A singular ``a`` raises ``np.linalg.LinAlgError("Singular
    matrix")``, here (at the first solve on the ``np.linalg.solve`` route).
    """
    a = np.asarray(a)
    n = a.shape[0] if a.ndim == 2 else 0
    routines = _lapack()
    if (routines is None or a.dtype != np.complex128  # also a byte-swapped complex128
            or a.shape != (n, n) or n < LU_MIN_ORDER  # also stacked, non-square
            or not (a.flags.f_contiguous and a.flags.writeable)):
        return lambda b: np.linalg.solve(a, b)
    getrf, getrs = routines
    pivots = np.empty(n, dtype=np.int64)
    # The closure holds the pointers, and each pointer keeps its object alive.
    info = ctypes.c_int64()
    n_ref, info_ref = ctypes.byref(ctypes.c_int64(n)), ctypes.byref(info)
    a_ref, pivots_ref = _address(a), _address(pivots)
    getrf(n_ref, n_ref, a_ref, n_ref, pivots_ref, info_ref)  # overwrites a with the factors
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")

    def solve(b):
        x = np.asarray(b).astype(np.complex128, order="F", casting="same_kind")
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"right-hand side of shape {x.shape} for a {n} x {n} matrix")
        if x.size:
            nrhs = ctypes.byref(ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1))
            getrs(b"N", n_ref, nrhs, a_ref, n_ref, pivots_ref, _address(x), n_ref, info_ref, 1)
        return np.ascontiguousarray(x)

    return solve
