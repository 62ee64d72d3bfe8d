"""Dense complex Hermitian linear algebra kernels.

Eigendecomposition (LAPACK ``eigh`` behind a descending-order API),
positive-semidefiniteness tests, the numerical support of a PSD matrix and
Gram-matrix factorization.
Matrices are plain numpy arrays; the helpers here validate and canonicalize
them instead of wrapping them in classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "NotPsdError",
    "ValidationError",
    "eig_hermitian",
    "factor_gram",
    "hermitian",
    "is_psd",
    "min_eigenvalue",
    "numerical_support",
]

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9  # most negative eigenvalue a matrix accepted as PSD may have
SUPPORT_RTOL = 1e-10  # relative eigenvalue cutoff of the numerical support


class ValidationError(ValueError):
    """Input fails a structural precondition (shape, symmetry, finiteness)."""


class NotPsdError(ValidationError):
    """Matrix required to be positive semidefinite is not."""


def hermitian(entries, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate a square Hermitian matrix and return a canonicalized copy.

    The input must be finite, square, Hermitian within ``tol`` and have real
    diagonal entries within ``tol``.  The returned array is exactly Hermitian
    (symmetrized) with a real diagonal, dtype complex128.
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
    if asym > tol * scale:
        raise ValidationError(
            f"matrix is not Hermitian: max |A - A^H| = {asym:.3e} exceeds {tol:.1e}"
        )
    out = (a + a.conj().T) / 2.0
    idx = np.arange(a.shape[0])
    out[idx, idx] = out[idx, idx].real
    return out


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


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eig_hermitian(a).eigenvalues[-1])


def is_psd(a, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of Hermitian ``a`` is >= -tol."""
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    return min_eigenvalue(a) >= -tol


def numerical_support(dec: EigenDecomposition) -> EigenDecomposition:
    """The eigenpairs of ``dec`` on its numerical support.

    Keeps the eigenvalues above ``SUPPORT_RTOL`` times the largest one (and
    above zero), in their descending order.  This is the one rank rule of
    the package: the SDP solve and :func:`factor_gram` both use it.
    """
    w = dec.eigenvalues
    keep = w > SUPPORT_RTOL * max(float(w[0]), 1e-300)
    return EigenDecomposition(w[keep], dec.eigenvectors[:, keep])


def factor_gram(g) -> np.ndarray:
    """Factor a PSD Gram matrix G into state vectors with G = F^H F.

    Returns a ``(rank, n)`` array whose column ``k`` is the (unnormalized)
    vector of state ``k``, so pairwise inner products reproduce ``G`` within
    the truncation error.  The rank is that of :func:`numerical_support`,
    so eigenvalues at or below ``SUPPORT_RTOL`` times the largest are
    truncated.  Row ``i`` is sqrt(lambda_i) v_i^H for a kept eigenpair, so
    the rows are orthogonal: F F^H = diag(lambda).  The zero matrix has an
    empty support; it gets one row of zeros, so downstream shapes stay
    valid.  Raises :class:`NotPsdError` if ``G`` is not PSD within
    ``PSD_TOL``.
    """
    dec = eig_hermitian(g)
    if dec.eigenvalues[-1] < -PSD_TOL:
        raise NotPsdError(
            f"Gram matrix has eigenvalue {dec.eigenvalues[-1]:.3e} < -{PSD_TOL:g}"
        )
    support = numerical_support(dec)
    if support.eigenvalues.size == 0:
        return np.zeros((1, dec.eigenvalues.size), dtype=np.complex128)
    return np.sqrt(support.eigenvalues)[:, None] * support.eigenvectors.conj().T
