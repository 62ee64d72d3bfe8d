import os

# One BLAS thread per test process, set before numpy loads.  The solves here
# are small, and with OpenBLAS's default of one thread per core a concurrent
# numpy process oversubscribes the cores: on a 2-core VM the slowest
# criterion-1 solve then took up to 2.5 s instead of 0.1-0.2 s.  An explicit
# setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (x + x.conj().T) / 2.0


def random_psd(rng, n, rank=None):
    rank = rank or n
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return x @ x.conj().T / rank


def charpoly_eigenvalues(a):
    """Independent eigenvalue oracle: characteristic polynomial roots.

    Coefficients via the Faddeev-LeVerrier recursion, roots via the
    companion matrix (numpy.roots).  Only suitable for small, well
    conditioned matrices; that is all the tests need.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]
