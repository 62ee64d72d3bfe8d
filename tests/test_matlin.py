import numpy as np
import pytest

from wpduality import matlin

from conftest import charpoly_eigenvalues, random_hermitian, random_psd


def symmetric_gram(n, c):
    return (1 - c) * np.eye(n) + c * np.ones((n, n))


class TestHermitianValidation:
    def test_rejects_non_square(self):
        with pytest.raises(matlin.ValidationError):
            matlin.hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(matlin.ValidationError):
            matlin.hermitian([[1.0, 1.0], [0.5, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(matlin.ValidationError):
            matlin.hermitian([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_complex_diagonal(self):
        with pytest.raises(matlin.ValidationError):
            matlin.hermitian([[1.0 + 1e-6j, 0.0], [0.0, 1.0]])

    def test_canonicalizes_within_tolerance(self):
        a = np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]])
        out = matlin.hermitian(a)
        assert np.allclose(out, out.conj().T)
        assert out.dtype == np.complex128


class TestEigHermitian:
    def test_identity(self):
        dec = matlin.eig_hermitian(np.eye(3))
        assert np.array_equal(dec.eigenvalues, [1.0, 1.0, 1.0])
        # ties keep original index order, so the basis is untouched
        assert np.array_equal(dec.eigenvectors, np.eye(3))

    def test_diagonal(self):
        dec = matlin.eig_hermitian(np.diag([0.7, 0.3]))
        assert np.array_equal(dec.eigenvalues, [0.7, 0.3])

    def test_symmetric_gram_against_charpoly_oracle(self):
        g = symmetric_gram(4, 0.25)
        oracle = charpoly_eigenvalues(g)  # 1 + 3c and triple 1 - c
        assert np.allclose(oracle, [1.75, 0.75, 0.75, 0.75], atol=1e-9)
        dec = matlin.eig_hermitian(g)
        assert np.allclose(dec.eigenvalues, oracle, atol=1e-9)

    def test_complex_matrix_against_charpoly_oracle(self, rng):
        a = random_hermitian(rng, 5)
        assert np.allclose(
            matlin.eig_hermitian(a).eigenvalues, charpoly_eigenvalues(a), atol=1e-8
        )

    def test_invariants_on_random_matrices(self, rng):
        # trace identity, reconstruction and orthonormality, 1000 matrices
        def matrices():
            for _ in range(1000):
                n = int(rng.integers(2, 17))
                yield random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            # degenerate spectrum: 1 + 4c and a quadruple 1 - c
            yield symmetric_gram(5, 0.3)

        for a in matrices():
            n = a.shape[0]
            dec = matlin.eig_hermitian(a)
            v, w = dec.eigenvectors, dec.eigenvalues
            scale = max(1.0, float(np.abs(a).max()))
            assert abs(np.trace(a).real - w.sum()) <= 1e-9 * scale
            recon = (v * w) @ v.conj().T
            assert np.abs(a - recon).max() <= 1e-9 * scale
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-9
            assert np.all(np.diff(w) <= 1e-15)

    def test_size_one(self):
        dec = matlin.eig_hermitian([[3.0]])
        assert dec.eigenvalues[0] == 3.0


class TestMinEigenvalue:
    def test_identity(self):
        assert matlin.min_eigenvalue(np.eye(2)) == 1.0

    def test_symmetric_gram(self):
        # Fourier-basis diagonalization gives 1 - c
        assert abs(matlin.min_eigenvalue(symmetric_gram(3, 0.5)) - 0.5) < 1e-12

    def test_rank_deficient_gram(self):
        # two identical states
        assert abs(matlin.min_eigenvalue(np.ones((2, 2)))) <= 1e-9

    def test_matches_full_decomposition(self, rng):
        a = random_hermitian(rng, 6)
        assert matlin.min_eigenvalue(a) == matlin.eig_hermitian(a).eigenvalues[-1]


class TestIsPsd:
    def test_identity(self):
        assert matlin.is_psd(np.eye(4), tol=0.0)

    def test_small_negative(self):
        assert not matlin.is_psd(np.diag([1.0, -0.01]), tol=1e-9)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(matlin.ValidationError):
            matlin.is_psd(np.eye(2), tol=-1.0)

    def test_boundary(self, rng):
        a = random_psd(rng, 5, rank=3)
        assert matlin.is_psd(a, tol=1e-9)


class TestFactorGram:
    def test_identity_gives_orthonormal_triple(self):
        f = matlin.factor_gram(np.eye(3))
        assert f.shape == (3, 3)
        assert np.allclose(f.conj().T @ f, np.eye(3), atol=1e-12)

    def test_all_ones_rank_one(self):
        f = matlin.factor_gram(np.ones((2, 2)))
        assert f.shape == (1, 2)
        assert np.allclose(f[:, 0], f[:, 1])
        assert abs(np.linalg.norm(f[:, 0]) - 1.0) < 1e-12

    def test_symmetric_gram_reconstruction(self):
        g = symmetric_gram(3, 0.4)
        f = matlin.factor_gram(g)
        assert np.abs(f.conj().T @ f - g).max() < 1e-8

    def test_roundtrip_on_random_psd(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            f = matlin.factor_gram(g)
            assert np.abs(f.conj().T @ f - g).max() < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(matlin.NotPsdError):
            matlin.factor_gram(np.diag([1.0, -0.5]))
