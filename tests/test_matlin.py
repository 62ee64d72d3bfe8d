import warnings

import numpy as np
import pytest

from wpduality import matlin, quantum, sdp

from conftest import charpoly_eigenvalues, random_hermitian, random_psd


def symmetric_gram(n, c):
    return (1 - c) * np.eye(n) + c * np.ones((n, n))


class TestRealIn:
    def test_returns_a_float_and_keeps_both_bounds(self):
        for value in (-1.0, 0.25, 2.0, np.float64(0.5), 1):
            out = matlin.real_in(value, -1.0, 2.0, "x")
            assert type(out) is float and out == value

    @pytest.mark.parametrize("value", [-1.5, 2.5, float("nan"), float("inf")])
    def test_names_the_range(self, value):
        with pytest.raises(matlin.ValidationError, match=r"^x .* outside \[-1, 2\]$"):
            matlin.real_in(value, -1.0, 2.0, "x")

    def test_probability_is_the_unit_interval(self):
        assert matlin.probability(1, "budget") == 1.0
        with pytest.raises(matlin.ValidationError, match=r"^budget 1\.5 outside \[0, 1\]$"):
            matlin.probability(1.5, "budget")
        with pytest.raises(matlin.ValidationError, match="must be a real number"):
            matlin.probability(True, "budget")


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
    """The smallest eigenvalue is the last of ``eig_hermitian``'s descending
    spectrum."""

    def test_identity(self):
        assert matlin.eig_hermitian(np.eye(2)).eigenvalues[-1] == 1.0

    def test_symmetric_gram(self):
        # Fourier-basis diagonalization gives 1 - c
        assert abs(matlin.eig_hermitian(symmetric_gram(3, 0.5)).eigenvalues[-1] - 0.5) < 1e-12

    def test_rank_deficient_gram(self):
        # two identical states
        assert abs(matlin.eig_hermitian(np.ones((2, 2))).eigenvalues[-1]) <= 1e-9


class TestIsPsd:
    """Whether a matrix is PSD is decided by ``psd_spectrum`` alone, at the
    fixed ``PSD_TOL``."""

    def test_identity(self):
        assert np.array_equal(matlin.psd_spectrum(np.eye(4)).eigenvalues, np.ones(4))

    def test_small_negative(self):
        with pytest.raises(matlin.NotPsdError):
            matlin.psd_spectrum(np.diag([1.0, -0.01]))

    def test_boundary(self, rng):
        a = random_psd(rng, 5, rank=3)
        # accepted, with the rank the one rank rule reads off the same spectrum
        assert matlin.numerical_support(matlin.psd_spectrum(a)).eigenvalues.size == 3


class TestFactorGram:
    """A Gram matrix G is factored into state vectors, G = F^H F, by
    ``support_factor(psd_spectrum(G))``."""

    def test_identity_gives_orthonormal_triple(self):
        f = matlin.support_factor(matlin.psd_spectrum(np.eye(3)))
        assert f.shape == (3, 3)
        assert np.allclose(f.conj().T @ f, np.eye(3), atol=1e-12)

    def test_all_ones_rank_one(self):
        f = matlin.support_factor(matlin.psd_spectrum(np.ones((2, 2))))
        assert f.shape == (1, 2)
        assert np.allclose(f[:, 0], f[:, 1])
        assert abs(np.linalg.norm(f[:, 0]) - 1.0) < 1e-12

    def test_symmetric_gram_reconstruction(self):
        g = symmetric_gram(3, 0.4)
        f = matlin.support_factor(matlin.psd_spectrum(g))
        assert np.abs(f.conj().T @ f - g).max() < 1e-8

    def test_roundtrip_on_random_psd(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            f = matlin.support_factor(matlin.psd_spectrum(g))
            assert np.abs(f.conj().T @ f - g).max() < 1e-8
            ffh = f @ f.conj().T  # orthogonal rows: F = diag(lambda)^(1/2) Q^H
            assert np.abs(ffh - np.diag(np.diag(ffh))).max() < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(matlin.NotPsdError):
            matlin.support_factor(matlin.psd_spectrum(np.diag([1.0, -0.5])))


class TestPsdRule:
    @pytest.mark.parametrize("delta,accepted", [(2e-9, False), (5e-10, True)])
    def test_one_boundary(self, delta, accepted):
        """A configuration and a problem both check through ``psd_spectrum``,
        so they accept and reject the same Gram matrices as it does."""
        gram = np.array([[1.0, 1.0 + delta], [1.0 + delta, 1.0]])  # eigenvalues 2 + delta, -delta
        for check in (lambda: quantum.InterferometerConfig([0.5, 0.5], gram),
                      lambda: sdp.BlockSdpProblem(gram, 0.0, 2),
                      lambda: matlin.psd_spectrum(gram)):
            if accepted:
                check()
            else:
                with pytest.raises(matlin.NotPsdError):
                    check()


DEFAULT_LU_MIN_ORDER = matlin.LU_MIN_ORDER


def random_system(rng, n, dtype, columns):
    """A random ``dtype`` matrix of order n and a right-hand side, 1-D for
    ``columns`` = 0 and of that many columns otherwise."""
    shape = (n, columns) if columns else (n,)
    if dtype is np.float64:
        return rng.standard_normal((n, n)), rng.standard_normal(shape)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestCholeskySucceeds:
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_flags_match_numpy_cholesky_per_matrix(self, rng, n):
        """On a (3, 8, n, n) stack of Hermitian matrices with smallest
        eigenvalues spread over [-1, 1] and some within 1e-15 of 0, each flag
        is whether np.linalg.cholesky factors that matrix alone; a matrix with
        a NaN or inf entry is False.  No warning; the input is unchanged."""
        q = np.linalg.qr(rng.standard_normal((24, n, n)) + 1j * rng.standard_normal((24, n, n)))[0]
        spectra = rng.uniform(0.5, 2.0, (24, n))
        spectra[:, 0] = np.concatenate([rng.uniform(-1.0, 1.0, 12), rng.uniform(-1e-15, 1e-15, 12)])
        stack = ((q * spectra[:, None, :]) @ q.conj().swapaxes(-1, -2)).reshape(3, 8, n, n)
        stack = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
        bad = [(0, 0, 0, 0, np.nan), (1, 2, n - 1, 0, np.inf), (2, 7, n - 1, n - 1, -np.inf),
               (2, 3, 0, 0, np.inf)]
        for a, b, i, j, value in bad:
            stack[a, b, i, j] = stack[a, b, j, i] = value
        before = stack.copy()

        def factors(matrix):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return False
            return True

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = matlin.cholesky_succeeds(stack)
        assert flags.shape == (3, 8) and flags.dtype == bool
        assert np.array_equal(stack, before, equal_nan=True)
        non_finite = {(a, b) for a, b, *_ in bad}
        for index in np.ndindex(3, 8):
            if index in non_finite:
                assert not flags[index]
            else:
                assert flags[index] == factors(stack[index])
        assert 0 < np.count_nonzero(flags) < 24 - len(non_finite)


def read_only_fortran(a):
    f = np.asfortranarray(a)
    f.setflags(write=False)
    return f


class TestLuSolver:
    """Bitwise agreement holds with OpenBLAS on one thread, as conftest sets.
    Every order is factored here, not only those from ``LU_MIN_ORDER`` on."""

    @pytest.fixture(autouse=True)
    def factor_every_order(self, monkeypatch):
        monkeypatch.setattr(matlin, "LU_MIN_ORDER", 1)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matches_numpy_solve_bit_for_bit(self, rng, n, dtype):
        for columns in (0, 2):
            a, b = random_system(rng, n, dtype, columns)
            b_before = b.copy()
            solve = matlin.lu_solver(np.array(a, order="F"))  # a copy lu_solver may factor in place
            for _ in range(2):  # the factor serves every call
                x = solve(b)
                assert x.dtype == dtype
                assert x.flags.c_contiguous
                assert np.array_equal(x, np.linalg.solve(a, b))
            assert np.array_equal(b, b_before)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("n", [32, 64])
    def test_fortran_input_gives_the_same_bits(self, rng, n, dtype):
        a, b = random_system(rng, n, dtype, 2)
        expected = matlin.lu_solver(a)(b)  # C order: np.linalg.solve
        assert np.array_equal(expected, np.linalg.solve(a, b))
        x = matlin.lu_solver(np.asfortranarray(a))(b)
        assert x.flags.c_contiguous
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("dtype", [np.complex128])  # the one dtype lu_solver factors
    def test_fortran_input_holds_the_factors(self, rng, dtype):
        if matlin._lapack() is None:
            pytest.skip("without the LAPACK symbols lu_solver factors nothing itself")
        n = 32
        a, b = random_system(rng, n, dtype, 0)
        lu = np.asfortranarray(a)
        solve = matlin.lu_solver(lu)
        # L (unit lower) times U is a row permutation of a: P a = L U
        product = (np.tril(lu, -1) + np.eye(n)) @ np.triu(lu)
        distance = np.abs(product[:, None, :] - a[None, :, :]).max(axis=2)
        rows = distance.argmin(axis=1)
        assert sorted(rows) == list(range(n))
        assert distance.min(axis=1).max() <= 1e-12 * np.abs(a).max() * n
        assert np.array_equal(solve(b), np.linalg.solve(a, b))  # read from the factors in lu

    @pytest.mark.parametrize("make", [
        np.ascontiguousarray,
        lambda a: np.asfortranarray(a.astype(np.complex64)),  # lu_solver factors no complex64
        lambda a: np.asfortranarray(a.astype(a.dtype.newbyteorder())),
        read_only_fortran,
        lambda a: np.asfortranarray(a.real),  # nor float64, although writable and F-ordered
    ], ids=["c-order", "complex64", "byteswapped", "read-only", "float64"])
    def test_leaves_what_it_cannot_factor_in_place_to_numpy(self, rng, make):
        a, b = random_system(rng, 64, np.complex128, 0)
        given = make(a)
        before = given.copy()
        x = matlin.lu_solver(given)(b)
        assert np.array_equal(given, before)
        assert np.array_equal(x, np.linalg.solve(given, b))

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_non_native_byte_order_solves_alike(self, rng, dtype):
        # getrf reads native numbers: a byte-swapped matrix goes to np.linalg.solve
        a, b = random_system(rng, 32, dtype, 0)
        swapped = a.astype(a.dtype.newbyteorder())
        assert np.array_equal(matlin.lu_solver(swapped)(b), np.linalg.solve(a, b))

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_singular_fortran_matrix_raises(self, dtype):
        a = np.asfortranarray(np.outer(np.arange(1.0, 33.0), np.ones(32)).astype(dtype))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            matlin.lu_solver(a)(np.ones(32, dtype=dtype))

    def test_finds_getrf_and_getrs_in_bundled_openblas(self):
        # Without the symbols every other test here covers only the fallback.
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get(
                "openblas configuration", ""):
            pytest.skip("numpy does not bundle the 64-bit-integer scipy-openblas")
        assert matlin._lapack() is not None

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_singular_matrix_raises(self, dtype):
        for a in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                matlin.lu_solver(a.astype(dtype))(np.ones(a.shape[0], dtype=dtype))

    def test_rejects_mismatched_right_hand_side(self, rng):
        a, _ = random_system(rng, 4, np.complex128, 0)
        solve = matlin.lu_solver(np.asfortranarray(a))
        with pytest.raises(ValueError):
            solve(np.ones(3))
        with pytest.raises(ValueError):
            solve(np.ones((4, 2, 2)))

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_fallback_gives_the_same_bits(self, rng, monkeypatch, dtype):
        systems = [random_system(rng, n, dtype, columns) for n in (3, 16) for columns in (0, 2)]
        lapack = [matlin.lu_solver(np.array(a, order="F"))(b) for a, b in systems]
        monkeypatch.setattr(matlin, "_lapack", lambda: None)
        for (a, b), x in zip(systems, lapack):
            assert np.array_equal(matlin.lu_solver(a)(b), x)

    def test_small_orders_solve_with_numpy(self, rng, monkeypatch):
        monkeypatch.setattr(matlin, "LU_MIN_ORDER", DEFAULT_LU_MIN_ORDER)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(len(a)) or solve(a, b))
        small, large = DEFAULT_LU_MIN_ORDER - 1, DEFAULT_LU_MIN_ORDER
        for n in (small, large):
            a, b = random_system(rng, n, np.complex128, 0)
            matlin.lu_solver(np.asfortranarray(a))(b)
        assert calls == ([small] if matlin._lapack() else [small, large])
