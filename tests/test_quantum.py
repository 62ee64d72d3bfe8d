import math

import numpy as np
import pytest

from wpduality import matlin, quantum
from wpduality.discrimination import random_config


def sym_config(n, c):
    return quantum.InterferometerConfig(
        np.full(n, 1.0 / n), (1 - c) * np.eye(n) + c * np.ones((n, n))
    )


def entropy_oracle(values):
    return -sum(v * math.log2(v) for v in values if v > 0)


class TestShannonEntropy:
    def test_point_mass(self):
        assert quantum.shannon_entropy([1.0]) == 0.0

    def test_uniform_four(self):
        assert quantum.shannon_entropy([0.25] * 4) == 2.0

    def test_biased_pair(self):
        expected = entropy_oracle([0.9, 0.1])
        assert abs(expected - 0.468996) < 1e-6
        assert abs(quantum.shannon_entropy([0.9, 0.1]) - expected) < 1e-12
        # cross-check against the binary-entropy implementation
        assert abs(quantum.shannon_entropy([0.9, 0.1]) - quantum.binary_entropy(0.9)) < 1e-14

    def test_permutation_invariant_bitwise(self, rng):
        p = rng.dirichlet(np.ones(6))
        assert quantum.shannon_entropy(p) == quantum.shannon_entropy(p[::-1])

    def test_subnormalized_allowed(self):
        assert quantum.shannon_entropy([0.25, 0.25]) > 0

    def test_rejects_negative(self):
        with pytest.raises(matlin.ValidationError):
            quantum.shannon_entropy([0.5, -1e-3])

    def test_rejects_supernormalized(self):
        with pytest.raises(matlin.ValidationError):
            quantum.shannon_entropy([0.9, 0.9])


class TestBinaryEntropy:
    def test_endpoints(self):
        assert quantum.binary_entropy(0.0) == 0.0
        assert quantum.binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert quantum.binary_entropy(0.5) == 1.0

    def test_derived_value(self):
        expected = entropy_oracle([0.11, 0.89])
        assert abs(expected - 0.499916) < 1e-6
        assert abs(quantum.binary_entropy(0.11) - expected) < 1e-12

    def test_symmetry(self):
        for q in np.linspace(0.0, 1.0, 21):
            assert quantum.binary_entropy(q) == pytest.approx(
                quantum.binary_entropy(1 - q), abs=1e-14
            )

    def test_monotone_below_half(self):
        grid = np.linspace(0.0, 0.5, 26)
        values = [quantum.binary_entropy(q) for q in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(matlin.ValidationError):
            quantum.binary_entropy(1.1)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert quantum.von_neumann_entropy(np.eye(8) / 8) == 3.0

    def test_pure_state(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert quantum.von_neumann_entropy(np.outer(v, v.conj())) < 1e-12

    def test_symmetric_path_state(self):
        # Fourier-basis eigenvalues for N=4, c=0.5 are (5/8, 1/8, 1/8, 1/8)
        expected = entropy_oracle([5 / 8, 1 / 8, 1 / 8, 1 / 8])
        assert abs(expected - 1.548795) < 1e-6
        rho = quantum.path_density_matrix(sym_config(4, 0.5))
        assert abs(quantum.von_neumann_entropy(rho) - expected) < 1e-10

    def test_rejects_non_density(self):
        with pytest.raises(matlin.ValidationError):
            quantum.von_neumann_entropy(np.eye(3))
        with pytest.raises(matlin.ValidationError):
            quantum.von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_accepts_what_the_psd_rule_accepts(self):
        """A negative eigenvalue the PSD rule tolerates contributes nothing;
        one beyond it raises NotPsdError."""
        rho = np.diag([0.5, 0.5 + 5e-10, -5e-10])
        assert quantum.von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(matlin.NotPsdError):
            quantum.von_neumann_entropy(np.diag([0.5, 0.5 + 5e-9, -5e-9]))


class TestConfigValidation:
    def test_rejects_bad_diagonal(self):
        g = np.eye(2) * 1.01
        with pytest.raises(matlin.ValidationError):
            quantum.InterferometerConfig([0.5, 0.5], g)

    def test_rejects_non_psd_gram(self):
        g = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(matlin.NotPsdError):
            quantum.InterferometerConfig([0.5, 0.5], g)

    def test_rejects_single_path(self):
        with pytest.raises(matlin.ValidationError):
            quantum.InterferometerConfig([1.0], np.eye(1))

    def test_rejects_bad_priors(self):
        with pytest.raises(matlin.ValidationError):
            quantum.InterferometerConfig([0.7, 0.7], np.eye(2))

    def test_arrays_frozen(self):
        cfg = sym_config(2, 0.2)
        with pytest.raises(ValueError):
            cfg.gram[0, 0] = 2.0


class TestDensityMatrices:
    def test_orthogonal_detectors_give_diagonal(self):
        priors = [0.1, 0.2, 0.3, 0.4]
        cfg = quantum.InterferometerConfig(priors, np.eye(4))
        assert np.allclose(quantum.path_density_matrix(cfg), np.diag(priors))

    def test_symmetric_fourier_form(self):
        n, c = 5, 0.3
        rho = quantum.path_density_matrix(sym_config(n, c))
        f0 = np.ones(n) / np.sqrt(n)
        expected = (1 - c) / n * np.eye(n) + c * np.outer(f0, f0)
        assert np.abs(rho - expected).max() < 1e-14

    def test_two_path_offdiagonal(self):
        cfg = quantum.InterferometerConfig(
            [0.5, 0.5], [[1.0, 0.6], [0.6, 1.0]]
        )
        rho = quantum.path_density_matrix(cfg)
        assert rho[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_complex_overlap_transposes(self):
        g = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
        cfg = quantum.InterferometerConfig([0.5, 0.5], g)
        rho = quantum.path_density_matrix(cfg)
        # entry (j, k) carries <eta_k|eta_j>, the conjugate of gram[j, k]
        assert rho[0, 1] == pytest.approx(0.5 * (0.3 - 0.4j), abs=1e-15)
        assert np.allclose(rho, rho.conj().T)

    def test_detector_identity_gram_spectrum(self):
        n = 4
        cfg = quantum.InterferometerConfig(np.full(n, 1 / n), np.eye(n))
        rho_d = quantum.detector_density_matrix(cfg)
        w = matlin.eig_hermitian(rho_d).eigenvalues
        assert np.allclose(w, np.full(n, 1 / n), atol=1e-12)

    def test_detector_symmetric_spectrum(self):
        cfg = sym_config(3, 0.2)
        w = matlin.eig_hermitian(quantum.detector_density_matrix(cfg)).eigenvalues
        assert np.allclose(w, [0.4666666667, 0.2666666667, 0.2666666667], atol=1e-9)

    def test_purification_symmetry_random(self, rng):
        # S(rho_p) = S(rho_d): both reductions of the same pure state
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            dim = int(rng.integers(1, n + 3))
            cfg = random_config(n, dim, int(rng.integers(0, 2**32)))
            s_p = quantum.von_neumann_entropy(quantum.path_density_matrix(cfg))
            s_d = quantum.von_neumann_entropy(quantum.detector_density_matrix(cfg))
            assert abs(s_p - s_d) < 1e-8


class TestCoherence:
    def test_incoherent_config_exactly_zero(self):
        cfg = quantum.InterferometerConfig([0.4, 0.35, 0.25], np.eye(3))
        assert quantum.coherence_rel_ent(cfg) == 0.0

    def test_identical_detectors_maximal(self):
        n = 3
        cfg = quantum.InterferometerConfig(np.full(n, 1 / n), np.ones((n, n)))
        assert quantum.coherence_rel_ent(cfg) == pytest.approx(np.log2(n), abs=1e-12)
        assert quantum.normalized_coherence(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_closed_form(self):
        for n, c in [(2, 0.5), (3, 0.25), (8, 0.8), (16, 0.1)]:
            expected = (n - 1) * (1 - c) / n * np.log2(1 - c) + (
                1 + (n - 1) * c
            ) / n * np.log2(1 + (n - 1) * c)
            assert quantum.coherence_rel_ent(sym_config(n, c)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_two_path_normalized_value(self):
        assert quantum.normalized_coherence(sym_config(2, 0.5)) == pytest.approx(
            0.188722, abs=1e-6
        )

    def test_normalized_in_unit_interval(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            cfg = random_config(n, int(rng.integers(1, n + 2)), int(rng.integers(0, 2**32)))
            c = quantum.normalized_coherence(cfg)
            assert 0.0 <= c <= 1.0


class TestChannelStatistics:
    def test_all_successes(self):
        st = quantum.usd_channel_statistics([0.5, 0.5], [1.0, 1.0])
        assert st.failure_prob == 0.0
        assert st.error_prob == 0.0

    def test_all_failures(self):
        st = quantum.usd_channel_statistics([0.5, 0.5], [0.0, 0.0])
        assert st.failure_prob == 1.0
        assert quantum.mutual_information(st) == 0.0

    def test_derived_three_state(self):
        st = quantum.usd_channel_statistics([1 / 3] * 3, [1.0, 0.5, 0.5])
        assert st.failure_prob == pytest.approx(1 / 3, abs=1e-12)
        q = st.joint[:, 3] / st.failure_prob
        assert np.allclose(q, [0.0, 0.5, 0.5], atol=1e-12)

    def test_marginal_and_simplex_invariants(self, rng):
        p = rng.dirichlet(np.ones(4))
        s = rng.uniform(0, 1, 4)
        st = quantum.usd_channel_statistics(p, s)
        assert st.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(st.marginal_y, st.joint.sum(axis=0))
        assert st.failure_prob == pytest.approx(float((p * (1 - s)).sum()), abs=1e-12)

    def test_rejects_negative_joint(self):
        joint = np.full((2, 3), 1 / 6)
        joint[0, 0] = -1e-3
        with pytest.raises(matlin.ValidationError):
            quantum.ChannelStatistics(joint)

    def test_rejects_empty_joint(self):
        """N = 0, shape (0, 1): numpy's min of an empty array raised before."""
        with pytest.raises(matlin.ValidationError, match="N >= 1"):
            quantum.ChannelStatistics(np.zeros((0, 1)))


class TestMutualInformation:
    def test_independent_is_zero(self):
        # outcome independent of the input state
        joint = np.outer([0.3, 0.7], [0.2, 0.3, 0.5])
        st = quantum.ChannelStatistics(joint)
        assert quantum.mutual_information(st) < 1e-14

    def test_perfect_identification(self):
        n = 4
        st = quantum.usd_channel_statistics(np.full(n, 1 / n), np.ones(n))
        assert quantum.mutual_information(st) == pytest.approx(np.log2(n), abs=1e-12)

    def test_error_free_identity(self, rng):
        # I = H(p) - P_f H(q) with q_x = p_x (1 - p_xx) / P_f
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            s = rng.uniform(0, 1, n)
            st = quantum.usd_channel_statistics(p, s)
            info = quantum.mutual_information(st)
            pf = st.failure_prob
            q = p * (1 - s) / pf
            expected = quantum.shannon_entropy(p) - pf * quantum.shannon_entropy(q)
            assert abs(info - expected) < 1e-10
