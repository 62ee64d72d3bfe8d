import numpy as np
import pytest

from wpduality import discrimination as disc
from wpduality import matlin, quantum, sdp


class TestOutcomeInvariants:
    def test_simplex_enforced(self):
        with pytest.raises(matlin.ValidationError):
            disc.DiscriminationOutcome(0.5, 0.2, 0.2, "sdp")

    def test_range_enforced(self):
        with pytest.raises(matlin.ValidationError):
            disc.DiscriminationOutcome(1.2, -0.2, 0.0, "sdp")

    def test_outcome_from_solution_clamps_error_to_conclusive(self):
        sol = sdp.BlockSdpSolution(
            support=matlin.EigenDecomposition(np.zeros(0), np.zeros((2, 0))),
            reduced=np.zeros(2), objective=0.4, slack_psd=np.zeros((2, 2)),
            error_used=0.6 + 1e-9, status="optimal", iterations=0,
            dual_objective=0.4, gap=0.0)
        out = disc.outcome_from_solution(sol)
        assert out.method == "sdp"
        assert out.p_failure == 0.4
        assert out.p_error == 1.0 - 0.4
        assert abs(out.p_success) <= 1e-15


class TestFamilyConfigs:
    def test_symmetric_overlap_range(self):
        disc.SymmetricConfig(3, -0.5)  # -1/(N-1) allowed
        with pytest.raises(matlin.ValidationError):
            disc.SymmetricConfig(3, -0.6)
        with pytest.raises(matlin.ValidationError):
            disc.SymmetricConfig(3, 1.2)

    def test_asymmetric_p_range(self):
        disc.AsymmetricConfig(4, 0.25)
        with pytest.raises(matlin.ValidationError):
            disc.AsymmetricConfig(4, 0.2)

    @pytest.mark.parametrize("make", [
        lambda n: disc.SymmetricConfig(n, 0.3),
        lambda n: disc.AsymmetricConfig(n, 0.5),
        lambda n: disc.random_config(n, 3, 1),
        lambda n: disc.random_config(3, n, 1),
        lambda n: disc.random_config(3, 3, n),
    ], ids=["symmetric", "asymmetric", "random-paths", "random-dim", "random-seed"])
    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, "3"])
    def test_rejects_non_integral_counts(self, make, n):
        # True would count as 1, and 2.5 paths would give a closed-form number
        with pytest.raises(matlin.ValidationError):
            make(n)

    def test_materialized_configs_valid(self):
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(5, 0.6))
        assert cfg.n_paths == 5
        cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(4, 0.7))
        d = np.sqrt(0.3 / (0.7 * 3))
        assert cfg.gram[0, 3] == pytest.approx(d, abs=1e-15)
        assert cfg.priors[3] == pytest.approx(0.7)


class TestLambdaMinRule:
    def test_orthogonal(self):
        cfg = quantum.InterferometerConfig([0.25] * 4, np.eye(4))
        out = disc.usd_failure_lambda_min(cfg)
        assert out.p_failure == 0.0
        assert out.p_error == 0.0

    @pytest.mark.parametrize("n,c", [(2, 0.3), (3, 0.5), (5, 0.2)])
    def test_symmetric_equals_overlap(self, n, c):
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(n, c))
        assert disc.usd_failure_lambda_min(cfg).p_failure == pytest.approx(c, abs=1e-10)

    def test_two_state_matches_sdp(self):
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(2, 0.3))
        out = disc.usd_failure_lambda_min(cfg)
        sol = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert out.p_failure == pytest.approx(sol.objective, abs=1e-6)

    def test_symmetric_matches_sdp_in_regime(self):
        for n, c in [(3, 0.25), (4, 0.6), (3, -0.3)]:
            cfg = disc.symmetric_interferometer(disc.SymmetricConfig(n, c))
            sol = sdp.solve(sdp.build_problem(cfg, 0.0))
            assert disc.usd_failure_lambda_min(cfg).p_failure == pytest.approx(
                sol.objective, abs=1e-5
            )

    @pytest.mark.parametrize("n,real", [(3, False), (4, False), (5, True), (8, False)])
    def test_circulant_gram_matches_sdp(self, n, real):
        """Every full-rank circulant Gram matrix with uniform priors is in
        the rule's exact regime: Gamma = F^H diag(g) F / N with F the DFT and
        positive eigenvalues g of mean 1 (unit diagonal); g_k = g_{N-k}
        makes Gamma real."""
        rng = np.random.default_rng(n)
        for _ in range(3):
            g = rng.uniform(0.1, 2.0, n)
            if real:
                g = (g + np.roll(g[::-1], 1)) / 2.0
            g /= g.mean()
            dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
            gram = dft.conj().T @ (g[:, None] * dft) / n
            if real:
                assert np.abs(gram.imag).max() < 1e-15
                gram = gram.real
            first_row = gram[0]
            assert np.allclose(gram, [np.roll(first_row, j) for j in range(n)], atol=1e-14)
            cfg = quantum.InterferometerConfig(np.full(n, 1.0 / n), gram)
            rule = disc.usd_failure_lambda_min(cfg).p_failure
            solution = sdp.solve(sdp.build_problem(cfg, 0.0))
            assert solution.status == "optimal"
            assert rule == pytest.approx(1.0 - g.min(), abs=1e-12)
            assert solution.objective == pytest.approx(rule, abs=1e-6)

    def test_not_tight_for_general_overlaps(self):
        # With unequal overlaps the smallest-eigenvalue value only upper
        # bounds the optimal failure probability; general configurations are
        # therefore routed to the SDP instead.
        gram = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cfg = quantum.InterferometerConfig([1 / 3] * 3, gram)
        rule = disc.usd_failure_lambda_min(cfg).p_failure
        optimal = sdp.solve(sdp.build_problem(cfg, 0.0)).objective
        assert optimal == pytest.approx(0.6, abs=1e-6)
        assert rule == pytest.approx(0.9, abs=1e-12)
        assert optimal < rule - 0.25

    def test_rejects_nonuniform_priors(self):
        cfg = quantum.InterferometerConfig([0.6, 0.4], np.eye(2))
        with pytest.raises(matlin.ValidationError):
            disc.usd_failure_lambda_min(cfg)

    def test_rejects_rank_deficient(self):
        cfg = quantum.InterferometerConfig([0.5, 0.5], np.ones((2, 2)))
        with pytest.raises(matlin.ValidationError):
            disc.usd_failure_lambda_min(cfg)

    def test_rejects_below_support_cutoff(self):
        # Gamma has eigenvalues 3, 2e-10, 2e-10, below SUPPORT_RTOL * 3: rank 1.
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(3, 1 - 2e-10))
        with pytest.raises(matlin.ValidationError, match="linearly independent"):
            disc.usd_failure_lambda_min(cfg)

    def test_rank_rule_shared_with_sdp(self):
        # Gamma has eigenvalues 3, 5e-10, 5e-10: all three lie in the
        # numerical support, so the SDP and the rule both see full rank.
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(3, 1 - 5e-10))
        sol = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert sol.status == "optimal"
        assert sol.support.eigenvalues.size == 3
        out = disc.usd_failure_lambda_min(cfg)
        assert out.p_failure == pytest.approx(1 - 5e-10, abs=1e-12)
        assert out.p_failure == pytest.approx(sol.objective, abs=1e-9)

    def test_reads_the_config_spectrum(self, monkeypatch):
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(4, 0.3))
        calls = []
        eig = matlin.eig_hermitian
        monkeypatch.setattr(matlin, "eig_hermitian", lambda a: calls.append(a) or eig(a))
        assert disc.usd_failure_lambda_min(cfg).p_failure == pytest.approx(0.3, abs=1e-12)
        assert calls == []


class TestSymmetricErrorMargin:
    def test_zero_budget_recovers_overlap(self):
        out = disc.symmetric_error_margin(disc.SymmetricConfig(4, 0.35), 0.0)
        assert out.p_failure == 0.35
        assert out.p_error == 0.0

    def test_orthogonal_states(self):
        out = disc.symmetric_error_margin(disc.SymmetricConfig(3, 0.0), 0.0)
        assert out.p_failure == 0.0

    def test_derived_value_matches_sdp(self):
        cfg = disc.SymmetricConfig(3, 0.4)
        out = disc.symmetric_error_margin(cfg, 0.05)
        expected = 0.4 - 2 * np.sqrt(0.6 * 0.05 / 2) - 3 * 0.05 / 2
        assert out.p_failure == pytest.approx(expected, abs=1e-12)
        sol = sdp.solve(sdp.build_problem(disc.symmetric_interferometer(cfg), 0.05))
        assert out.p_failure == pytest.approx(sol.objective, abs=1e-5)

    def test_budget_beyond_min_error_flagged(self):
        cfg = disc.SymmetricConfig(2, 0.5)
        pe_min = disc.symmetric_min_error(cfg)
        out = disc.symmetric_error_margin(cfg, pe_min + 0.1)
        assert out.budget_exceeded
        assert out.p_failure == 0.0
        assert out.p_error == pytest.approx(pe_min, abs=1e-12)

    @pytest.mark.parametrize("budget", [True, 1.5, "0.1", -0.1, float("nan")])
    def test_symmetric_route_rejects_what_the_sdp_route_does(self, budget):
        """One budget rule on both routes of ``discriminate``: a real number,
        not a bool, in [0, 1]."""
        symmetric = disc.symmetric_interferometer(disc.SymmetricConfig(3, 0.3))
        for cfg in (symmetric, disc.random_config(3, 3, 0)):
            with pytest.raises(matlin.ValidationError):
                disc.discriminate(cfg, budget)

    def test_budget_up_to_one_flagged_on_the_symmetric_route(self):
        cfg = disc.SymmetricConfig(3, 0.3)
        out = disc.discriminate(disc.symmetric_interferometer(cfg), 1.0)
        assert out.method == "analytic-symmetric" and out.budget_exceeded
        assert out.p_error == pytest.approx(disc.symmetric_min_error(cfg), abs=1e-12)

    def test_failure_vanishes_at_min_error(self):
        for n, c in [(2, 0.5), (3, 0.4), (5, 0.7)]:
            cfg = disc.SymmetricConfig(n, c)
            out = disc.symmetric_error_margin(cfg, disc.symmetric_min_error(cfg))
            assert out.p_failure == pytest.approx(0.0, abs=1e-12)

    def test_min_error_matches_square_root_measurement(self):
        # 1 - (1/N^2) (sqrt(1+(N-1)c) + (N-1) sqrt(1-c))^2, negative overlaps included
        for n, c in [(2, 0.5), (3, 0.4), (4, 0.8), (3, -0.4), (2, -1.0), (4, -1 / 3)]:
            srm = 1 - (np.sqrt(1 + (n - 1) * c) + (n - 1) * np.sqrt(1 - c)) ** 2 / n**2
            assert disc.symmetric_min_error(disc.SymmetricConfig(n, c)) == pytest.approx(
                srm, abs=1e-12
            )
        assert disc.symmetric_min_error(disc.SymmetricConfig(3, -0.4)) == pytest.approx(
            0.120377661239, abs=1e-12)

    def test_min_error_at_a_negative_overlap_matches_the_sdp(self):
        """At the minimum error the SDP fails with probability 0, and at 0.8
        of it not: the closed form is the least budget with no failure."""
        cfg = disc.SymmetricConfig(3, -0.4)
        pe_min = disc.symmetric_min_error(cfg)
        states = disc.symmetric_interferometer(cfg)
        at_min = sdp.solve(sdp.build_problem(states, pe_min))
        below = sdp.solve(sdp.build_problem(states, 0.8 * pe_min))
        assert at_min.status == below.status == "optimal"
        assert at_min.objective <= 1e-7
        assert below.objective >= 0.1

    def test_monotone_nonincreasing_in_budget(self):
        cfg = disc.SymmetricConfig(4, 0.6)
        grid = np.linspace(0, disc.symmetric_min_error(cfg), 40)
        values = [disc.symmetric_error_margin(cfg, pe).p_failure for pe in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_negative_overlap(self):
        with pytest.raises(matlin.ValidationError):
            disc.symmetric_error_margin(disc.SymmetricConfig(3, -0.2), 0.0)


class TestAsymmetricFamily:
    def test_usd_endpoints(self):
        assert disc.asymmetric_usd(disc.AsymmetricConfig(5, 1.0)).p_failure == 0.0
        assert disc.asymmetric_usd(disc.AsymmetricConfig(5, 0.2)).p_failure == 1.0

    def test_usd_derived_value(self):
        assert disc.asymmetric_usd(disc.AsymmetricConfig(4, 0.7)).p_failure == pytest.approx(
            0.4, abs=1e-12
        )

    @pytest.mark.parametrize("n,p", [(3, 0.5), (4, 0.7), (6, 0.9)])
    def test_usd_matches_sdp_on_explicit_gram(self, n, p):
        cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, p))
        sol = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert sol.objective == pytest.approx(
            disc.asymmetric_usd(disc.AsymmetricConfig(n, p)).p_failure, abs=1e-5
        )

    def test_coherence_endpoints(self):
        assert disc.asymmetric_coherence(disc.AsymmetricConfig(3, 1.0)) == 0.0
        n = 8
        assert disc.asymmetric_coherence(disc.AsymmetricConfig(n, 1 / n)) == pytest.approx(
            np.log2(n), abs=1e-12
        )

    @pytest.mark.parametrize("n,p", [(16, 0.6), (3, 0.4), (8, 0.2), (2, 0.9)])
    def test_coherence_matches_explicit_construction(self, n, p):
        cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, p))
        assert disc.asymmetric_coherence(disc.AsymmetricConfig(n, p)) == pytest.approx(
            quantum.coherence_rel_ent(cfg), abs=1e-8
        )


class TestSymmetricCoherence:
    def test_endpoints(self):
        assert disc.symmetric_coherence(disc.SymmetricConfig(4, 0.0)) == 0.0
        assert disc.symmetric_coherence(disc.SymmetricConfig(4, 1.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_two_path_value(self):
        assert disc.symmetric_coherence(disc.SymmetricConfig(2, 0.5)) == pytest.approx(
            0.188722, abs=1e-6
        )

    def test_matches_density_matrix_route(self):
        for n, c in [(2, 0.5), (3, 0.7), (8, 0.15), (16, 0.9)]:
            cfg = disc.symmetric_interferometer(disc.SymmetricConfig(n, c))
            assert disc.symmetric_coherence(disc.SymmetricConfig(n, c)) == pytest.approx(
                quantum.coherence_rel_ent(cfg), abs=1e-10
            )


class TestRandomConfig:
    def test_deterministic_for_fixed_seed(self):
        a = disc.random_config(3, 3, 42)
        b = disc.random_config(3, 3, 42)
        assert a.gram.tobytes() == b.gram.tobytes()
        assert a.priors.tobytes() == b.priors.tobytes()

    def test_different_seeds_differ(self):
        a = disc.random_config(3, 3, 1)
        b = disc.random_config(3, 3, 2)
        assert not np.allclose(a.gram, b.gram)

    def test_generic_position_full_rank(self):
        cfg = disc.random_config(4, 4, 7)
        assert matlin.eig_hermitian(cfg.gram).eigenvalues[-1] > 1e-3

    def test_detector_dim_one_has_unit_coherence(self):
        cfg = disc.random_config(3, 1, 5)
        assert np.abs(np.abs(cfg.gram) - 1.0).max() < 1e-12
        assert quantum.coherence_rel_ent(cfg) == pytest.approx(
            quantum.shannon_entropy(cfg.priors), abs=1e-10
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(matlin.ValidationError):
            disc.random_config(3, 0, 1)


class TestAnalyticVersusSdpSweeps:
    def test_symmetric_grid(self):
        budgets = (0.0, 0.01, 0.04)
        for n in (2, 3, 4, 8):
            for c in (0.2, 0.45, 0.7, 0.9):
                family = disc.SymmetricConfig(n, c)
                cfg = disc.symmetric_interferometer(family)
                gram = sdp.build_problem(cfg, 0.0).gram
                for pe in budgets:
                    if pe > disc.symmetric_min_error(family):
                        continue
                    closed = disc.symmetric_error_margin(family, pe).p_failure
                    sol = sdp.solve(sdp.BlockSdpProblem(gram, pe, n))
                    assert sol.objective == pytest.approx(closed, abs=1e-5), (n, c, pe)

    def test_asymmetric_nonuniform_priors(self):
        for n in (2, 3, 5):
            for p in (0.4, 0.7, 0.95):
                if p < 1 / n:
                    continue
                cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, p))
                sol = sdp.solve(sdp.build_problem(cfg, 0.0))
                closed = disc.asymmetric_usd(disc.AsymmetricConfig(n, p)).p_failure
                assert sol.objective == pytest.approx(closed, abs=1e-5), (n, p)


class TestDiscriminateFacade:
    def test_symmetric_dispatches_to_closed_form(self):
        cfg = disc.symmetric_interferometer(disc.SymmetricConfig(3, 0.4))
        out = disc.discriminate(cfg, 0.05)
        assert out.method == "analytic-symmetric"
        assert out.p_failure == pytest.approx(
            disc.symmetric_error_margin(disc.SymmetricConfig(3, 0.4), 0.05).p_failure,
            abs=1e-12,
        )

    def test_general_config_uses_sdp(self):
        cfg = disc.random_config(3, 3, 11)
        out = disc.discriminate(cfg, 0.02)
        assert out.method == "sdp"
        assert out.p_error <= 0.02 + 1e-7

    def test_facade_agrees_with_direct_solve(self):
        cfg = disc.random_config(4, 4, 13)
        out = disc.discriminate(cfg)
        sol = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert out.p_failure == pytest.approx(sol.objective, abs=1e-9)

    # At P_e = 0 this configuration reaches tolerance 1e-13 but not 1e-14.
    @pytest.mark.parametrize("pe,tol", [(0.0, 1e-14), (0.05, 1e-13)], ids=["0.0", "0.05"])
    def test_non_optimal_solve_raises(self, pe, tol):
        cfg = disc.random_config(3, 3, 0)
        with pytest.raises(sdp.NumericalBreakdownError, match="'breakdown'"):
            disc.discriminate(cfg, pe, sdp.SolverOptions(tolerance=tol))
