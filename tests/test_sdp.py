import numpy as np
import pytest

from wpduality import matlin, quantum, sdp
from wpduality.discrimination import random_config


def sym_config(n, c):
    return quantum.InterferometerConfig(
        np.full(n, 1.0 / n), (1 - c) * np.eye(n) + c * np.ones((n, n))
    )


def two_state_margin_oracle(c, budget):
    """Optimal failure probability for two equiprobable states, overlap c.

    Independent of the solver: scans the mirror-symmetric measurement family
    {a |u_1><u_1|, a |u_2><u_2|, rest}, whose achieved pairs are

        P_f(x) = x (1 + c) / (1 + x),
        P_e(x) = (1 - x c - sqrt(1 - x^2) sqrt(1 - c^2)) / (2 (1 + x)),

    for x in [0, c]; P_e is decreasing in x, so the optimum at the budget is
    found by bisection on x.
    """

    def p_err(x):
        return (1 - x * c - np.sqrt(1 - x * x) * np.sqrt(1 - c * c)) / (2 * (1 + x))

    def p_fail(x):
        return x * (1 + c) / (1 + x)

    if budget <= 0:
        return c
    if budget >= p_err(0.0):
        return 0.0
    lo, hi = 0.0, c
    for _ in range(200):
        mid = (lo + hi) / 2
        if p_err(mid) > budget:
            lo = mid
        else:
            hi = mid
    return p_fail((lo + hi) / 2)


def two_state_usd_oracle(p1, p2, c):
    """Optimal zero-error failure probability for two pure states."""
    if np.sqrt(min(p1, p2) / max(p1, p2)) >= c:
        return 2 * np.sqrt(p1 * p2) * c
    return min(p1, p2) + max(p1, p2) * c * c


class TestBuildProblem:
    def test_uniform_priors_scale_gram(self):
        cfg = sym_config(3, 0.4)
        problem = sdp.build_problem(cfg, 0.0)
        assert np.allclose(problem.gram, cfg.gram / 3)

    def test_weighted_two_state(self):
        cfg = quantum.InterferometerConfig([0.3, 0.7], [[1, 0.5], [0.5, 1]])
        problem = sdp.build_problem(cfg, 0.1)
        off = 0.5 * np.sqrt(0.21)
        assert np.allclose(problem.gram, [[0.3, off], [off, 0.7]])

    def test_degenerate_priors_allowed(self):
        cfg = quantum.InterferometerConfig([1.0, 0.0, 0.0], np.eye(3))
        problem = sdp.build_problem(cfg, 0.0)
        assert problem.gram[0, 0] == 1.0
        assert np.abs(problem.gram[1:, :]).max() == 0.0

    def test_rejects_bad_budget(self):
        cfg = sym_config(2, 0.1)
        with pytest.raises(matlin.ValidationError):
            sdp.build_problem(cfg, 1.5)

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_one_decomposition_per_solve(self, monkeypatch, pe):
        cfg = random_config(4, 4, 5)
        calls = []
        eig = matlin.eig_hermitian

        def counting_eig(a):
            calls.append(a)
            return eig(a)

        monkeypatch.setattr(matlin, "eig_hermitian", counting_eig)
        assert sdp.solve(sdp.build_problem(cfg, pe)).status == "optimal"
        assert len(calls) == 1


def assert_solution_invariants(problem, solution):
    assert solution.status == "optimal"
    assert -1e-7 <= solution.objective <= 1 + 1e-7
    assert solution.gap <= 1e-6
    assert solution.error_used <= problem.error_budget + 1e-7
    for block in solution.blocks:
        assert np.linalg.eigvalsh(block).min() >= -1e-7
    assert matlin.is_psd(solution.slack_psd, tol=1e-7)


class TestSolveUnambiguous:
    def test_orthogonal_states(self):
        problem = sdp.build_problem(quantum.InterferometerConfig([0.25] * 4, np.eye(4)), 0.0)
        solution = sdp.solve(problem)
        assert solution.objective == pytest.approx(0.0, abs=1e-6)
        assert_solution_invariants(problem, solution)

    @pytest.mark.parametrize("n,c", [(2, 0.3), (3, 0.5), (4, 0.25), (8, 0.7)])
    def test_symmetric_failure_is_overlap(self, n, c):
        problem = sdp.build_problem(sym_config(n, c), 0.0)
        solution = sdp.solve(problem)
        assert solution.objective == pytest.approx(c, abs=1e-6)
        assert_solution_invariants(problem, solution)

    def test_two_state_oracle_uniform(self):
        problem = sdp.build_problem(sym_config(2, 0.3), 0.0)
        assert sdp.solve(problem).objective == pytest.approx(
            two_state_usd_oracle(0.5, 0.5, 0.3), abs=1e-6
        )

    @pytest.mark.parametrize("p1,c", [(0.3, 0.5), (0.45, 0.2), (0.05, 0.6)])
    def test_two_state_oracle_weighted(self, p1, c):
        cfg = quantum.InterferometerConfig([p1, 1 - p1], [[1, c], [c, 1]])
        problem = sdp.build_problem(cfg, 0.0)
        assert sdp.solve(problem).objective == pytest.approx(
            two_state_usd_oracle(p1, 1 - p1, c), abs=1e-6
        )

    def test_identical_states_unidentifiable(self):
        cfg = quantum.InterferometerConfig([0.5, 0.5], np.ones((2, 2)))
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert solution.objective == 1.0
        assert all(np.abs(b).max() == 0.0 for b in solution.blocks)


class TestSolveErrorMargin:
    @pytest.mark.parametrize(
        "n,c,pe",
        [(3, 0.4, 0.05), (2, 0.5, 0.01), (4, 0.6, 0.1), (3, 0.2, 0.001)],
    )
    def test_symmetric_closed_form(self, n, c, pe):
        expected = c - 2 * np.sqrt((1 - c) * pe / (n - 1)) - n * pe / (n - 1)
        problem = sdp.build_problem(sym_config(n, c), pe)
        solution = sdp.solve(problem)
        assert solution.objective == pytest.approx(expected, abs=1e-5)
        assert solution.error_used == pytest.approx(pe, abs=1e-6)
        assert_solution_invariants(problem, solution)

    @pytest.mark.parametrize("c,pe", [(0.5, 0.01), (0.5, 0.05), (0.8, 0.02), (0.3, 0.005)])
    def test_two_state_brute_force_oracle(self, c, pe):
        problem = sdp.build_problem(sym_config(2, c), pe)
        solution = sdp.solve(problem)
        assert solution.objective == pytest.approx(
            two_state_margin_oracle(c, pe), abs=1e-5
        )

    def test_budget_beyond_min_error_clamps_to_zero(self):
        solution = sdp.solve(sdp.build_problem(sym_config(2, 0.5), 0.3))
        assert solution.objective == pytest.approx(0.0, abs=1e-6)
        assert solution.objective >= 0.0

    def test_monotone_in_budget(self):
        problem0 = sdp.build_problem(sym_config(3, 0.6), 0.0)
        values = []
        for pe in (0.0, 0.01, 0.03, 0.08, 0.15, 0.4):
            sol = sdp.solve(sdp.BlockSdpProblem(problem0.gram, pe, 3))
            values.append(sol.objective)
        assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))

    def test_random_configs_feasible(self, rng):
        for i in range(10):
            cfg = random_config(int(rng.integers(2, 6)), 5, 1000 + i)
            for pe in (0.0, 0.02, 0.2):
                problem = sdp.build_problem(cfg, pe)
                assert_solution_invariants(problem, sdp.solve(problem))


class TestExtractPovm:
    def test_orthogonal_states_projectors(self):
        cfg = quantum.InterferometerConfig([0.25] * 4, np.eye(4))
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        povm = sdp.extract_povm(solution, cfg)
        stats = sdp.povm_channel_statistics(povm, cfg)
        for j, op in enumerate(povm.operators):
            w = np.linalg.eigvalsh(op)
            assert w[-1] == pytest.approx(1.0, abs=1e-6)
            assert np.abs(w[:-1]).max() < 1e-6
        assert stats.failure_prob < 1e-6

    def test_identical_states_fail_operator_is_identity(self):
        cfg = quantum.InterferometerConfig([0.5, 0.5], np.ones((2, 2)))
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        povm = sdp.extract_povm(solution, cfg)
        assert povm.rank_deficient
        assert all(np.abs(op).max() < 1e-9 for op in povm.operators)
        assert np.allclose(povm.failure_operator, np.eye(povm.support_dim))

    def test_symmetric_success_probabilities(self):
        cfg = sym_config(3, 0.3)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        success = np.diag(stats.joint[:, :3]) / cfg.priors
        assert np.allclose(success, 0.7, atol=1e-5)

    def test_roundtrip_reproduces_objective_and_error(self, rng):
        for i in range(12):
            n = int(rng.integers(2, 6))
            cfg = random_config(n, n, 2000 + i)
            for pe in (0.0, 0.05):
                solution = sdp.solve(sdp.build_problem(cfg, pe))
                povm = sdp.extract_povm(solution, cfg)
                stats = sdp.povm_channel_statistics(povm, cfg)
                assert stats.failure_prob == pytest.approx(solution.objective, abs=1e-6)
                assert stats.error_prob == pytest.approx(solution.error_used, abs=1e-6)
                total = sum(povm.operators)
                assert np.linalg.eigvalsh(total).max() <= 1 + 1e-6
                for op in povm.operators:
                    assert np.linalg.eigvalsh(op).min() >= -1e-6
                assert np.linalg.eigvalsh(povm.failure_operator).min() >= -1e-6

    def test_requires_optimal_status(self):
        cfg = sym_config(2, 0.4)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        bad = sdp.BlockSdpSolution(
            blocks=solution.blocks,
            objective=solution.objective,
            slack_psd=solution.slack_psd,
            error_used=solution.error_used,
            status="max-iterations",
            iterations=200,
            dual_objective=solution.dual_objective,
            gap=solution.gap,
        )
        with pytest.raises(matlin.ValidationError):
            sdp.extract_povm(bad, cfg)


class TestAsymmetricGram:
    @pytest.mark.parametrize("n,p", [(2, 0.8), (4, 0.7), (8, 0.5)])
    def test_rank_two_gram_failure(self, n, p):
        d = np.sqrt((1 - p) / (p * (n - 1)))
        gram = np.ones((n, n))
        gram[:, n - 1] = d
        gram[n - 1, :] = d
        gram[n - 1, n - 1] = 1.0
        priors = np.full(n, (1 - p) / (n - 1))
        priors[n - 1] = p
        cfg = quantum.InterferometerConfig(priors, gram)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert solution.objective == pytest.approx(n * (1 - p) / (n - 1), abs=1e-6)


class TestSolverDiagnostics:
    def test_dual_certificate(self):
        solution = sdp.solve(sdp.build_problem(sym_config(4, 0.35), 0.02))
        assert solution.dual_objective <= solution.objective + 1e-6
        assert abs(solution.objective - solution.dual_objective) <= 1e-6

    def test_iteration_cap_status(self):
        problem = sdp.build_problem(sym_config(3, 0.5), 0.03)
        solution = sdp.solve(problem, sdp.SolverOptions(max_iterations=2))
        assert solution.status == "max-iterations"

    def test_tight_tolerance(self):
        problem = sdp.build_problem(sym_config(3, 0.5), 0.0)
        solution = sdp.solve(problem, sdp.SolverOptions(tolerance=1e-9))
        assert solution.gap <= 1e-9
        assert solution.objective == pytest.approx(0.5, abs=1e-8)
