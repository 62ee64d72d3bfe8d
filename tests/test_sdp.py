import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from wpduality import matlin, quantum, sdp
from wpduality.discrimination import discriminate, outcome_from_solution, random_config


def sym_config(n, c):
    return quantum.InterferometerConfig(
        np.full(n, 1.0 / n), (1 - c) * np.eye(n) + c * np.ones((n, n))
    )


def support_gram(problem):
    """The diagonal Gram matrix on the problem's numerical support and its
    eigenvectors, as ``sdp.solve`` hands them to a core."""
    support = matlin.numerical_support(problem.spectrum)
    return np.diag(support.eigenvalues).astype(np.complex128), support.eigenvectors


def record_lu_solver(monkeypatch):
    """Patch ``matlin.lu_solver`` to record each factorization as a
    [shape, solves] pair, counting the solves made with its factor."""
    factors = []
    lu_solver = matlin.lu_solver

    def recording(a):
        entry = [np.shape(a), 0]
        factors.append(entry)
        solve = lu_solver(a)

        def counted(b):
            entry[1] += 1
            return solve(b)
        return counted

    monkeypatch.setattr(matlin, "lu_solver", recording)
    return factors


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

    @pytest.mark.parametrize("gram,budget,count", [
        (random_config(3, 3, 1).weighted_gram, True, 3),  # would solve at budget 1.0
        (random_config(3, 3, 1).weighted_gram, np.True_, 3),
        (random_config(3, 3, 1).weighted_gram, "0.05", 3),
        (random_config(3, 3, 1).weighted_gram, 0.05 + 0j, 3),
        (random_config(3, 3, 1).weighted_gram, 0.05, 3.0),
        (random_config(3, 3, 1).weighted_gram, 0.05, np.float64(3.0)),
        ([[1.0]], 0.05, True),
    ], ids=["true", "np-true", "str", "complex", "float-count", "np-float-count",
            "true-count"])
    def test_rejects_non_number_budget_and_count(self, gram, budget, count):
        with pytest.raises(matlin.ValidationError):
            sdp.BlockSdpProblem(gram, budget, count)
        if type(count) is int:  # a bad budget: the routes from a configuration reject it too
            cfg = random_config(3, 3, 1)
            for route in (sdp.build_problem, discriminate):
                with pytest.raises(matlin.ValidationError):
                    route(cfg, budget)

    def test_stores_a_float_budget_and_an_int_count(self):
        problem = sdp.BlockSdpProblem(random_config(3, 3, 1).weighted_gram,
                                      np.float32(0.25), np.int64(3))
        assert type(problem.error_budget) is float and problem.error_budget == 0.25
        assert type(problem.block_count) is int and problem.block_count == 3
        assert type(sdp.BlockSdpProblem(np.eye(2), 0, 2).error_budget) is float

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_one_decomposition_per_solve(self, monkeypatch, pe):
        """The problem's eigendecomposition is the only one a solve and its
        POVM read-back take."""
        cfg = random_config(4, 4, 5)
        calls = []
        eig = matlin.eig_hermitian

        def counting_eig(a):
            calls.append(a)
            return eig(a)

        monkeypatch.setattr(matlin, "eig_hermitian", counting_eig)
        solution = sdp.solve(sdp.build_problem(cfg, pe))
        assert solution.status == "optimal"
        sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        assert len(calls) == 1


def assert_solution_invariants(problem, solution):
    assert solution.status == "optimal"
    assert -1e-7 <= solution.objective <= 1 + 1e-7
    assert solution.gap <= 1e-6
    assert solution.error_used <= problem.error_budget + 1e-7
    for block in solution.blocks:
        assert np.linalg.eigvalsh(block).min() >= -1e-7
    assert np.linalg.eigvalsh(solution.slack_psd).min() >= -1e-7


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

    @pytest.mark.parametrize("n", [64, 256])
    def test_symmetric_failure_is_overlap_at_large_n(self, n):
        solution = sdp.solve(sdp.build_problem(sym_config(n, 0.5), 0.0))
        assert solution.status == "optimal"
        assert abs(solution.objective - 0.5) <= 1e-5

    @pytest.mark.parametrize("cfg", [
        random_config(5, 5, 3),
        # two identical states, then three identifiable ones: m = 3 < r = 4
        quantum.InterferometerConfig(np.full(5, 0.2), np.block([
            [np.ones((2, 2)), np.zeros((2, 3))],
            [np.zeros((3, 2)), random_config(3, 3, 2).gram]])),
    ], ids=["full-rank", "m3-r4"])
    def test_slack_is_gram_minus_the_blocks(self, cfg):
        """The slack formed from the weights, G - diag(w), is bit for bit
        G minus the sum of the returned blocks; at P_e > 0 the slack formed
        from the sum of the x_j agrees with it to rounding."""
        for pe in (0.0, 0.05):
            problem = sdp.build_problem(cfg, pe)
            solution = sdp.solve(problem)
            assert solution.status == "optimal"
            expected = sdp._herm(problem.gram - sum(solution.blocks))
            if pe == 0.0:
                assert np.array_equal(solution.slack_psd, expected)
            else:
                assert np.abs(solution.slack_psd - expected).max() <= 1e-14

    def test_identical_states_unidentifiable(self):
        cfg = quantum.InterferometerConfig([0.5, 0.5], np.ones((2, 2)))
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert solution.objective == 1.0
        assert all(np.abs(b).max() == 0.0 for b in solution.blocks)


class TestInvariances:
    """Permuting the paths (priors and Gram together), diagonal phases
    G -> D G D* and complex conjugation leave P_f* and the error used
    unchanged; each transformed solve must agree within the solve tolerance."""

    @staticmethod
    def transforms(cfg, rng):
        perm = rng.permutation(cfg.n_paths)
        phase = np.exp(2j * np.pi * rng.random(cfg.n_paths))
        return {
            "permutation": (cfg.priors[perm], cfg.gram[np.ix_(perm, perm)]),
            "phases": (cfg.priors, phase[:, None] * cfg.gram * phase.conj()[None, :]),
            "conjugation": (cfg.priors, cfg.gram.conj()),
        }

    @pytest.mark.parametrize("n,seeds", [(2, 4), (3, 4), (5, 4), (8, 4), (16, 2)])
    def test_solution_is_invariant(self, n, seeds):
        tol = sdp.SolverOptions().tolerance
        for s in range(seeds):
            cfg = random_config(n, n, 7000 + s)
            variants = self.transforms(cfg, np.random.default_rng(s))
            for pe in (0.0, 0.05):
                base = sdp.solve(sdp.build_problem(cfg, pe))
                assert base.status == "optimal"
                for name, (priors, gram) in variants.items():
                    moved = quantum.InterferometerConfig(priors, gram)
                    sol = sdp.solve(sdp.build_problem(moved, pe))
                    where = f"{name} at N = {n}, seed {7000 + s}, P_e = {pe}"
                    assert sol.status == "optimal", where
                    assert abs(sol.objective - base.objective) <= tol, where
                    assert abs(sol.error_used - base.error_used) <= tol, where


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

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    @pytest.mark.parametrize("cfg,rank", [(random_config(4, 4, 0), 4),
                                          (random_config(6, 3, 0), 3)],
                             ids=["full-rank", "rank-3"])
    def test_support_is_a_read_only_view(self, cfg, rank, pe):
        """The solution's support is the leading pairs of the problem's
        read-only decomposition, not a copy: writing to it raises, so no
        write can change the operators, blocks or joint formed from it."""
        problem = sdp.build_problem(cfg, pe)
        support = sdp.solve(problem).support
        assert support.eigenvalues.size == rank
        for array, whole in ((support.eigenvalues, problem.spectrum.eigenvalues),
                             (support.eigenvectors, problem.spectrum.eigenvectors)):
            assert np.shares_memory(array, whole)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_symmetric_success_probabilities(self):
        cfg = sym_config(3, 0.3)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        success = np.diag(stats.joint[:, :3]) / cfg.priors
        assert np.allclose(success, 0.7, atol=1e-5)

    def test_roundtrip_reproduces_objective_and_error(self, rng):
        """The POVM's channel statistics and ``outcome_from_solution`` read
        the same P_f and P_e back from a solution, to rounding."""
        for i in range(12):
            n = int(rng.integers(2, 6))
            cfg = random_config(n, n, 2000 + i)
            for pe in (0.0, 0.01, 0.05, 0.3):
                solution = sdp.solve(sdp.build_problem(cfg, pe))
                povm = sdp.extract_povm(solution, cfg)
                assert povm is solution
                stats = sdp.povm_channel_statistics(povm, cfg)
                outcome = outcome_from_solution(solution)
                for read_back in (solution.objective, outcome.p_failure):
                    assert stats.failure_prob == pytest.approx(read_back, abs=1e-12)
                for read_back in (solution.error_used, outcome.p_error):
                    assert stats.error_prob == pytest.approx(read_back, abs=1e-12)
                total = sum(povm.operators)
                assert np.linalg.eigvalsh(total).max() <= 1 + 1e-6
                for op in povm.operators:
                    assert np.linalg.eigvalsh(op).min() >= -1e-6
                assert np.linalg.eigvalsh(povm.failure_operator).min() >= -1e-6

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_statistics_are_the_block_diagonals(self, pe):
        """joint[i, j] = f_i^H Pi_j f_i equals (z_j)_ii, the POVM acts on the
        support the solve ran on, and each operator is F^{+H} z_j F^{+}, with
        F the Gram factor of the weighted Gram matrix."""
        shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 2),
                  (4, 2), (5, 3), (6, 2), (6, 4), (4, 4), (5, 5)]
        configs = [random_config(n, d, 3000 + i) for i, (n, d) in enumerate(shapes)]
        # Orthogonal states with one prior above the solve's relative cutoff
        # (5e-11 here) but below an absolute 1e-10.
        configs.append(quantum.InterferometerConfig([0.5, 0.5 - 7e-11, 7e-11], np.eye(3)))
        for cfg in configs:
            problem = sdp.build_problem(cfg, pe)
            solution = sdp.solve(problem)
            povm = sdp.extract_povm(solution, cfg)
            stats = sdp.povm_channel_statistics(povm, cfg)
            assert povm.support_dim == matlin.numerical_support(problem.spectrum).eigenvalues.size
            blocks = solution.blocks
            diagonals = np.stack([np.diag(z_j).real for z_j in blocks], axis=1)
            assert np.abs(stats.joint[:, : cfg.n_paths] - diagonals).max() <= 1e-12
            f = matlin.support_factor(matlin.psd_spectrum(problem.gram))  # decomposed anew
            f_pinv_h = f / (np.linalg.norm(f, axis=1) ** 2)[:, None]  # F F^H is diagonal
            for op, z_j in zip(povm.operators, blocks, strict=True):
                reference = f_pinv_h @ z_j @ f_pinv_h.conj().T
                assert np.abs(op - reference).max() <= 1e-12

    def test_zero_budget_statistics_are_the_weights(self):
        """At P_e = 0 block j is w_j |j><j|, so the conclusive statistics are
        diag(w) exactly and no error is made."""
        shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (5, 3), (6, 2), (8, 8)]
        configs = [random_config(n, d, s) for n, d in shapes for s in range(4)]
        configs.append(sym_config(16, 0.5))
        for cfg in configs:
            solution = sdp.solve(sdp.build_problem(cfg, 0.0))
            stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
            assert np.array_equal(stats.joint[:, : cfg.n_paths], np.diag(solution.reduced))
            assert stats.error_prob == 0.0

    def test_read_back_memory(self):
        """The read-back forms no operator list: at N = 128 it allocates
        about one r x r matrix at a time, where the list alone is 33 MB."""
        cfg = sym_config(128, 0.5)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        tracemalloc.start()
        try:
            stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert stats.failure_prob == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("read", [sdp.extract_povm, sdp.povm_channel_statistics],
                             ids=["extract_povm", "povm_channel_statistics"])
    def test_requires_optimal_status(self, read):
        cfg = sym_config(2, 0.4)
        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        bad = dataclasses.replace(solution, status="max-iterations", iterations=200)
        with pytest.raises(matlin.ValidationError):
            read(bad, cfg)

    @pytest.mark.parametrize("read", [sdp.extract_povm, sdp.povm_channel_statistics],
                             ids=["extract_povm", "povm_channel_statistics"])
    def test_requires_the_solved_path_count(self, read):
        solution = sdp.solve(sdp.build_problem(sym_config(2, 0.4), 0.0))
        with pytest.raises(matlin.ValidationError):
            read(solution, sym_config(3, 0.4))


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

    @pytest.mark.parametrize("field,value", [
        ("tolerance", 0.0), ("tolerance", -1.0), ("tolerance", float("nan")),
        ("tolerance", float("inf")), ("max_iterations", 0), ("max_iterations", -3),
        ("max_iterations", 2.5), ("max_iterations", True), ("tolerance", True),
        ("tolerance", "1e-7"), ("tolerance", None), ("tolerance", 1e-7 + 0j),
    ])
    def test_options_rejected(self, field, value):
        with pytest.raises(matlin.ValidationError):
            sdp.SolverOptions(**{field: value})

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_zero_gram_is_the_all_zero_answer(self, pe):
        """A zero Gram matrix has an empty support: at either budget the
        answer is all weights zero after 0 iterations."""
        gram = np.zeros((3, 3))
        solution = sdp.solve(sdp.BlockSdpProblem(gram, pe, 3))
        assert solution.status == "optimal"
        assert solution.objective == 1.0
        assert solution.iterations == 0
        assert solution.error_used == 0.0
        assert all(np.abs(b).max() == 0.0 for b in solution.blocks)
        assert np.array_equal(solution.slack_psd, gram)

    def test_iteration_cap_status(self):
        problem = sdp.build_problem(sym_config(3, 0.5), 0.03)
        solution = sdp.solve(problem, sdp.SolverOptions(max_iterations=2))
        assert solution.status == "max-iterations"

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_stalled_step_status(self, pe, monkeypatch):
        monkeypatch.setattr(sdp, "STEP_FRACTION", 1e-12)
        solution = sdp.solve(sdp.build_problem(random_config(4, 4, 5), pe))
        assert solution.status == "stalled"
        assert solution.iterations == 1

    @pytest.mark.parametrize("n,seed,pe,tol", [
        (3, 0, 0.0, 1e-14),
        (3, 0, 0.05, 1e-13),
        (2, 5, 0.05, 1e-12),  # the bordered Schur pivot cancels to zero
    ])
    def test_unattainable_tolerance_returns_breakdown(self, n, seed, pe, tol):
        problem = sdp.build_problem(random_config(n, n, seed), pe)
        solution = sdp.solve(problem, sdp.SolverOptions(tolerance=tol))
        assert solution.status == "breakdown"
        assert np.isfinite(solution.objective)
        assert np.isfinite(solution.dual_objective)
        assert np.isfinite(solution.error_used)
        assert solution.gap > 0

    def test_tight_tolerance(self):
        problem = sdp.build_problem(sym_config(3, 0.5), 0.0)
        solution = sdp.solve(problem, sdp.SolverOptions(tolerance=1e-9))
        assert solution.gap <= 1e-9
        assert solution.objective == pytest.approx(0.5, abs=1e-8)


class TestSchurSystem:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_schur_solve_inverts_a_w_a_adjoint(self, pe, seed):
        """schur_solver(W) solves A(W A*(y) W) = rhs for y, for either core."""
        problem = sdp.build_problem(random_config(4, 4, seed), pe)
        gt, q = support_gram(problem)
        core = sdp._MarginCore(gt, q.conj(), pe) if pe > 0 else sdp._UsdCore(gt, q.conj())
        x, _, z = core.initial_point()
        # the error row's slack is a float at P_e > 0, the surpluses a vector at P_e = 0
        scalings = [sdp._NtScaling(np.stack([x[0], z[0]])), core.orthant_scaling(x[1], z[1])]
        schur_solve = core.schur_solver(scalings)
        psd, orthant = scalings
        r = gt.shape[0]
        rng = np.random.default_rng(seed)
        for _ in range(2):  # at P_e > 0 the second call reuses the first call's T^-1 d
            if pe > 0:  # a Hermitian r x r multiplier, then the error row's real one
                m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                y = np.append((m + m.conj().T).reshape(-1), rng.standard_normal())
            else:  # one real multiplier per identifiable state
                y = rng.standard_normal(core.b.size)
            adj = core.apply_a_adjoint(y)
            # W Y W blockwise on the PSD stack, elementwise on the orthant part
            rhs = core.apply_a([psd.w @ adj[0] @ psd.w, orthant.w * adj[1] * orthant.w])
            solved = schur_solve(rhs)
            assert np.linalg.norm(solved - y) <= 1e-9 * np.linalg.norm(y)

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_schur_solves_per_iteration(self, monkeypatch, pe):
        """At P_e > 0 one Schur factorization per iteration and two solves
        with it, one per Newton step, and no other solve, inverse or Schur
        factorization: T^-1 d for the error row's border is a second column
        of the predictor's solve.  At P_e = 0 no ``lu_solver`` call, and one
        ``np.linalg.solve`` per Newton step.  Neither the NT scaling nor the
        step lengths solve or invert anything."""
        counts = {"solve": 0, "inv": 0, "cholesky": 0}
        factors = record_lu_solver(monkeypatch)
        monkeypatch.setattr(matlin, "LU_MIN_ORDER", 1)  # factor even the small Schur matrices

        def counting(name, func):
            def wrapped(a, *args):
                # NT scalings factor 3-D stacks; only a 2-D (Schur) Cholesky counts.
                counts[name] += name != "cholesky" or np.ndim(a) == 2
                return func(a, *args)
            return wrapped

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for n in (3, 12):
            counts.update(solve=0, inv=0, cholesky=0)
            factors.clear()
            solution = sdp.solve(sdp.build_problem(random_config(n, n, 0), pe))
            assert solution.status == "optimal"
            if pe:
                assert len(factors) == solution.iterations
                assert sum(solves for _, solves in factors) == 2 * solution.iterations
                # lu_solver factors the complex T itself, given the LAPACK symbols.
                assert counts["solve"] == (0 if matlin._lapack() else 2 * solution.iterations)
            else:
                assert factors == []
                assert counts["solve"] == 2 * solution.iterations
            assert counts["inv"] == 0
            assert counts["cholesky"] == 0

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_lapack_factor_and_fallback_solve_alike(self, monkeypatch, pe):
        """Solves through the LAPACK factor and through lu_solver's
        np.linalg.solve fallback end bit for bit alike (BLAS on one thread)."""
        problems = [sdp.build_problem(random_config(n, n, 3), pe) for n in (3, 5, 12)]
        monkeypatch.setattr(matlin, "LU_MIN_ORDER", 1)  # factor even the small Schur matrices
        lapack = [sdp.solve(problem) for problem in problems]
        monkeypatch.setattr(matlin, "_lapack", lambda: None)
        for problem, expected in zip(problems, lapack):
            solution = sdp.solve(problem)
            assert solution.status == expected.status == "optimal"
            assert solution.iterations == expected.iterations
            assert solution.objective == expected.objective
            assert solution.gap == expected.gap
            assert np.array_equal(solution.slack_psd, expected.slack_psd)

    def test_schur_workspace_is_reused_within_a_solve_only(self, monkeypatch):
        """At P_e > 0 every Schur factorization of a solve is of one
        F-ordered buffer, factored in place; another solve of the same
        problem gets a buffer of its own and ends bit for bit alike."""
        monkeypatch.setattr(matlin, "LU_MIN_ORDER", 1)  # factor even the small Schur matrices
        lu_solver = matlin.lu_solver
        matrices = []  # the references keep each solve's buffer alive

        def recording(a):
            matrices.append(a)
            return lu_solver(a)

        monkeypatch.setattr(matlin, "lu_solver", recording)
        problem = sdp.build_problem(random_config(12, 12, 0), 0.05)
        buffers, solutions = [], []
        for _ in range(2):
            matrices.clear()
            solutions.append(sdp.solve(problem))
            assert solutions[-1].status == "optimal"
            assert len(matrices) == solutions[-1].iterations
            assert all(a.flags.f_contiguous and a.flags.writeable and a.shape == (144, 144)
                       for a in matrices)
            assert {a.ctypes.data for a in matrices} == {matrices[0].ctypes.data}
            buffers.append(matrices[0])
        assert not np.shares_memory(*buffers)
        first, second = solutions
        assert second.iterations == first.iterations
        assert second.objective == first.objective and second.gap == first.gap
        assert np.array_equal(second.reduced, first.reduced)

    def test_usd_schur_matrix_is_m_by_m(self, monkeypatch):
        """At P_e = 0 each Newton step solves the real m x m Schur matrix of
        the m identifiable states, not an r^2 x r^2 one."""
        matrices = []
        solve = np.linalg.solve

        def recording(a, b):
            matrices.append(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        solution = sdp.solve(sdp.build_problem(random_config(12, 12, 0), 0.0))
        assert solution.status == "optimal"
        assert len(matrices) == 2 * solution.iterations
        assert {(a.dtype, a.shape) for a in matrices} == {(np.dtype(np.float64), (12, 12))}

    @pytest.mark.parametrize("cfg,m", [
        (random_config(4, 4, 0), 4),
        (random_config(12, 12, 1), 12),
        # two identical states, then three identifiable ones: m = 3 < r = 4
        (quantum.InterferometerConfig(np.full(5, 0.2), np.block([
            [np.ones((2, 2)), np.zeros((2, 3))],
            [np.zeros((3, 2)), random_config(3, 3, 2).gram]])), 3),
    ], ids=["n4", "n12", "m3-r4"])
    def test_usd_initial_point_is_strictly_feasible(self, cfg, m):
        problem = sdp.build_problem(cfg, 0.0)
        gt, q = support_gram(problem)
        core = sdp._UsdCore(gt, sdp._identifiable(q)[1])
        assert core.b.size == m
        x, y, z = core.initial_point()
        assert np.allclose(core.apply_a(x), core.b, rtol=0.0, atol=1e-15)
        adj = core.apply_a_adjoint(y)
        for c_b, z_b, adj_b in zip(core.cost, z, adj):
            assert np.array_equal(z_b, c_b - adj_b)
        for stack in (x[0], z[0]):  # Y and G - sum_j w_j q_j q_j^H
            assert np.linalg.eigvalsh(stack).min() > 0.0
        for surplus in (x[1], z[1]):  # the surpluses s and the weights w
            assert surplus.shape == (m,) and np.isrealobj(surplus)
            assert surplus.min() > 0.0


class TestStackedBlocks:
    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_eigvalsh_calls_per_iteration_do_not_grow_with_n(self, monkeypatch, pe):
        """One eigvalsh call per Newton step, on the PSD stack's primal and
        dual scaled directions together; the orthant part takes none."""
        eigvalsh = np.linalg.eigvalsh
        for n in (3, 12):
            calls = []

            def counting_eigvalsh(a):
                calls.append(a)
                return eigvalsh(a)

            monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
            solution = sdp.solve(sdp.build_problem(random_config(n, n, 0), pe))
            assert solution.status == "optimal"
            assert len(calls) == 2 * solution.iterations

    @pytest.mark.parametrize("pe", [0.0, 0.05])
    def test_no_factorization_of_a_size_one_block(self, monkeypatch, pe):
        """The 1 x 1 parts (the error row's slack, the surpluses) are scaled
        in closed form, so no eigvalsh, svd or cholesky call sees a 1 x 1 block."""
        sizes = []

        def recording(func):
            def wrapped(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return func(a, *args, **kwargs)
            return wrapped

        for name in ("eigvalsh", "svd", "cholesky"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        solution = sdp.solve(sdp.build_problem(random_config(4, 4, 0), pe))
        assert solution.status == "optimal"
        # 2 eigvalsh, 1 svd, and 1 cholesky call on the stack [X, Z]
        assert len(sizes) == 4 * solution.iterations
        assert min(sizes) == 4

    @pytest.mark.parametrize("d", [1, 4, sdp.CHOLESKY_MIN_ORDER])
    @pytest.mark.parametrize("primal", [True, False])
    def test_max_step_is_the_minimum_over_blocks(self, d, primal):
        """On stacks below and above the Gershgorin block-count rule, and of
        orders on either side of the Cholesky certificate's."""
        for k in (5, sdp.GERSHGORIN_MIN_BLOCKS + 2):
            rng = np.random.default_rng(d)

            def psd_stack(shift):
                m = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
                return m @ sdp._ct(m) + shift * np.eye(d)

            x, z = psd_stack(0.5), psd_stack(0.5)
            scaling = sdp._NtScaling(np.stack([x, z]))

            def max_step(sc, d):  # the other side's direction is zero, its step infinite
                zero = np.zeros_like(d)
                steps = sc.max_steps(sc.scaled(np.stack([d, zero] if primal else [zero, d])))
                assert steps[primal] == np.inf
                return steps[not primal]

            assert max_step(scaling, psd_stack(0.0)) == np.inf

            for limiting in range(k):
                direction = -psd_stack(0.1)  # every block leaves the cone ...
                direction[limiting] *= 1e4  # ... and this one first
                steps = [max_step(sdp._NtScaling(np.stack([x[j:j + 1], z[j:j + 1]])),
                                  direction[j:j + 1])
                         for j in range(k)]
                assert int(np.argmin(steps)) == limiting
                assert max_step(scaling, direction) == min(steps)

    @pytest.mark.parametrize("lam_min", [0.3, 1e-9])
    @pytest.mark.parametrize("primal", [True, False])
    def test_max_step_reaches_the_cone_boundary(self, lam_min, primal):
        """Oracle on the point itself: X + 0.999 alpha D stays PSD and
        X + 1.001 alpha D does not (Z for the dual side), on stacks below
        and above the Gershgorin block-count rule."""
        d = 5
        for k in (4, sdp.GERSHGORIN_MIN_BLOCKS + 2):
            rng = np.random.default_rng(11)

            def psd_stack():
                m = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
                q = np.linalg.qr(m)[0]
                spectrum = np.concatenate([np.full((k, 1), lam_min),
                                           rng.uniform(0.5, 2.0, (k, d - 1))], axis=1)
                return sdp._herm((q * spectrum[:, None, :]) @ sdp._ct(q))

            def hermitian_stack():
                return sdp._herm(rng.standard_normal((k, d, d))
                                 + 1j * rng.standard_normal((k, d, d)))

            x, z = psd_stack(), psd_stack()
            point = x if primal else z
            scaling = sdp._NtScaling(np.stack([x, z]))
            for _ in range(3):
                # the direction under test, and another one on the other side
                direction, other = hermitian_stack(), hermitian_stack()
                dx, dz = (direction, other) if primal else (other, direction)
                steps = scaling.max_steps(scaling.scaled(np.stack([dx, dz])))
                alpha = steps[not primal]
                assert 0.0 < alpha < np.inf
                assert np.linalg.eigvalsh(point + 0.999 * alpha * direction).min() >= 0.0
                assert np.linalg.eigvalsh(point + 1.001 * alpha * direction).min() < 0.0

    @pytest.mark.parametrize("k", [sdp.GERSHGORIN_MIN_BLOCKS - 1, sdp.GERSHGORIN_MIN_BLOCKS,
                                   sdp.GERSHGORIN_MIN_BLOCKS + 1, 49])
    @pytest.mark.parametrize("d", [1, 4, 9, 16])
    def test_lowest_eigenvalues_match_the_unfiltered_call(self, monkeypatch, k, d):
        """Bit for bit what one eigvalsh call on the whole stack gives, in one
        eigvalsh call, on random stacks: blocks spread out along the
        diagonal, which the Gershgorin pass and the Cholesky certificate
        prune, repeated blocks (ties), blocks dominated by their off-diagonal
        entries with norm 1e9, scales 1e-9 and 1e9, diagonal blocks (where
        the Ritz bound is exact, so the certificate must still keep the
        minimizing block), and a side's two lowest blocks made equal.  Below
        the block-count rule every block is eigensolved."""
        rng = np.random.default_rng(100 * k + d)
        eigvalsh = np.linalg.eigvalsh
        solved = []  # matrices per eigvalsh call

        def counting_eigvalsh(a):
            solved.append(int(np.prod(a.shape[:-2])))
            return eigvalsh(a)

        def hermitian(*shape):
            return sdp._herm(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        def spread(*shape):  # shifted blocks, Gershgorin radii about 0.4
            shifts = rng.uniform(-3.0, 3.0, shape[:2] + (1, 1))
            return shifts * np.eye(d) + 0.3 / d * hermitian(*shape)

        def tied(h):  # each side's lowest block copied over its second lowest
            lowest = np.argsort(eigvalsh(h)[..., 0], axis=1)
            for side in (0, 1):
                h[side, lowest[side, 1]] = h[side, lowest[side, 0]]
            return h

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        off_diagonal = 1.0 - np.eye(d)
        for _ in range(10):
            stacks = [
                spread(2, k, d, d),
                spread(2, 2, d, d)[:, rng.integers(0, 2, k)],  # every block one of two
                1e9 / d * hermitian(2, k, d, d) * off_diagonal + spread(2, k, d, d),
                1e-9 * spread(2, k, d, d),
                1e9 * spread(2, k, d, d),
                rng.uniform(-3.0, 3.0, (2, k, 1, d)) * np.eye(d) + 0j,
                tied(spread(2, k, d, d)),
            ]
            for h in stacks:
                calls = len(solved)
                got = sdp._lowest_eigenvalues(h)
                assert len(solved) == calls + 1
                want = eigvalsh(h)[..., 0].min(axis=1)
                assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]
        if k < sdp.GERSHGORIN_MIN_BLOCKS:
            assert set(solved) == {2 * k}
        else:
            assert sum(solved) < 0.8 * 2 * k * len(solved)  # the spread stacks prune

    @pytest.mark.parametrize("k,d", [
        pytest.param(k, d, id=f"{k}" if d == 4 else f"{k}-{d}")
        for d in (4, 16) for k in (3, sdp.GERSHGORIN_MIN_BLOCKS + 2)])
    def test_lowest_eigenvalues_of_non_finite_stacks(self, k, d):
        """A NaN or inf entry, in the block the Gershgorin pass or the
        Cholesky certificate would prune first, ends as in the unfiltered
        call, with no warning added (at order 16 the Ritz bounds' arithmetic
        meets the entry too): a NaN minimum, or LinAlgError, on the same
        entries.  eigvalsh returns NaN for an inf last diagonal entry and
        raises for the others."""
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((2, k, d, d)) + 1j * rng.standard_normal((2, k, d, d))
        h = sdp._herm(rng.uniform(-3.0, 3.0, (2, k, 1, 1)) * np.eye(d) + 0.3 * noise)
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (0, 1):
                highest = int(np.argmax(h[side].real.diagonal(axis1=-2, axis2=-1).min(axis=-1)))
                for (i, j), value in [((0, 2), np.nan), ((1, 1), np.nan), ((0, 2), np.inf),
                                      ((d - 1, d - 1), np.inf), ((d - 1, d - 1), -np.inf)]:
                    bad = h.copy()
                    bad[side, highest, i, j] = bad[side, highest, j, i] = value
                    try:
                        want = np.linalg.eigvalsh(bad)[..., 0].min(axis=1)
                    except np.linalg.LinAlgError:
                        with pytest.raises(np.linalg.LinAlgError):
                            sdp._lowest_eigenvalues(bad)
                        outcomes.add("raised")
                        continue
                    got = sdp._lowest_eigenvalues(bad)
                    assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]
                    outcomes.add("nan" if np.isnan(want[side]) else "number")
        assert outcomes == {"raised", "nan"}

    def test_certificate_prunes_the_order_16_margin_solve(self, monkeypatch):
        """At N = 16, P_e = 0.05 (blocks of order 16, at or above
        ``CHOLESKY_MIN_ORDER``) each Newton step makes one certificate call on
        both sides' blocks, and eigvalsh solves at most 12 of an iteration's
        68 blocks (8.3 on this instance; 43.8 under the Gershgorin pass)."""
        eigvalsh, succeeds = np.linalg.eigvalsh, matlin.cholesky_succeeds
        solved, certified = [], []

        def counting_eigvalsh(a):
            solved.append(int(np.prod(a.shape[:-2])))
            return eigvalsh(a)

        def counting_succeeds(a):
            certified.append(a.shape)
            return succeeds(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(matlin, "cholesky_succeeds", counting_succeeds)
        solution = sdp.solve(sdp.build_problem(random_config(16, 16, 0), 0.05))
        assert solution.status == "optimal"
        assert len(solved) == len(certified) == 2 * solution.iterations
        assert set(certified) == {(2, 17, 16, 16)}
        assert sum(solved) <= 12 * solution.iterations

    @pytest.mark.parametrize("n,rank,seeds,budgets", [
        (48, 4, range(4), (0.05, 0.2)),
        (16, 16, range(2), (0.05,)),
    ], ids=["n48-rank4", "n16"])
    def test_filtered_solves_match_unfiltered(self, monkeypatch, n, rank, seeds, budgets):
        """Solves whose stacks reach the Gershgorin pass end as they do with
        every block eigensolved: status, iterations and the repr of the
        objective, gap and error used."""
        eigvalsh = np.linalg.eigvalsh
        solved = []

        def counting_eigvalsh(a):
            solved.append(int(np.prod(a.shape[:-2])))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        problems = [sdp.build_problem(random_config(n, rank, seed), budget)
                    for seed in seeds for budget in budgets]
        filtered = [sdp.solve(problem) for problem in problems]
        assert max(solved) <= 2 * (n + 1) and sum(solved) < 2 * (n + 1) * len(solved)
        monkeypatch.setattr(sdp, "GERSHGORIN_MIN_BLOCKS", 10 ** 9)  # every block eigensolved
        for problem, expected in zip(problems, filtered):
            solution = sdp.solve(problem)
            assert solution.status == expected.status == "optimal"
            assert solution.iterations == expected.iterations
            for name in ("objective", "gap", "error_used"):
                assert repr(getattr(solution, name)) == repr(getattr(expected, name))

    @pytest.mark.parametrize("smallest", [0.3, 1e-9])
    def test_orthant_scaling_closed_form(self, smallest):
        """w z w = x and x / w = w z = lam at the closed-form scaling, and the
        step lengths reach the boundary of the orthant on either side."""
        rng = np.random.default_rng(5)
        m = 6
        x, z = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
        x[2], z[4] = smallest, smallest
        scaling = sdp._OrthantScaling(x, z)
        w = scaling.w
        assert np.allclose(w * z * w, x, rtol=1e-14, atol=0.0)
        assert np.allclose(x / w, scaling.lam, rtol=1e-14, atol=0.0)
        assert np.allclose(w * z, scaling.lam, rtol=1e-14, atol=0.0)
        for _ in range(3):
            dx, dz = rng.standard_normal(m), rng.standard_normal(m)
            alpha_p, alpha_d = scaling.max_steps(scaling.scaled((dx, dz)))
            for point, direction, alpha in ((x, dx, alpha_p), (z, dz, alpha_d)):
                assert 0.0 < alpha < np.inf
                assert (point + 0.999 * alpha * direction).min() >= 0.0
                assert (point + 1.001 * alpha * direction).min() < 0.0
        assert scaling.max_steps((np.abs(dx), np.abs(dz))) == (np.inf, np.inf)

    def test_orthant_scaling_matches_one_by_one_psd_blocks(self):
        """On the same numbers held as (m, 1, 1) PSD blocks, the NT scaling
        gives the same W D W, scaled directions, step lengths and corrector."""
        rng = np.random.default_rng(8)
        m = 5
        x, z = rng.uniform(0.1, 3.0, m), rng.uniform(0.1, 3.0, m)
        dx, dz = rng.standard_normal(m), rng.standard_normal(m)
        orthant = sdp._OrthantScaling(x, z)

        def blocks(v):
            return v.astype(np.complex128).reshape(m, 1, 1)

        psd = sdp._NtScaling(np.stack([blocks(x), blocks(z)]))
        du, dv = orthant.scaled((dx, dz))
        scaled_b = psd.scaled(np.stack([blocks(dx), blocks(dz)]))
        pairs = [
            (orthant.wdw(dx), psd.wdw(blocks(dx))),
            (du, scaled_b[0]),
            (dv, scaled_b[1]),
            (orthant.corrector((du, dv), 0.3), psd.corrector(scaled_b, 0.3)),
        ]
        for vector, stack in pairs:
            assert np.allclose(stack, blocks(vector), rtol=1e-13, atol=0.0)
        assert np.allclose(orthant.max_steps((du, dv)), psd.max_steps(scaled_b),
                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
    def test_scalar_scaling_matches_one_element_orthant(self, scale):
        """The float scaling of the error row gives, bit for bit, what
        ``_OrthantScaling`` gives on the same numbers as 1-element vectors:
        w, w^2, lam, W D W, the scaled pair, both step lengths (+inf where a
        direction does not reach the boundary) and the corrector."""
        rng = np.random.default_rng(9)
        infinite = [0, 0]  # steps that do not reach the boundary, per side
        for _ in range(200):
            x, z = (float(v) for v in scale * rng.uniform(1e-3, 3.0, 2))
            dx, dz, d = (float(v) for v in scale * rng.standard_normal(3))
            sigma_mu = float(scale * scale * rng.uniform(0.0, 1.0))
            scalar = sdp._ScalarScaling(x, z)
            vector = sdp._OrthantScaling(np.array([x]), np.array([z]))
            for got, want in [(scalar.w, vector.w), (scalar.w_sq, vector.w_sq),
                              (scalar.lam, vector.lam), (scalar.wdw(d), vector.wdw(np.array([d])))]:
                assert type(got) is float and same_bits(np.array([got]), want)
            du, dv = scalar.scaled((dx, dz))
            du_v, dv_v = vector.scaled((np.array([dx]), np.array([dz])))
            assert same_bits(np.array([du]), du_v) and same_bits(np.array([dv]), dv_v)
            for sign_u, sign_v in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)):
                steps = scalar.max_steps((sign_u * abs(du), sign_v * abs(dv)))
                want = vector.max_steps((sign_u * np.abs(du_v), sign_v * np.abs(dv_v)))
                assert [repr(v) for v in steps] == [repr(v) for v in want]
                infinite[0] += steps[0] == np.inf
                infinite[1] += steps[1] == np.inf
            corrector = scalar.corrector((du, dv), sigma_mu)
            assert type(corrector) is float
            assert same_bits(np.array([corrector]), vector.corrector((du_v, dv_v), sigma_mu))
        assert infinite == [400, 400]  # every nonnegative direction, and only those

    @pytest.mark.parametrize("x,z", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0)])
    def test_scalar_scaling_rejects_boundary_points(self, x, z):
        """A point off the orthant's interior raises LinAlgError, as in
        ``_OrthantScaling``; the solve ends as a breakdown."""
        for scaling, point in ((sdp._ScalarScaling, (x, z)),
                               (sdp._OrthantScaling, (np.array([x]), np.array([z])))):
            with pytest.raises(np.linalg.LinAlgError):
                scaling(*point)

    def test_scalar_scaling_underflow_raises_an_arithmetic_error(self):
        """Where w underflows to 0, the float division raises (numpy gave
        inf); ``_run_ipm`` ends the solve as a breakdown on it."""
        underflowed = sdp._ScalarScaling(1e-200, 1e200)
        assert underflowed.w == 0.0
        with pytest.raises(ZeroDivisionError):
            underflowed.scaled((1.0, 1.0))


def same_bits(a, b):
    """Bitwise equality of two arrays, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedSides:
    """The iteration's stacked forms against the one-side-at-a-time forms
    they replace, bit for bit: one Cholesky call on the point [X, Z], both
    sides' scaled directions in two batched matmuls on C-ordered factor
    stacks (one side's conjugate-transposed factors were strided copies),
    the corrector's diagonal as a strided view (it was fancy-indexed), the
    in-place halving in ``_herm`` and the inlined norm."""

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [3, sdp.GERSHGORIN_MIN_BLOCKS + 2])
    def test_scaling_matches_one_side_at_a_time(self, k, d):
        rng = np.random.default_rng(100 * k + d)

        def stack():
            return rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))

        def psd_stack():
            m = stack()
            return sdp._herm(m @ sdp._ct(m) + 0.5 * np.eye(d))

        x, z = psd_stack(), psd_stack()
        scaling = sdp._NtScaling(np.stack([x, z]))

        # The scaling one side at a time, each conjugate transpose a strided copy.
        lx = np.linalg.cholesky(x)
        lz_h = sdp._ct(np.linalg.cholesky(z))
        u, sig, vh = np.linalg.svd(lz_h @ lx)
        inv_root = 1.0 / np.sqrt(sig)
        rw = (lx @ sdp._ct(vh)) * inv_root[:, None, :]
        rw_h = sdp._ct(rw)
        rw_inv = inv_root[:, :, None] * (sdp._ct(u) @ lz_h)
        rw_inv_h = sdp._ct(rw_inv)
        assert not rw_h.flags.c_contiguous or d == 1  # the layout the stacks replace
        assert same_bits(scaling.lam, sig)
        for got, want in [(scaling.left[0], rw_inv), (scaling.left[1], rw_h),
                          (scaling.right[0], rw_inv_h), (scaling.right[1], rw),
                          (scaling.w, rw @ rw_h),
                          (scaling.inv_root_outer, inv_root[:, :, None] * inv_root[:, None, :])]:
            assert same_bits(got, want)

        for sigma_mu in (0.37, 1e-9):
            dx, dz = stack(), stack()
            scaled = scaling.scaled(np.stack([dx, dz]))
            du, dv = rw_inv @ dx @ rw_inv_h, rw_h @ dz @ rw
            assert same_bits(scaled[0], du) and same_bits(scaled[1], dv)

            h = np.stack([du, dv]) * scaling.inv_root_outer
            lowest = np.linalg.eigvalsh((h + sdp._ct(h)) / 2.0)[..., 0].min(axis=1)
            assert scaling.max_steps(scaled) == tuple(map(sdp._step_to_boundary, lowest))

            h2 = du @ dv
            num = -(h2 + sdp._ct(h2))
            idx = np.arange(d)
            num[:, idx, idx] += 2.0 * sigma_mu - 2.0 * sig ** 2
            num /= sig[:, :, None] + sig[:, None, :]
            assert same_bits(scaling.corrector(scaled, sigma_mu), rw @ num @ rw_h)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 2), (2, 5, 4, 4), (2, 17, 16, 16)])
    def test_herm_halves_in_place(self, shape):
        rng = np.random.default_rng(len(shape))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.imag[..., 0, 0] = -0.0  # signed zeros on the diagonal
        h = sdp._herm(m)
        assert same_bits(h, (m + sdp._ct(m)) / 2.0)
        assert h.flags.c_contiguous

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(1,), (7,), (26,), (6, 3, 3), (2, 17, 16, 16)])
    def test_norm_is_numpy_norm(self, complex_input, shape):
        """The value and its square, as the residual norms use them, also at
        scales where the squares underflow or overflow."""
        rng = np.random.default_rng(sum(shape))
        for scale in (1.0, 1e-170, 1e-3, 1e150, 1e200):
            v = scale * rng.standard_normal(shape)
            if complex_input:
                v = v + 1j * scale * rng.standard_normal(shape)
            v.reshape(-1)[0] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # overflow at 1e200
                got, want = sdp._norm(v), np.linalg.norm(v)
                assert type(got) is type(want) is np.float64
                assert same_bits(got, want)
                assert same_bits(got ** 2, want ** 2)
        assert same_bits(sdp._norm(np.zeros(shape)), np.linalg.norm(np.zeros(shape)))

    def test_norm_of_a_float_is_numpy_norm(self):
        """A float, the error row's part of a residual, as its 1-element vector."""
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e-170, 1e-3, 1e150, 1e200):
            for v in [0.0, -0.0] + [float(u) for u in scale * rng.standard_normal(20)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # overflow at 1e200
                    got, want = sdp._norm(v), np.linalg.norm([v])
                    assert type(got) is np.float64
                    assert same_bits(got, want)
                    assert same_bits(got ** 2, want ** 2)
