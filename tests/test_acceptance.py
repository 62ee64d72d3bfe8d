"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
fails the run on any violated criterion.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from wpduality import cli, discrimination as disc
from wpduality import duality, matlin, quantum, sdp

C_GRID_1 = tuple(round(0.1 * k, 1) for k in range(1, 10))
N_GRID_1 = (2, 3, 4, 8, 16)

_crit1_cache = None


def _verdict(number, ok, detail):
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def sym_config(n, c):
    return quantum.InterferometerConfig(
        np.full(n, 1.0 / n), (1 - c) * np.eye(n) + c * np.ones((n, n))
    )


def margin_closed_form(n, c, pe):
    return c - 2 * math.sqrt((1 - c) * pe / (n - 1)) - n * pe / (n - 1)


def min_error_oracle(n, c):
    # square-root-measurement value, evaluated independently of the package
    return 1 - (math.sqrt(1 + (n - 1) * c) + (n - 1) * math.sqrt(1 - c)) ** 2 / n**2


def criterion1_grid():
    global _crit1_cache
    if _crit1_cache is None:
        results = []
        for n in N_GRID_1:
            cfg = None
            for c in C_GRID_1:
                start = time.perf_counter()
                cfg = sym_config(n, c)
                solution = sdp.solve(sdp.build_problem(cfg, 0.0))
                results.append((n, c, solution, time.perf_counter() - start))
        _crit1_cache = results
    return _crit1_cache


def test_criterion_1_symmetric_usd_closed_form():
    worst_err, worst_time = 0.0, 0.0
    for n, c, solution, elapsed in criterion1_grid():
        assert solution.status == "optimal", (n, c)
        worst_err = max(worst_err, abs(solution.objective - c))
        worst_time = max(worst_time, elapsed)
        assert abs(solution.objective - c) <= 1e-5, (n, c, solution.objective)
        assert elapsed < 1.0, (n, c, elapsed)
    _verdict(
        1, worst_err <= 1e-5 and worst_time < 1.0,
        f"max |P_f - c| = {worst_err:.2e} over {len(criterion1_grid())} instances, "
        f"max runtime {worst_time:.3f}s",
    )


def test_criterion_2_error_margin_closed_form():
    worst = 0.0
    tested = 0
    for n in (2, 3, 4):
        for c in (0.2, 0.4, 0.6):
            gram = sdp.build_problem(sym_config(n, c), 0.0).gram
            for pe in (0.01, 0.05, 0.1):
                if pe > min_error_oracle(n, c):
                    continue
                tested += 1
                solution = sdp.solve(sdp.BlockSdpProblem(gram, pe, n))
                expected = margin_closed_form(n, c, pe)
                err = abs(solution.objective - expected)
                worst = max(worst, err)
                assert err <= 1e-5, (n, c, pe, solution.objective, expected)
    _verdict(2, worst <= 1e-5, f"max |P_f - closed form| = {worst:.2e} over {tested} instances")


def test_criterion_3_figure1_reproduction(tmp_path):
    out = tmp_path / "figure1.csv"
    assert cli.main(["figure1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 4 * 201
    slack_at_half = {}
    for n_s, c_s, d_s, coh_s in rows:
        n, c, d, coh = int(n_s), float(c_s), float(d_s), float(coh_s)
        expected = disc.symmetric_coherence(disc.SymmetricConfig(n, c)) / math.log2(n)
        assert abs(coh - expected) <= 1e-11, (n, c)
        assert d + coh <= 1.0 + 1e-10, (n, c)
        if c == 0.5:
            slack_at_half[n] = 1.0 - d - coh
    ordered = [slack_at_half[n] for n in (2, 4, 16, 256)]
    monotone = all(b < a for a, b in zip(ordered, ordered[1:]))
    _verdict(
        3, monotone,
        "curves match closed forms, every point satisfies D + C <= 1, "
        f"boundary slack at c=0.5 decreasing in N: {[f'{s:.4f}' for s in ordered]}",
    )


def test_criterion_4_figure3_asymmetric(tmp_path):
    out = tmp_path / "figure3.csv"
    assert cli.main(["figure3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    worst_gap = 0.0
    for n_s, p_s, d_s, coh_s in rows:
        if int(n_s) != 256:
            continue
        worst_gap = max(worst_gap, abs(float(coh_s) - (1.0 - float(d_s))))
    assert worst_gap <= 0.02

    worst_sdp = 0.0
    for n in range(2, 9):
        for p in (0.45, 0.7, 0.9):
            if p < 1 / n:
                continue
            cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, p))
            solution = sdp.solve(sdp.build_problem(cfg, 0.0))
            worst_sdp = max(worst_sdp, abs(solution.objective - n * (1 - p) / (n - 1)))
    ok = worst_gap <= 0.02 and worst_sdp <= 1e-5
    _verdict(
        4, ok,
        f"N=256: max |C - (1-D)| = {worst_gap:.4f} <= 0.02; "
        f"SDP vs N(1-p)/(N-1) for N<=8: max err {worst_sdp:.2e}",
    )


def test_criterion_5_holevo_suite():
    worst_holevo = -np.inf
    worst_identity = 0.0
    count = 0
    for i in range(1000):
        n = 2 + (i % 4)
        cfg = disc.random_config(n, n, 100000 + i)
        s_detector = quantum.von_neumann_entropy(quantum.detector_density_matrix(cfg))

        solution = sdp.solve(sdp.build_problem(cfg, 0.0))
        assert solution.status == "optimal", i
        stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        info = quantum.mutual_information(stats)
        worst_holevo = max(worst_holevo, info - s_detector)
        assert info <= s_detector + 1e-6, i

        # zero-error channel: I = H(p) - P_f H(q)
        assert stats.error_prob <= 1e-12
        p_f = stats.failure_prob
        if p_f > 1e-12:
            q = stats.joint[:, n] / p_f
            expected = quantum.shannon_entropy(cfg.priors) - p_f * quantum.shannon_entropy(q)
            worst_identity = max(worst_identity, abs(info - expected))
            assert abs(info - expected) <= 1e-9, i

        if i % 4 == 0:  # channels with errors allowed
            sol_m = sdp.solve(sdp.build_problem(cfg, 0.1))
            stats_m = sdp.povm_channel_statistics(sdp.extract_povm(sol_m, cfg), cfg)
            info_m = quantum.mutual_information(stats_m)
            worst_holevo = max(worst_holevo, info_m - s_detector)
            assert info_m <= s_detector + 1e-6, i
        count += 1
    _verdict(
        5, count == 1000,
        f"1000 configs: max I - S(rho_d) = {worst_holevo:.2e} (<= 1e-6), "
        f"max zero-error identity gap = {worst_identity:.2e} (<= 1e-9)",
    )


def test_criterion_6_no_violation_suite():
    start = time.perf_counter()
    budgets = (0.0, 0.01, 0.1, 0.3)
    reports = 0
    min_slack = np.inf
    violations = 0

    def run_checks(cfg, outcome, coherence_bits=None):
        nonlocal reports, min_slack, violations
        for report in duality.all_checks(cfg, outcome, coherence_bits):
            reports += 1
            min_slack = min(min_slack, report.slack)
            if not report.satisfied:
                violations += 1

    # analytic symmetric family
    for n in (2, 3, 4, 8, 16):
        for c in np.linspace(0.05, 0.95, 10):
            family = disc.SymmetricConfig(n, float(c))
            cfg = disc.symmetric_interferometer(family)
            coh = disc.symmetric_coherence(family)
            for pe in budgets:
                run_checks(cfg, disc.symmetric_error_margin(family, pe), coh)

    # analytic asymmetric family (zero-error closed form)
    for n in (2, 4, 16, 256):
        for p in np.linspace(1 / n, 1.0, 12):
            family = disc.AsymmetricConfig(n, float(p))
            cfg = disc.asymmetric_interferometer(family)
            run_checks(cfg, disc.asymmetric_usd(family), disc.asymmetric_coherence(family))

    # asymmetric configurations with errors allowed, via the SDP
    for n in (3, 6):
        for p in (0.5, 0.8):
            cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, p))
            for pe in budgets[1:]:
                run_checks(cfg, disc.discriminate(cfg, pe))

    # seeded random ensemble
    for i in range(1000):
        n = 2 + (i % 4)
        cfg = disc.random_config(n, n, 200000 + i)
        coh = quantum.coherence_rel_ent(cfg)
        gram = sdp.build_problem(cfg, 0.0).gram
        for pe in budgets:
            solution = sdp.solve(sdp.BlockSdpProblem(gram, pe, n))
            assert solution.status == "optimal", (i, pe)
            run_checks(cfg, disc.outcome_from_solution(solution), coh)

    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed <= 600.0
    _verdict(
        6, ok,
        f"{reports} relation checks, {violations} violations, "
        f"min slack {min_slack:.2e}, runtime {elapsed:.1f}s (<= 600s)",
    )


def test_criterion_7_saturation_endpoints():
    details = []
    ok = True
    for n in (2, 3, 4):
        cfg = quantum.InterferometerConfig(np.full(n, 1 / n), np.ones((n, n)))
        budget = 0.2
        solution = sdp.solve(sdp.build_problem(cfg, budget))
        assert solution.status == "optimal"
        stats = sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        ratio = stats.error_prob / (1.0 - stats.failure_prob)
        ok &= abs(ratio - (1 - 1 / n)) <= 1e-3
        outcome = disc.DiscriminationOutcome(
            stats.success_prob(), stats.error_prob, stats.failure_prob, "sdp")
        report = duality.check_error_margin_bound(cfg, outcome)
        ok &= report.satisfied
        details.append(f"N={n}: P_e/(1-P_f)={ratio:.6f} (want {1-1/n:.6f}), "
                       f"bound slack {report.slack:.2e}")
    _verdict(7, ok, "; ".join(details))


def test_criterion_8_numerical_kernel(rng):
    worst_recon = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (x + x.conj().T) / 2
        dec = matlin.eig_hermitian(a)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        err = np.abs(a - recon).max() / max(1.0, float(np.abs(a).max()))
        worst_recon = max(worst_recon, err)
        assert err <= 1e-9

    worst_gap = 0.0
    for n, c, solution, _ in criterion1_grid():
        assert solution.status == "optimal", (n, c)
        worst_gap = max(worst_gap, solution.gap)
        assert solution.gap <= 1e-7, (n, c, solution.gap)
    _verdict(
        8, worst_recon <= 1e-9 and worst_gap <= 1e-7,
        f"eigensolver reconstruction max {worst_recon:.2e} (<= 1e-9) on 1000 matrices; "
        f"SDP gap max {worst_gap:.2e} (<= 1e-7) on the criterion-1 grid",
    )
