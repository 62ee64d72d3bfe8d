import numpy as np
import pytest

from wpduality import discrimination as disc
from wpduality import duality, matlin, quantum, sdp


def sym_pair(n, c, budget=0.0):
    family = disc.SymmetricConfig(n, c)
    cfg = disc.symmetric_interferometer(family)
    return cfg, disc.symmetric_error_margin(family, budget)


class TestZeroErrorDuality:
    def test_orthogonal_states_saturate(self):
        cfg = quantum.InterferometerConfig([0.25] * 4, np.eye(4))
        out = disc.usd_failure_lambda_min(cfg)
        report = duality.check_usd_duality(cfg, out)
        assert report.distinguishability_D == 1.0
        assert report.coherence_C == 0.0
        assert report.slack == 0.0
        assert report.satisfied

    def test_rejects_erroneous_outcome(self):
        cfg, _ = sym_pair(3, 0.4)
        out = disc.DiscriminationOutcome(0.8, 0.1, 0.1, "sdp")
        with pytest.raises(matlin.ValidationError):
            duality.check_usd_duality(cfg, out)

    def test_one_zero_error_threshold(self):
        """all_checks includes eq. 1 exactly for the outcomes that
        check_usd_duality accepts."""
        cfg, _ = sym_pair(3, 0.4)
        for p_error, included in ((duality.ZERO_ERROR_TOL, True),
                                  (2 * duality.ZERO_ERROR_TOL, False)):
            out = disc.DiscriminationOutcome(0.5 - p_error, p_error, 0.5, "sdp")
            relations = [r.relation for r in duality.all_checks(cfg, out)]
            assert ("usd-eq1" in relations) is included

    def test_symmetric_slack_shrinks_with_n(self):
        slacks = []
        for n in (2, 4, 16, 256):
            cfg_family = disc.SymmetricConfig(n, 0.5)
            c_norm = disc.symmetric_coherence(cfg_family) / np.log2(n)
            # D = 1 - c for the symmetric family
            slacks.append(1.0 - 0.5 - c_norm)
        assert all(b < a for a, b in zip(slacks, slacks[1:]))
        assert slacks[-1] <= 0.35

    def test_asymmetric_near_saturation(self):
        n = 256
        out = disc.asymmetric_usd(disc.AsymmetricConfig(n, 0.6))
        c_norm = disc.asymmetric_coherence(disc.AsymmetricConfig(n, 0.6)) / np.log2(n)
        slack = 1.0 - out.p_success - c_norm
        assert 0.0 <= slack < 0.02


class TestErrorMarginBound:
    def test_reduces_to_zero_error_bound(self):
        cfg, out = sym_pair(3, 0.4)
        r31 = duality.check_error_margin_bound(cfg, out)
        r1 = duality.check_usd_duality(cfg, out)
        assert r31.slack / np.log2(3) == pytest.approx(r1.slack, abs=1e-10)
        # lhs collapses to P_f log2 N when no errors are allowed
        assert r31.bound_lhs == pytest.approx(out.p_failure * np.log2(3), abs=1e-12)

    def test_symmetric_margin_positive_slack(self):
        cfg, out = sym_pair(3, 0.4, budget=0.05)
        assert out.p_failure == pytest.approx(0.080051, abs=1e-6)
        report = duality.check_error_margin_bound(cfg, out)
        assert report.satisfied
        assert report.slack > 0

    def test_failure_probability_one_limit(self):
        cfg = quantum.InterferometerConfig([0.5, 0.5], np.ones((2, 2)))
        out = disc.DiscriminationOutcome(0.0, 0.0, 1.0, "sdp")
        report = duality.check_error_margin_bound(cfg, out)
        assert np.isfinite(report.bound_lhs)
        assert report.satisfied

    def test_normalized_variant_consistent(self):
        cfg, out = sym_pair(4, 0.6, budget=0.02)
        r31 = duality.check_error_margin_bound(cfg, out)
        r32 = duality.check_error_margin_duality(cfg, out)
        assert r32.slack == pytest.approx(r31.slack / np.log2(4), abs=1e-12)
        assert r32.satisfied == r31.satisfied


class TestSimplifiedBound:
    def test_matches_zero_error_verdict_at_zero_budget(self):
        cfg, out = sym_pair(5, 0.3)
        r33 = duality.check_simplified_bound(cfg, out)
        r1 = duality.check_usd_duality(cfg, out)
        assert r33.slack == pytest.approx(r1.slack, abs=1e-14)
        assert r33.satisfied == r1.satisfied

    def test_random_configs_satisfied(self, rng):
        for i in range(40):
            n = int(rng.integers(2, 5))
            cfg = disc.random_config(n, n, 5000 + i)
            out = disc.discriminate(cfg, 0.05)
            report = duality.check_simplified_bound(cfg, out)
            assert report.satisfied, (i, report.slack)

    def test_min_error_endpoint_two_paths(self):
        family = disc.SymmetricConfig(2, 0.5)
        cfg = disc.symmetric_interferometer(family)
        sol = sdp.solve(sdp.build_problem(cfg, 0.5))
        out = disc.outcome_from_solution(sol)
        assert out.p_failure == pytest.approx(0.0, abs=1e-6)
        assert duality.check_simplified_bound(cfg, out).satisfied


class TestPrecomputedCoherence:
    def test_override_matches_direct_path(self):
        cfg, out = sym_pair(4, 0.3, budget=0.02)
        coh = quantum.coherence_rel_ent(cfg)
        direct = duality.all_checks(cfg, out)
        overridden = duality.all_checks(cfg, out, coherence_bits=coh)
        for a, b in zip(direct, overridden):
            assert a == b

    @pytest.mark.parametrize("coh", [True, "0.5", float("nan"), -3.0, np.log2(3) + 0.1],
                             ids=["bool", "str", "nan", "negative", "above-log2-n"])
    @pytest.mark.parametrize("check", [
        duality.all_checks, duality.check_usd_duality, duality.check_error_margin_bound,
        duality.check_error_margin_duality, duality.check_simplified_bound])
    def test_rejects_what_no_state_has(self, check, coh):
        """A given coherence must be a real number in [0, log2 N], the range
        of every coherence the package computes: a negative one would make
        every relation pass."""
        cfg = disc.random_config(3, 3, 0)
        out = disc.DiscriminationOutcome(0.5, 0.0, 0.5, "x")
        check(cfg, out, None)
        with pytest.raises(matlin.ValidationError, match="coherence_bits"):
            check(cfg, out, coh)


class TestBoundSurface:
    def test_surface_matches_report(self):
        cfg, out = sym_pair(3, 0.4, budget=0.03)
        report = duality.check_error_margin_duality(cfg, out)
        surface = duality.error_margin_surface(3, out.p_error, out.p_failure)
        assert surface == pytest.approx(report.bound_lhs, abs=1e-14)

    def test_surface_nan_outside_domain(self):
        assert np.isnan(duality.error_margin_surface(3, 0.6, 0.5))

    @pytest.mark.parametrize("n_paths,p_error,p_failure", [
        (1, 0.0, 0.0), (True, 0.0, 0.5), (0, 0.0, 0.5), (2.5, 0.1, 0.2)])
    def test_surface_rejects_a_path_count_below_two_or_not_integral(self, n_paths, p_error,
                                                                    p_failure):
        with pytest.raises(matlin.ValidationError, match="n_paths"):
            duality.error_margin_surface(n_paths, p_error, p_failure)

    @pytest.mark.parametrize("p_error,p_failure,name", [
        (-0.1, 0.5, "p_error"), (0.1, -0.2, "p_failure"), (True, 0.5, "p_error"),
        (0.1, 1.5, "p_failure"), (float("inf"), 0.0, "p_error")])
    def test_surface_rejects_a_probability_outside_the_read_back_range(self, p_error,
                                                                       p_failure, name):
        with pytest.raises(matlin.ValidationError, match=name):
            duality.error_margin_surface(3, p_error, p_failure)

    def test_surface_takes_a_read_back_just_below_zero(self):
        assert np.isfinite(duality.error_margin_surface(3, -1e-12, 0.5))


class TestNoViolationSweeps:
    def test_analytic_families_and_random_ensemble(self, rng):
        reports = []
        for n in (2, 3, 4, 8):
            for c in (0.1, 0.5, 0.9):
                family = disc.SymmetricConfig(n, c)
                cfg = disc.symmetric_interferometer(family)
                for pe in (0.0, 0.01):
                    out = disc.symmetric_error_margin(family, pe)
                    reports.extend(duality.all_checks(cfg, out))
        for n in (2, 4, 16):
            for p in np.linspace(1 / n, 1.0, 7):
                cfg = disc.asymmetric_interferometer(disc.AsymmetricConfig(n, float(p)))
                out = disc.asymmetric_usd(disc.AsymmetricConfig(n, float(p)))
                reports.extend(duality.all_checks(cfg, out))
        for i in range(30):
            n = int(rng.integers(2, 5))
            cfg = disc.random_config(n, n, 9000 + i)
            for pe in (0.0, 0.1):
                out = disc.discriminate(cfg, pe)
                reports.extend(duality.all_checks(cfg, out))
        assert reports
        assert all(r.satisfied for r in reports)
        assert min(r.slack for r in reports) >= -duality.SLACK_TOL
