"""Wave-particle duality relations and machine-checkable reports.

Each check pairs a configuration's coherence with a discrimination outcome's
probabilities and reports both bound sides, the slack oriented so that
``slack >= -1e-8`` means the relation is satisfied, and the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlin
from .discrimination import SIMPLEX_TOL, DiscriminationOutcome
from .matlin import ValidationError
from .quantum import InterferometerConfig, binary_entropy, coherence_rel_ent

__all__ = [
    "DualityReport",
    "SLACK_TOL",
    "ZERO_ERROR_TOL",
    "all_checks",
    "check_error_margin_bound",
    "check_error_margin_duality",
    "check_simplified_bound",
    "check_usd_duality",
    "error_margin_surface",
]

SLACK_TOL = 1e-8
# Largest P_e of a zero-error outcome, the kind eq. 1 (check_usd_duality) takes
ZERO_ERROR_TOL = 1e-12

RELATION_USD = "usd-eq1"
RELATION_MARGIN = "error-margin-eq31"
RELATION_MARGIN_DUALITY = "error-margin-duality-eq32"
RELATION_SIMPLIFIED = "simplified-eq33"


@dataclass(frozen=True)
class DualityReport:
    """One evaluated duality relation.

    ``slack`` is oriented in the relation's natural direction (bound side
    minus constrained side), so nonnegative slack means the bound holds.
    """

    coherence_C: float
    distinguishability_D: float
    bound_lhs: float
    bound_rhs: float
    slack: float
    relation: str
    satisfied: bool


def _report(c, d, lhs, rhs, slack, relation) -> DualityReport:
    return DualityReport(
        coherence_C=float(c),
        distinguishability_D=float(d),
        bound_lhs=float(lhs),
        bound_rhs=float(rhs),
        slack=float(slack),
        relation=relation,
        satisfied=bool(slack >= -SLACK_TOL),
    )


def _conditional_error_entropy(p_error: float, p_failure: float) -> float:
    """(1 - P_f) H2(P_e / (1 - P_f)) with the continuous P_f -> 1 limit."""
    conclusive = 1.0 - p_failure
    if conclusive <= 1e-15:
        return 0.0
    ratio = min(max(p_error / conclusive, 0.0), 1.0)
    return conclusive * binary_entropy(ratio)


def _coherence(cfg: InterferometerConfig, precomputed: float | None) -> float:
    """``precomputed``, a real number in [0, log2 N] like every coherence the
    package computes, or the configuration's coherence when it is None."""
    if precomputed is None:
        return coherence_rel_ent(cfg)
    return matlin.real_in(precomputed, 0.0, float(np.log2(cfg.n_paths)), "coherence_bits")


def error_margin_surface(n_paths: int, p_error: float, p_failure: float) -> float:
    """Normalized error-margin bound value at a (P_e, P_f) point.

    This is the surface the normalized coherence of any physical strategy
    must stay below; NaN where P_e exceeds the conclusive probability.
    ``n_paths`` must be an integer of at least 2, and each probability a
    real number, not a bool, in [-``SIMPLEX_TOL``, 1 + ``SIMPLEX_TOL``], the
    range :class:`~wpduality.discrimination.DiscriminationOutcome` grants
    its read-backs; otherwise :class:`~wpduality.matlin.ValidationError` is
    raised.
    """
    n_paths = matlin.integer_at_least(n_paths, 2, "n_paths")
    for name, value in (("p_error", p_error), ("p_failure", p_failure)):
        matlin.real_in(value, -SIMPLEX_TOL, 1 + SIMPLEX_TOL, name)
    if p_error > 1.0 - p_failure + 1e-12:
        return float("nan")
    return _normalized_margin_lhs(n_paths, p_error, p_failure)


def _normalized_margin_lhs(n_paths: int, p_error: float, p_failure: float) -> float:
    """(1-P_f)/log2 N * H2(P_e/(1-P_f)) + P_e log2(N-1)/log2 N + P_f."""
    log_n = float(np.log2(n_paths))
    return (
        _conditional_error_entropy(p_error, p_failure) / log_n
        + p_error * float(np.log2(n_paths - 1)) / log_n
        + p_failure
    )


def check_usd_duality(
    cfg: InterferometerConfig, outcome: DiscriminationOutcome,
    coherence_bits: float | None = None,
) -> DualityReport:
    """D + C <= 1 for a zero-error strategy.

    ``D`` is the success probability, ``C`` the normalized coherence; inputs
    with nonzero error probability are rejected.  ``coherence_bits`` lets a
    caller pass a precomputed (e.g. closed-form) coherence value.
    """
    if outcome.p_error > ZERO_ERROR_TOL:
        raise ValidationError(
            f"zero-error duality check got p_error={outcome.p_error}"
        )
    log_n = float(np.log2(cfg.n_paths))
    c = _coherence(cfg, coherence_bits) / log_n
    d = outcome.p_success
    lhs = d + c
    return _report(c, d, lhs, 1.0, 1.0 - lhs, RELATION_USD)


def check_error_margin_bound(
    cfg: InterferometerConfig, outcome: DiscriminationOutcome,
    coherence_bits: float | None = None,
) -> DualityReport:
    """Entropic which-way bound with both failure and error probabilities.

    (1-P_f) H2(P_e/(1-P_f)) + P_e log2(N-1) + P_f log2 N >= C_rel-ent(rho_p),
    in bits: eq. 32's bound (:func:`check_error_margin_duality`) times
    log2 N.  At P_e = 0 this reduces to P_f log2 N >= C_rel-ent.
    """
    log_n = float(np.log2(cfg.n_paths))
    rhs = _coherence(cfg, coherence_bits)
    lhs = _normalized_margin_lhs(cfg.n_paths, outcome.p_error, outcome.p_failure) * log_n
    return _report(rhs / log_n, outcome.p_success, lhs, rhs, lhs - rhs,
                   RELATION_MARGIN)


def check_error_margin_duality(
    cfg: InterferometerConfig, outcome: DiscriminationOutcome,
    coherence_bits: float | None = None,
) -> DualityReport:
    """The same bound restated against the normalized coherence.

    (1-P_f)/log2 N * H2(P_e/(1-P_f)) + P_e log2(N-1)/log2 N + P_f >= C.
    """
    c = _coherence(cfg, coherence_bits) / float(np.log2(cfg.n_paths))
    lhs = _normalized_margin_lhs(cfg.n_paths, outcome.p_error, outcome.p_failure)
    return _report(c, outcome.p_success, lhs, c, lhs - c, RELATION_MARGIN_DUALITY)


def check_simplified_bound(
    cfg: InterferometerConfig, outcome: DiscriminationOutcome,
    coherence_bits: float | None = None,
) -> DualityReport:
    """C + D <= 1 + (1-P_f)/log2 N * H2(P_e/(1-P_f)).

    Coincides with the zero-error duality relation as P_e -> 0.
    """
    log_n = float(np.log2(cfg.n_paths))
    c = _coherence(cfg, coherence_bits) / log_n
    d = outcome.p_success
    lhs = c + d
    rhs = 1.0 + _conditional_error_entropy(outcome.p_error, outcome.p_failure) / log_n
    return _report(c, d, lhs, rhs, rhs - lhs, RELATION_SIMPLIFIED)


def all_checks(
    cfg: InterferometerConfig, outcome: DiscriminationOutcome,
    coherence_bits: float | None = None,
) -> list[DualityReport]:
    """Every applicable relation for the outcome (the zero-error relation is
    included only when the outcome has no errors)."""
    if coherence_bits is None:
        coherence_bits = coherence_rel_ent(cfg)
    reports = []
    if outcome.p_error <= ZERO_ERROR_TOL:
        reports.append(check_usd_duality(cfg, outcome, coherence_bits))
    reports.append(check_error_margin_bound(cfg, outcome, coherence_bits))
    reports.append(check_error_margin_duality(cfg, outcome, coherence_bits))
    reports.append(check_simplified_bound(cfg, outcome, coherence_bits))
    return reports
