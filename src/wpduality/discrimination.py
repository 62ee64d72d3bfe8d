"""State-discrimination strategies and analytic families.

Closed forms for the two exactly solvable detector-state families (equal
pairwise overlap with uniform priors, and one distinguishable path against
N-1 identical ones), the smallest-eigenvalue failure rule, a seeded random
ensemble, and a facade that dispatches between analytics and the SDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlin, quantum, sdp
from .matlin import ValidationError
from .quantum import InterferometerConfig

__all__ = [
    "AsymmetricConfig",
    "DiscriminationOutcome",
    "SymmetricConfig",
    "asymmetric_coherence",
    "asymmetric_interferometer",
    "asymmetric_usd",
    "discriminate",
    "outcome_from_solution",
    "random_config",
    "symmetric_coherence",
    "symmetric_error_margin",
    "symmetric_interferometer",
    "symmetric_min_error",
    "usd_failure_lambda_min",
]

SIMPLEX_TOL = 1e-8


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Success/error/failure probability triple of a strategy: real numbers
    in [-``SIMPLEX_TOL``, 1 + ``SIMPLEX_TOL``] (:func:`wpduality.matlin.real_in`)
    that sum to 1 within ``SIMPLEX_TOL``, with a bool ``budget_exceeded``."""

    p_success: float
    p_error: float
    p_failure: float
    method: str
    budget_exceeded: bool = False

    def __post_init__(self):
        total = 0.0
        for name in ("p_success", "p_error", "p_failure"):
            total += matlin.real_in(getattr(self, name), -SIMPLEX_TOL, 1 + SIMPLEX_TOL, name)
        if not isinstance(self.budget_exceeded, bool):
            raise ValidationError(f"budget_exceeded must be a bool, got {self.budget_exceeded!r}")
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class SymmetricConfig:
    """N >= 2 detector states with equal pairwise overlap, a real number in
    [-1/(N-1), 1] within 1e-12, and uniform priors."""

    n_paths: int
    overlap: float

    def __post_init__(self):
        n = matlin.integer_at_least(self.n_paths, 2, "n_paths")
        # PSD condition for the overlap matrix: eigenvalues 1+(N-1)c and 1-c.
        matlin.real_in(self.overlap, -1.0 / (n - 1) - 1e-12, 1.0 + 1e-12, "overlap")


@dataclass(frozen=True)
class AsymmetricConfig:
    """One path distinguishable with probability weight p, a real number in
    [1/N, 1] within 1e-12; the other N-1 >= 1 paths share a single detector
    state and the remaining weight."""

    n_paths: int
    p: float

    def __post_init__(self):
        n = matlin.integer_at_least(self.n_paths, 2, "n_paths")
        matlin.real_in(self.p, 1.0 / n - 1e-12, 1.0 + 1e-12, "p")


def symmetric_interferometer(cfg: SymmetricConfig) -> InterferometerConfig:
    """Materialize the symmetric family as an interferometer configuration."""
    n, c = cfg.n_paths, cfg.overlap
    gram = (1.0 - c) * np.eye(n) + c * np.ones((n, n))
    return InterferometerConfig(np.full(n, 1.0 / n), gram)


def asymmetric_interferometer(cfg: AsymmetricConfig) -> InterferometerConfig:
    """Materialize the asymmetric family; the distinguishable path is last."""
    n, p = cfg.n_paths, cfg.p
    p = min(p, 1.0)
    d = np.sqrt(max(0.0, (1.0 - p) / (p * (n - 1))))
    gram = np.ones((n, n))
    gram[:, n - 1] = d
    gram[n - 1, :] = d
    gram[n - 1, n - 1] = 1.0
    priors = np.full(n, (1.0 - p) / (n - 1))
    priors[n - 1] = p
    return InterferometerConfig(priors, gram)


def usd_failure_lambda_min(cfg: InterferometerConfig) -> DiscriminationOutcome:
    """Zero-error failure probability 1 - lambda_min of the detector Gram matrix.

    Exact, with uniform priors, for every full-rank circulant Gram matrix:
    the detector states are then symmetric (a unitary cyclic shift maps each
    to the next), and 1 - lambda_min is the optimum of Chefles & Barnett,
    Phys. Lett. A 250, 223 (1998).  Equal-overlap states are one such case,
    and so is N = 2 up to a phase of one state.  For other overlap patterns
    it is only an upper bound on the optimal failure probability, so this
    routine insists on its stated regime: uniform priors and a Gram matrix
    of full rank by :func:`wpduality.matlin.numerical_support`.  Reads the
    configuration's ``gram_spectrum``.
    """
    n = cfg.n_paths
    if np.abs(cfg.priors - 1.0 / n).max() > 1e-10:
        raise ValidationError("the lambda-min rule requires uniform priors")
    spectrum = cfg.gram_spectrum
    if matlin.numerical_support(spectrum).eigenvalues.size < n:
        raise ValidationError(
            "the lambda-min rule requires linearly independent detector states"
        )
    p_f = min(max(1.0 - float(spectrum.eigenvalues[-1]), 0.0), 1.0)
    return DiscriminationOutcome(
        p_success=1.0 - p_f, p_error=0.0, p_failure=p_f, method="lambda-min"
    )


def symmetric_min_error(cfg: SymmetricConfig) -> float:
    """Minimum error probability with no inconclusive outcome allowed.

    This is where the error-margin tradeoff reaches zero failure; budgets
    above it cannot reduce the failure probability any further.  It is the
    error of the square-root measurement, optimal at every overlap, negative
    ones included (Ban et al., Int. J. Theor. Phys. 36, 1269 (1997)).
    """
    n, c = cfg.n_paths, min(cfg.overlap, 1.0)
    # The radicand may undershoot 0 by the 1e-12 SymmetricConfig grants.
    root = np.sqrt(max(1.0 + (n - 1) * c, 0.0)) - np.sqrt(1.0 - c)
    return float((n - 1) * root**2 / n**2)


def symmetric_error_margin(
    cfg: SymmetricConfig, error_budget: float
) -> DiscriminationOutcome:
    """Minimum failure probability of the symmetric family at an error budget.

    For budgets up to the minimum-error probability the optimum is

        P_f = c - 2 sqrt((1-c) P_e / (N-1)) - N P_e / (N-1),

    which reduces to P_f = c at P_e = 0 and reaches zero exactly at the
    minimum-error budget.  Larger budgets, up to 1, are flagged and pinned to
    the minimum-error point (P_f = 0, the extra budget is never used).  The
    closed form requires an overlap in [0, 1] within 1e-12, and the budget
    must be a real number in [0, 1], as for the SDP
    (:func:`wpduality.matlin.probability`).
    """
    n = cfg.n_paths
    c = min(matlin.real_in(cfg.overlap, 0.0, 1.0 + 1e-12, "closed-form overlap"), 1.0)
    error_budget = matlin.probability(error_budget, "error budget")
    pe_min = symmetric_min_error(cfg)
    exceeded = error_budget > pe_min
    pe = min(error_budget, pe_min)
    if exceeded:
        p_f = 0.0
    else:
        p_f = c - 2.0 * np.sqrt((1.0 - c) * pe / (n - 1)) - n * pe / (n - 1)
        p_f = min(max(float(p_f), 0.0), 1.0)
    return DiscriminationOutcome(
        p_success=1.0 - pe - p_f,
        p_error=pe,
        p_failure=p_f,
        method="analytic-symmetric",
        budget_exceeded=exceeded,
    )


def asymmetric_usd(cfg: AsymmetricConfig) -> DiscriminationOutcome:
    """Optimal zero-error discrimination of the asymmetric family.

    The projective measurement onto the distinguishable detector state's
    orthogonal complement fails with probability N(1-p)/(N-1).
    """
    n, p = cfg.n_paths, cfg.p
    p_f = min(max(n * (1.0 - p) / (n - 1), 0.0), 1.0)
    return DiscriminationOutcome(
        p_success=1.0 - p_f, p_error=0.0, p_failure=p_f, method="analytic-asymmetric"
    )


def _asymmetric_nonzero_spectrum(n: int, p: float) -> np.ndarray:
    p_f = n * (1.0 - p) / (n - 1)
    disc = 1.0 - 4.0 * ((n - 1) / n) * p_f * (1.0 - p_f)
    root = np.sqrt(max(disc, 0.0))
    return np.array([(1.0 + root) / 2.0, (1.0 - root) / 2.0])


def asymmetric_coherence(cfg: AsymmetricConfig) -> float:
    """Relative-entropy coherence of the asymmetric family, in bits.

    The path state has exactly two nonzero eigenvalues
    (1 +/- sqrt(1 - 4 (N-1)/N P_f (1-P_f))) / 2, so the coherence is the
    prior entropy minus the entropy of that pair.
    """
    n, p = cfg.n_paths, min(cfg.p, 1.0)
    q = (1.0 - p) / (n - 1)
    priors = np.full(n, q)
    priors[-1] = p
    value = quantum.shannon_entropy(priors) - quantum.shannon_entropy(
        _asymmetric_nonzero_spectrum(n, p)
    )
    return min(max(value, 0.0), float(np.log2(n)))


def symmetric_coherence(cfg: SymmetricConfig) -> float:
    """Relative-entropy coherence of the symmetric family, in bits.

    ((N-1)(1-c)/N) log2(1-c) + ((1+(N-1)c)/N) log2(1+(N-1)c).
    """
    n, c = cfg.n_paths, cfg.overlap
    value = 0.0
    if 1.0 - c > 0.0:
        value += (n - 1) * (1.0 - c) / n * np.log2(1.0 - c)
    head = 1.0 + (n - 1) * c
    if head > 0.0:
        value += head / n * np.log2(head)
    return min(max(float(value), 0.0), float(np.log2(n)))


def random_config(n_paths: int, detector_dim: int, seed: int) -> InterferometerConfig:
    """Seeded random configuration: Gaussian detector states, Dirichlet priors.

    Detector states are normalized complex Gaussian vectors in the given
    dimension; priors are uniform on the simplex.  Deterministic for a fixed
    seed, an integer >= 0.
    """
    n_paths = matlin.integer_at_least(n_paths, 2, "n_paths")
    detector_dim = matlin.integer_at_least(detector_dim, 1, "detector_dim")
    rng = np.random.default_rng(matlin.integer_at_least(seed, 0, "seed"))
    states = rng.standard_normal((detector_dim, n_paths)) + 1j * rng.standard_normal(
        (detector_dim, n_paths)
    )
    states /= np.linalg.norm(states, axis=0, keepdims=True)
    gram = states.conj().T @ states
    np.fill_diagonal(gram, 1.0)
    priors = rng.dirichlet(np.ones(n_paths))
    priors = priors / priors.sum()
    return InterferometerConfig(priors, gram)


def outcome_from_solution(solution: sdp.BlockSdpSolution) -> DiscriminationOutcome:
    """Probability triple of an SDP solution, whatever its status.

    ``P_f`` is the objective and ``P_e`` the error used, clamped to the
    conclusive probability ``1 - P_f`` so round-off cannot leave the simplex.
    """
    p_f = solution.objective
    p_e = min(solution.error_used, 1.0 - p_f)
    return DiscriminationOutcome(
        p_success=1.0 - p_e - p_f, p_error=p_e, p_failure=p_f, method="sdp"
    )


def _symmetric_structure(cfg: InterferometerConfig):
    """Detect the equal-overlap uniform-priors structure, returning (N, c)."""
    n = cfg.n_paths
    if np.abs(cfg.priors - 1.0 / n).max() > 1e-12:
        return None
    off = cfg.gram[~np.eye(n, dtype=bool)]
    if np.abs(off.imag).max(initial=0.0) > 1e-12:
        return None
    c = float(off.real.mean())
    if np.abs(off.real - c).max() > 1e-12 or not 0.0 <= c <= 1.0:
        return None
    return n, c


def discriminate(
    cfg: InterferometerConfig,
    error_budget: float = 0.0,
    options: sdp.SolverOptions | None = None,
) -> DiscriminationOutcome:
    """Best discrimination outcome for a configuration and error budget.

    Symmetric equal-overlap configurations with uniform priors use the
    closed form; everything else is solved by the SDP.
    """
    structure = _symmetric_structure(cfg)
    if structure is not None:
        return symmetric_error_margin(SymmetricConfig(*structure), error_budget)
    solution = sdp.solve(sdp.build_problem(cfg, error_budget), options)
    if solution.status != "optimal":
        raise sdp.NumericalBreakdownError(
            f"SDP did not reach optimality: status {solution.status!r}"
        )
    return outcome_from_solution(solution)
