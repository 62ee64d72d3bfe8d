"""Quantum-information primitives for N-path interferometers.

An interferometer configuration is a prior distribution over paths plus the
Gram matrix of the detector states; that pair determines the path and
detector reduced density matrices, the relative-entropy coherence, and the
statistics of any which-way measurement.  All entropies are in bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import ValidationError

__all__ = [
    "ChannelStatistics",
    "InterferometerConfig",
    "binary_entropy",
    "coherence_rel_ent",
    "detector_density_matrix",
    "mutual_information",
    "normalized_coherence",
    "path_density_matrix",
    "path_entropy",
    "probability_vector",
    "shannon_entropy",
    "usd_channel_statistics",
    "von_neumann_entropy",
]

# Probabilities below this are treated as exact zeros inside entropy sums,
# removing the 0*log(0) branch; the induced error is far below test tolerances.
PROB_FLOOR = 1e-14


def probability_vector(values) -> np.ndarray:
    """Validate a probability distribution and return it as a float array.

    Entries may undershoot zero by at most 1e-12 (clamped); the sum must be
    1 within 1e-10.
    """
    p = matlin.number_array(values, "probabilities")
    if p.ndim != 1 or p.size < 1:
        raise ValidationError(f"expected a 1-d probability vector, got shape {p.shape}")
    if p.min() < -1e-12 or p.max() > 1 + 1e-12:
        raise ValidationError(f"probabilities outside [0, 1]: min={p.min()}, max={p.max()}")
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1 within 1e-10")
    return np.clip(p, 0.0, 1.0)


def _entropy_bits(values: np.ndarray) -> float:
    # Sorted ascending so the sum is bit-for-bit invariant under permutation
    # of the input; this makes e.g. H(priors) - H(eigenvalues) exactly zero
    # for diagonal density matrices.
    v = np.sort(values[values > PROB_FLOOR])
    if v.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(v * np.log2(v))))


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p log2 p with the 0 log 0 := 0 convention.

    Accepts nonnegative entries (tiny negatives down to -1e-12 are clamped)
    summing to at most 1 + 1e-10; sub-normalized inputs are allowed.
    """
    v = matlin.number_array(p, "entropy input").ravel()
    if v.min(initial=0.0) < -1e-12:
        raise ValidationError(f"negative probability {v.min()} beyond tolerance")
    if v.sum() > 1 + 1e-10:
        raise ValidationError(f"probabilities sum to {v.sum()} > 1")
    return _entropy_bits(np.clip(v, 0.0, None))


def binary_entropy(q: float) -> float:
    """H2(q) = -q log2 q - (1-q) log2 (1-q), with H2(0) = H2(1) = 0, of a
    real number q in [0, 1] within 1e-12."""
    q = min(max(matlin.real_in(q, -1e-12, 1 + 1e-12, "binary entropy argument"), 0.0), 1.0)
    return _entropy_bits(np.array([q, 1.0 - q]))


def _density_entropy(eigenvalues: np.ndarray) -> float:
    """Entropy in bits of a density matrix with these eigenvalues, which
    :func:`wpduality.matlin.psd_spectrum` has accepted; checks unit trace."""
    trace = eigenvalues.sum()
    if abs(trace - 1.0) > 1e-8:
        raise ValidationError(f"not a density matrix: trace {trace!r} != 1")
    return _entropy_bits(eigenvalues)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy of a density matrix, in bits.  A matrix that is
    not PSD raises :class:`wpduality.matlin.NotPsdError`."""
    return _density_entropy(matlin.psd_spectrum(rho).eigenvalues)


@dataclass(frozen=True)
class InterferometerConfig:
    """Path priors plus the detector-state Gram matrix.

    ``gram[j, k]`` is the overlap <eta_j|eta_k> of the detector states, so the
    diagonal is 1 and the matrix is PSD.  Detector states are never stored as
    explicit kets; the Gram matrix is the canonical representation.

    Each Gram matrix is decomposed once per configuration, by
    :func:`wpduality.matlin.psd_spectrum` (the PSD check), and every reader
    shares that read-only decomposition:

    * ``gram_spectrum``, the detector Gram Gamma = ``gram``, taken on
      construction; the detector states and the lambda-min rule read it.
    * ``weighted_spectrum``, the prior-weighted Gram G = D^{1/2} Gamma D^{1/2}
      (``weighted_gram``), taken on first use.  The SDP solves on G, and the
      path state rho_p = conj(G) has its eigenvalues, so S(rho_p) is read
      from it too.
    """

    priors: np.ndarray
    gram: np.ndarray
    gram_spectrum: matlin.EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = probability_vector(self.priors)
        g = matlin.hermitian(self.gram)
        if p.size != g.shape[0]:
            raise ValidationError(
                f"priors ({p.size}) and gram ({g.shape[0]}) dimensions differ"
            )
        if p.size < 2:
            raise ValidationError("an interferometer needs at least 2 paths")
        if np.abs(np.diag(g).real - 1.0).max() > 1e-10:
            raise ValidationError("gram diagonal entries must equal 1")
        object.__setattr__(self, "gram_spectrum", matlin.psd_spectrum(g))
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "gram", g)
        self.priors.setflags(write=False)
        self.gram.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.priors.size

    @functools.cached_property
    def weighted_gram(self) -> np.ndarray:
        """G_jk = sqrt(p_j p_k) <eta_j|eta_k>, the Gram matrix the SDP solves on."""
        root = np.sqrt(self.priors)
        g = root[:, None] * root[None, :] * self.gram
        g.setflags(write=False)
        return g

    @functools.cached_property
    def weighted_spectrum(self) -> matlin.EigenDecomposition:
        """The eigendecomposition of ``weighted_gram``, taken on first use."""
        return matlin.psd_spectrum(self.weighted_gram)


def path_density_matrix(cfg: InterferometerConfig) -> np.ndarray:
    """Reduced density matrix of the path degree of freedom.

    Entry (j, k) is sqrt(p_j p_k) <eta_k|eta_j>, so rho_p = conj(G) for the
    configuration's ``weighted_gram`` G; unit trace and PSD by construction.
    """
    return cfg.weighted_gram.conj()


def detector_density_matrix(cfg: InterferometerConfig) -> np.ndarray:
    """Reduced density matrix of the detector, in the Gram-factor embedding.

    Built as sum_j p_j |eta_j><eta_j| from the state vectors of
    :func:`wpduality.matlin.support_factor` on the configuration's
    ``gram_spectrum``; its nonzero spectrum equals that of the path density
    matrix because both reductions come from the same pure state.
    """
    f = matlin.support_factor(cfg.gram_spectrum)
    return (f * cfg.priors[None, :]) @ f.conj().T


def coherence_rel_ent(cfg: InterferometerConfig) -> float:
    """Relative-entropy coherence of the path state, in bits.

    Equals H({p_j}) - S(rho_p), i.e. the entropy of the dephased state minus
    the entropy of the state itself; lies in [0, log2 N].  S(rho_p) is read
    from the configuration's ``weighted_spectrum``.
    """
    n = cfg.n_paths
    value = _entropy_bits(cfg.priors) - _entropy_bits(cfg.weighted_spectrum.eigenvalues)
    return min(max(value, 0.0), float(np.log2(n)))


def path_entropy(cfg: InterferometerConfig) -> float:
    """Von Neumann entropy S(rho_p) of the path state, in bits.

    Equals ``von_neumann_entropy(path_density_matrix(cfg))`` bit for bit,
    read from the configuration's ``weighted_spectrum``, which the PSD rule
    has already accepted: rho_p = conj(G), and LAPACK's ``eigh`` gives
    conj(G) exactly the eigenvalues of G.
    """
    return _density_entropy(cfg.weighted_spectrum.eigenvalues)


def normalized_coherence(cfg: InterferometerConfig) -> float:
    """Coherence scaled by log2 N so the result lies in [0, 1]."""
    return coherence_rel_ent(cfg) / float(np.log2(cfg.n_paths))


@dataclass(frozen=True)
class ChannelStatistics:
    """Joint statistics of a discrimination channel with a failure outcome.

    ``joint`` has shape (N, N + 1): entry (x, y) is p(x, y) for conclusive
    outcomes y < N, and column N is the inconclusive outcome f.
    """

    joint: np.ndarray
    marginal_y: np.ndarray = field(init=False)
    failure_prob: float = field(init=False)
    error_prob: float = field(init=False)

    def __post_init__(self):
        j = matlin.number_array(self.joint, "joint")
        if j.ndim != 2 or j.shape[0] < 1 or j.shape[1] != j.shape[0] + 1:
            raise ValidationError(f"joint must have shape (N, N+1) with N >= 1, got {j.shape}")
        if j.min() < -1e-10:
            raise ValidationError(f"joint has negative entry {j.min():.3e}")
        j = np.clip(j, 0.0, None)
        if abs(j.sum() - 1.0) > 1e-10:
            raise ValidationError(f"joint sums to {j.sum()!r}, expected 1")
        n = j.shape[0]
        conclusive = j[:, :n]
        errors = float(conclusive[~np.eye(n, dtype=bool)].sum())  # exactly 0 if diagonal
        object.__setattr__(self, "joint", j)
        object.__setattr__(self, "marginal_y", j.sum(axis=0))
        object.__setattr__(self, "failure_prob", float(j[:, n].sum()))
        object.__setattr__(self, "error_prob", errors)
        self.joint.setflags(write=False)
        self.marginal_y.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.joint.shape[0]

    def success_prob(self) -> float:
        return float(np.trace(self.joint[:, : self.n_states]))


def usd_channel_statistics(priors, success_probs) -> ChannelStatistics:
    """Channel statistics of an error-free strategy with per-state successes.

    ``success_probs[x]`` is the probability that state x, when sent, is
    identified; anything else lands in the failure column.  The error
    probability is zero by construction.
    """
    p = probability_vector(priors)
    s = matlin.number_array(success_probs, "success probabilities")
    if s.shape != p.shape:
        raise ValidationError(
            f"success probabilities shape {s.shape} does not match priors {p.shape}"
        )
    if s.min() < -1e-12 or s.max() > 1 + 1e-12:
        raise ValidationError("success probabilities must lie in [0, 1]")
    s = np.clip(s, 0.0, 1.0)
    n = p.size
    joint = np.zeros((n, n + 1))
    joint[np.arange(n), np.arange(n)] = p * s
    joint[:, n] = p * (1.0 - s)
    return ChannelStatistics(joint)


def mutual_information(stats: ChannelStatistics) -> float:
    """Mutual information I(X:Y) of the channel, in bits.

    Sums p(x, y) log2 [p(x, y) / (p_X(x) p_Y(y))] over entries with positive
    probability.
    """
    joint = stats.joint
    px = joint.sum(axis=1)
    py = stats.marginal_y
    mask = joint > PROB_FLOOR
    xs, ys = np.nonzero(mask)
    terms = joint[xs, ys] * (
        np.log2(joint[xs, ys]) - np.log2(px[xs]) - np.log2(py[ys])
    )
    return float(max(0.0, terms.sum()))
