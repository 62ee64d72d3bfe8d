"""Block-diagonal SDP for discrimination with an error budget.

The discrimination problem with failure probability to be minimized under an
error budget is

    min  1 - tr Z   over  Z = z_1 (+) ... (+) z_N,  z_j PSD,
    s.t. G - sum_j z_j >= 0  and  tr(Z B) <= P_e,

where ``G`` is the prior-weighted Gram matrix of the states and ``B`` zeroes
the j-th diagonal entry of block j, so tr(Z B) is the total error probability
of the measurement encoded by ``Z``.  A click of the recovered POVM element
``Pi_j`` identifies state j; the leftover operator is the inconclusive
outcome.

The solver is a dense primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step, written directly against the
block structure above:

* ``P_e > 0``: variable blocks z_1..z_N on the support of G, one PSD slack
  block S = G - sum z_j, one scalar slack for the error row.  Both the primal
  and dual starting points are strictly feasible, so only the duality gap has
  to be driven to zero.
* ``P_e = 0``: positivity forces every off-diagonal diagonal entry of z_j to
  vanish, so z_j collapses to a single nonnegative weight w_j on |j><j|, and
  only the m identifiable states (e_j in the support of G, with unit rows
  q_j = Q^H e_j) can carry one.  The solver runs on that reduced problem, the
  plain unambiguous-discrimination SDP, in its m-constraint form: the primal
  is min <G, Y> over Y PSD with q_j^H Y q_j - s_j = 1 and surpluses s_j >= 0,
  and the weights w are its dual vector, with dual slack
  [G - sum_j w_j q_j q_j^H, w].  Both starting points are strictly feasible.

Both problems are written in the standard form A(X) = b with one dual vector
y.  At P_e > 0, b is vec(G) on the support of G followed by P_e, and the
Schur complement A(W A*(y) W) is assembled in matrix-vector coordinates,
where the congruence Y -> W Y W becomes kron(W, conj(W)): it is
T = sum_j kron(W_j, conj(W_j)) bordered by the error row d, which is
eliminated through its scalar pivot kappa - d^H T^-1 d before the rest is
solved.  T is a Hermitian positive definite matrix of order rank(G)^2; the
first solve (the predictor's) also solves for T^-1 d, as a second column,
and the corrector's reuses it.  At P_e = 0, b is the m-vector of ones, and
since each constraint is rank one the Schur matrix is the real m x m matrix
|q_i^H W_Y q_j|^2 + diag(w_s^2), with W_Y and w_s the scalings of Y and of
the surpluses (the rank-one technique of DSDP, Benson, Ye & Zhang, SIAM J.
Optim. 10, 2000).  At P_e > 0 an iteration factors T once with
``matlin.lu_solver``, and both Newton steps (predictor and corrector) solve
with that one LU factor (below order ``matlin.LU_MIN_ORDER``, where
refactoring is cheaper, each solve is ``np.linalg.solve``).  At P_e = 0
each Newton step hands the real m x m matrix to ``np.linalg.solve``,
which factors it anew every time.  No Cholesky factor of the
Schur matrix is needed.  At P_e > 0 the r^2 x r^2 arrays live in a
workspace the core makes once per solve: the scalings' Gram product is
written into one buffer and T, in Fortran order, into another, which
``lu_solver`` factors in place, so an iteration allocates no array of the
Schur matrix's size.  No other solve or inverse is taken: the PSD stack's
NT scaling comes from one Cholesky factor per side and one SVD, and the
step lengths are read in the scaled space, where the current point is
diagonal; the predictor's scaled directions are kept for the corrector.
Each piece of an iteration's arithmetic is done once: W rd W serves both
Newton steps, and the scaling keeps the conjugate transposes it reuses.

Each problem keeps its variables in two parts, so each phase of an iteration
is one batched numpy call per part: a stack of equal-size PSD blocks, a
(k, d, d) array, and a nonnegative orthant.  At P_e > 0 they are z_1..z_N
then the PSD slack (N+1, r, r), and the error row's slack, one Python float;
at P_e = 0, Y (1, r, r) and the m surpluses, a real vector (m,).  The
orthant's NT scaling and step lengths have closed forms (the "linear blocks"
of SDPT3, Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999): elementwise
numpy on the vector (``_OrthantScaling``), float arithmetic on the one
error row (``_ScalarScaling``), whose operations are those numpy takes on a
1-element vector, so the float changes no bit of a solve and saves the
numpy calls on one number.  An iteration factors only the PSD stack: two
Cholesky factors, one SVD, and one ``eigvalsh`` per Newton step on the
primal and dual scaled directions together.  The two sides of the PSD stack
live in one (2, k, d, d) stack throughout: the point [X, Z], whose two
Cholesky factors are one call, each Newton step's directions [D_x, D_z],
and their scaled directions, both sides' in two batched matmuls that the
step lengths and the corrector read as they are.  Each entry comes from the
same operations on the same numbers as it did one side at a time, so the
stacking changes no bit of a solve.  A step length needs only each side's
smallest eigenvalue, so from ``GERSHGORIN_MIN_BLOCKS`` blocks on that call
solves only the blocks that a cheap bound does not rule out, and returns the
same minimum bit for bit.  Below block order ``CHOLESKY_MIN_ORDER`` the
rule is Gershgorin's (Gershgorin, 1931): at P_e > 0 on an N = 48, rank-4
Gram it keeps about a quarter of the blocks.  From that order on, each
block's two-step Rayleigh-Ritz value bounds its smallest eigenvalue from
above (SDPT3 takes its step lengths from a few Lanczos steps, Toh, Comput.
Optim. Appl. 21, 2002; here the value is only a bound), and one batched
Cholesky factorization of the blocks shifted by the side's least bound
clears every block it factors: at N = 16 about 13 % of the blocks are kept,
where Gershgorin's rule kept 70 %.

A solve never raises for a failed iteration.  Its status, ``"optimal"``,
``"max-iterations"``, ``"stalled"`` (step lengths collapsed) or
``"breakdown"`` (a factorization or solve failed, or the error row's float
arithmetic divided by zero), says how it ended.

G is decomposed once per configuration: ``build_problem`` hands the solve
the configuration's ``weighted_spectrum``, which ``quantum`` also reads
S(rho_p) from.  The answer stays in the solve's coordinates
(``BlockSdpSolution``), the one form the read-back holds: the solution forms
its POVM's operators, failure operator, support dimension and rank flag on
access, ``extract_povm`` checks it against the configuration, and
``povm_channel_statistics`` runs that check and reads the block diagonals
off the reduced variables, so the read-back decomposes nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matlin
from .matlin import ValidationError
from .quantum import ChannelStatistics, InterferometerConfig

__all__ = [
    "BlockSdpProblem",
    "BlockSdpSolution",
    "NumericalBreakdownError",
    "SolverOptions",
    "build_problem",
    "extract_povm",
    "povm_channel_statistics",
    "solve",
]

log = logging.getLogger("wpduality.sdp")

RANGE_TOL = 1e-6  # residual below which e_j counts as lying in range(G)
STEP_FRACTION = 0.98  # share of the distance to the cone boundary per step
# Step lengths eigensolve only the blocks that can bind (``_lowest_eigenvalues``)
# from this many blocks a side on.  Below it the Gershgorin pass, about 20 us
# of numpy calls, costs about what the eigensolves it saves do: per call, on
# stacks recorded from P_e = 0.05 solves (2-core VM, BLAS on one thread),
# 7 blocks of order 6 took 58-63 us unfiltered and 68-74 us filtered, 9 of
# order 8 110-119 and 109-114 us, 10 of order 9 155-181 and 138-141 us, and
# the 49 blocks of order 4 of an N = 48, rank-4 Gram 197-199 and 94 us.
GERSHGORIN_MIN_BLOCKS = 10
GERSHGORIN_MARGIN = 1e-8  # both rules' pruning margin, relative to the largest absolute row sum
# From this block order on, the pruning pass is Ritz bounds and a Cholesky
# certificate instead of Gershgorin's.  It eigensolves fewer blocks (at
# N = 16, P_e = 0.05 13 % against 70 %) but costs more numpy calls: per call
# on stacks recorded from P_e > 0 solves (2-core VM, BLAS on one thread),
# Gershgorin -> Ritz + Cholesky, order 4 (N = 48, rank 4) 94 -> 149 us,
# 6 75 -> 107, 7 95 -> 110, 8 124 -> 116, 9 136 -> 116, 12 249 -> 160,
# 16 489 -> 255 and 24 1317 -> 638 us.
CHOLESKY_MIN_ORDER = 8


class NumericalBreakdownError(RuntimeError):
    """Raised by ``discriminate`` for a non-optimal solve; ``solve`` never raises it."""


@dataclass(frozen=True)
class SolverOptions:
    """Interior-point controls; defaults match the package test tolerances.
    The tolerance is a real number in (0, inf), the iteration cap an integer >= 1."""

    tolerance: float = 1e-7
    max_iterations: int = 200

    def __post_init__(self):
        # For floats this closed interval is exactly 0 < tolerance < inf.
        matlin.real_in(self.tolerance, math.ulp(0.0), math.nextafter(math.inf, 0.0), "tolerance")
        matlin.integer_at_least(self.max_iterations, 1, "max_iterations")


@dataclass(frozen=True)
class BlockSdpProblem:
    """Prior-weighted Gram matrix, error budget and block count.

    ``spectrum`` is the one eigendecomposition of ``gram``, read-only; the
    solver's support reduction reads it.  The problem takes it with
    :func:`wpduality.matlin.psd_spectrum`, the PSD check, unless the caller
    passes ``decomposition``, one that rule already took:
    :func:`build_problem` passes the configuration's ``weighted_spectrum``.
    """

    gram: np.ndarray
    error_budget: float
    block_count: int
    decomposition: InitVar[matlin.EigenDecomposition | None] = None
    spectrum: matlin.EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self, decomposition):
        budget = matlin.probability(self.error_budget, "error budget")
        count = matlin.integer_at_least(self.block_count, 1, "block_count")
        g = matlin.hermitian(self.gram)
        if g.shape[0] != count:
            raise ValidationError("block_count must match the Gram dimension")
        spectrum = matlin.psd_spectrum(g) if decomposition is None else decomposition
        object.__setattr__(self, "error_budget", budget)
        object.__setattr__(self, "block_count", count)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "spectrum", spectrum)
        self.gram.setflags(write=False)


@dataclass(frozen=True)
class BlockSdpSolution:
    """The optimum in the solve's own coordinates, plus certificate data.

    ``support`` is the numerical support G ~ Q diag(lambda) Q^H the solve ran
    on, Q of shape (N, r).  ``reduced`` is the optimum there: at P_e > 0 the
    (N, r, r) stack of x_j, with blocks z_j = Q x_j Q^H; at P_e = 0 the N
    weights w, with z_j = w_j |j><j|.  ``objective`` is the minimum failure
    probability 1 - tr Z (clamped to [0, 1]); ``slack_psd`` is G - sum z_j;
    ``error_used`` is tr(Z B); ``gap`` is the primal-dual objective
    difference at termination.

    An optimal solution is its own POVM (check it with :func:`extract_povm`):
    ``operators[j]`` identifies state j, and ``failure_operator`` is the
    inconclusive outcome.  All act on the support, of dimension
    ``support_dim``; ``rank_deficient`` flags a singular G.  Like ``blocks``,
    each is formed anew on each access.
    """

    support: matlin.EigenDecomposition
    reduced: np.ndarray
    objective: float
    slack_psd: np.ndarray
    error_used: float
    status: str
    iterations: int
    dual_objective: float
    gap: float

    @property
    def blocks(self) -> list:
        """The N x N blocks z_j, formed anew on each access."""
        q = self.support.eigenvectors
        if self.reduced.ndim == 3:
            return [_herm(q @ x_j @ q.conj().T) for x_j in self.reduced]
        n = q.shape[0]
        # One array per block: writing the N nonzero entries of one (N, N, N)
        # stack faulted in most of its 268 MB at N = 256.
        blocks = [np.zeros((n, n), dtype=np.complex128) for _ in range(n)]
        for j, w_j in enumerate(self.reduced):  # block j is w_j |j><j|
            blocks[j][j, j] = w_j
        return blocks

    @property
    def support_dim(self) -> int:
        return self.support.eigenvalues.size

    @property
    def rank_deficient(self) -> bool:
        return self.support_dim < self.support.eigenvectors.shape[0]

    @property
    def operators(self) -> list:
        """The Pi_j of :func:`extract_povm`, one r x r array each."""
        inv_root = 1.0 / np.sqrt(self.support.eigenvalues)
        if self.reduced.ndim == 3:  # a real symmetric scaling keeps each x_j Hermitian
            return list(self.reduced * np.outer(inv_root, inv_root))
        v = inv_root[:, None] * self.support.eigenvectors.conj().T  # column j is v_j
        return [w_j * np.outer(v_j, v_j.conj()) for w_j, v_j in zip(self.reduced, v.T)]

    @property
    def failure_operator(self) -> np.ndarray:
        """I - sum_j Pi_j, in one step."""
        q = self.support.eigenvectors
        if self.reduced.ndim == 3:
            x = self.reduced.sum(axis=0)
        else:  # sum_j w_j Q^H e_j e_j^H Q
            x = (q.conj().T * self.reduced) @ q
        inv_root = 1.0 / np.sqrt(self.support.eigenvalues)
        return _herm(np.eye(q.shape[1], dtype=np.complex128) - x * np.outer(inv_root, inv_root))


def build_problem(cfg: InterferometerConfig, error_budget: float) -> BlockSdpProblem:
    """Assemble the problem on the weighted Gram G_jk = sqrt(p_j p_k) <eta_j|eta_k>,
    with the configuration's one decomposition of it."""
    return BlockSdpProblem(gram=cfg.weighted_gram, error_budget=error_budget,
                           block_count=cfg.n_paths, decomposition=cfg.weighted_spectrum)


# ---------------------------------------------------------------------------
# Interior-point core
# ---------------------------------------------------------------------------


class _NtScaling:
    """Nesterov-Todd scaling data for the PSD stack, shape (k, d, d).

    Per block, ``rw`` satisfies W = rw rw^H with W Z W = X, and the scaled
    point rw^H Z rw = rw^{-1} X rw^{-H} is the diagonal matrix diag(lam).
    With Cholesky factors X = lx lx^H, Z = lz lz^H and the SVD
    lz^H lx = U diag(lam) V^H, rw = lx V diag(lam)^{-1/2} and
    rw^{-1} = diag(lam)^{-1/2} U^H lz^H, so no factor is inverted.  The
    factors are held stacked by side, ``left`` = [rw^{-1}, rw^H] and
    ``right`` = [rw^{-H}, rw], each (2, k, d, d), so both sides' scaled
    directions are two batched matmuls.  They and the outer product
    lam^{-1/2} lam^{-1/2}^T, which the iteration uses more than once, are
    formed here, once.

    The point, a pair of directions and a pair of scaled directions are
    each one complex (2, k, d, d) stack: [X, Z], [D_x, D_z] and [du, dv].
    Both Cholesky factors come from one call on the point.
    """

    __slots__ = ("left", "right", "w", "lam", "inv_root_outer")

    def __init__(self, point: np.ndarray):
        factors = np.linalg.cholesky(point)
        lx, lz_h = factors[0], _ct(factors[1])
        u, sig, vh = np.linalg.svd(lz_h @ lx)
        inv_root = 1.0 / np.sqrt(sig)
        self.left = np.empty(point.shape, dtype=np.complex128)
        self.right = np.empty_like(self.left)
        rw = np.multiply(lx @ _ct(vh), inv_root[:, None, :], out=self.right[1])
        rw_inv = np.multiply(inv_root[:, :, None], _ct(u) @ lz_h, out=self.left[0])
        np.conjugate(rw.swapaxes(-1, -2), out=self.left[1])
        np.conjugate(rw_inv.swapaxes(-1, -2), out=self.right[0])
        self.w = rw @ self.left[1]
        self.lam = sig
        self.inv_root_outer = inv_root[:, :, None] * inv_root[:, None, :]

    def wdw(self, d: np.ndarray) -> np.ndarray:
        return self.w @ d @ self.w

    def scaled(self, pair: np.ndarray) -> np.ndarray:
        """[rw^{-1} D_x rw^{-H}, rw^H D_z rw], which map the points X and Z
        to diag(lam)."""
        return self.left @ pair @ self.right

    def max_steps(self, scaled: np.ndarray) -> tuple[float, float]:
        """Largest alpha_p and alpha_d keeping every block of X + alpha_p D_x
        and Z + alpha_d D_z PSD, from the scaled pair [du, dv].

        X + alpha D is PSD exactly when I + alpha lam^{-1/2} du lam^{-1/2}
        is, so each side's step comes from the smallest eigenvalue over its
        blocks (``_lowest_eigenvalues``); both sides' blocks go through one
        ``eigvalsh`` call, which from ``GERSHGORIN_MIN_BLOCKS`` blocks on
        solves only the blocks that a Gershgorin bound (below order
        ``CHOLESKY_MIN_ORDER``) or a Ritz bound and a Cholesky certificate
        (from it on) do not clear.
        """
        lowest = _lowest_eigenvalues(_herm(scaled * self.inv_root_outer))
        return _step_to_boundary(lowest[0]), _step_to_boundary(lowest[1])

    def corrector(self, scaled: np.ndarray, sigma_mu: float) -> np.ndarray:
        """Complementarity term of the corrector: sigma mu I - lam^2 - du dv
        symmetrized in the scaled space, where the point is diag(lam) and the
        Lyapunov inverse is entrywise, mapped back by rw . rw^H."""
        h2 = scaled[0] @ scaled[1]
        num = np.add(h2, _ct(h2), order="C")  # C order, so the reshape below is a view
        np.negative(num, out=num)
        k, d = self.lam.shape
        diagonal = num.reshape(k, d * d)[:, :: d + 1]
        diagonal += 2.0 * sigma_mu - 2.0 * self.lam ** 2
        num /= self.lam[:, :, None] + self.lam[:, None, :]
        return self.right[1] @ num @ self.left[1]


class _OrthantScaling:
    """Nesterov-Todd scaling of the orthant part, a real vector x > 0 with
    dual z > 0, in closed form: w = sqrt(x / z), and the scaled point is
    x / w = w z = lam = sqrt(x z).  Built from x and z, it has the methods
    of ``_NtScaling``, elementwise, with a pair held as a tuple of two
    vectors."""

    __slots__ = ("w", "w_sq", "lam")

    def __init__(self, x: np.ndarray, z: np.ndarray):
        if not (x.min() > 0.0 and z.min() > 0.0):
            raise np.linalg.LinAlgError("orthant point is not interior")
        self.w = np.sqrt(x / z)
        self.w_sq = self.w * self.w  # W D W reads it three times an iteration
        self.lam = np.sqrt(x * z)

    def wdw(self, d: np.ndarray) -> np.ndarray:
        return self.w_sq * d

    def scaled(self, pair) -> tuple:
        return pair[0] / self.w, self.w * pair[1]

    def max_steps(self, scaled) -> tuple[float, float]:
        du, dv = scaled
        return _step_to_boundary((du / self.lam).min()), _step_to_boundary((dv / self.lam).min())

    def corrector(self, scaled, sigma_mu: float) -> np.ndarray:
        du, dv = scaled
        return self.w * ((sigma_mu - self.lam * self.lam - du * dv) / self.lam)


class _ScalarScaling(_OrthantScaling):
    """``_OrthantScaling`` of a one-element orthant part held as a float,
    in float arithmetic: each operation is the IEEE double operation numpy
    takes on a 1-element vector (``math.sqrt`` and ``np.sqrt`` are both
    correctly rounded), so every result is that class's, bit for bit.  A
    pair is a tuple of two floats.  Where numpy would give inf, a float
    division by zero (w or lam underflowed) raises ``ZeroDivisionError``,
    which ends the solve as a breakdown."""

    __slots__ = ()

    def __init__(self, x: float, z: float):
        if not (x > 0.0 and z > 0.0):
            raise np.linalg.LinAlgError("orthant point is not interior")
        self.w = math.sqrt(x / z)
        self.w_sq = self.w * self.w
        self.lam = math.sqrt(x * z)

    def max_steps(self, scaled) -> tuple[float, float]:
        du, dv = scaled
        return _step_to_boundary(du / self.lam), _step_to_boundary(dv / self.lam)


def _lowest_eigenvalues(h: np.ndarray) -> tuple[float, float]:
    """The smallest eigenvalue over each side's blocks of the Hermitian stack
    h, shape (2, k, d, d), bitwise equal to
    ``np.linalg.eigvalsh(h)[..., 0].min(axis=1)``.

    From ``GERSHGORIN_MIN_BLOCKS`` blocks a side on, only the blocks that can
    hold their side's minimum are eigensolved.  Each side gets an upper
    bound u on its minimum plus ``GERSHGORIN_MARGIN`` times its largest
    absolute row sum (which bounds ||h||_2), far above the rounding errors
    below; a block whose smallest eigenvalue is certified to exceed u cannot
    hold the minimum.  Below order ``CHOLESKY_MIN_ORDER`` the bound is the
    side's smallest diagonal entry and the certificate a block's Gershgorin
    bound min_i (h_ii - sum_{j != i} |h_ij|) (Gershgorin, 1931).  From that
    order on the bound is the smallest of the blocks' Ritz values
    (``_ritz_bounds``), and the certificate a Cholesky factor of h_j - u I
    (``matlin.cholesky_succeeds``, one call), which exists only where
    lambda_min(h_j) > u - O(d eps ||h||).  The block with the smallest bound
    is never cleared.  ``eigvalsh`` solves each matrix of a stack on its
    own, so the kept blocks' values are those of the full call.  A NaN or
    inf entry makes its side's u NaN or inf, which clears no block of that
    side, so NaN and inf reach ``eigvalsh`` as they do unfiltered.
    """
    k, d = h.shape[1], h.shape[-1]
    if k < GERSHGORIN_MIN_BLOCKS:
        return np.linalg.eigvalsh(h)[..., 0].min(axis=1)
    diag = h.real.diagonal(axis1=-2, axis2=-1)
    rows = np.abs(h) @ np.ones(d)  # absolute row sums, (2, k, d)
    with np.errstate(invalid="ignore"):  # NaN and inf keep their side's blocks
        margin = GERSHGORIN_MARGIN * rows.max(axis=(1, 2))
        if d < CHOLESKY_MIN_ORDER:
            lower = (diag + np.abs(diag) - rows).min(axis=-1)
            keep = ~(lower > (diag.min(axis=(1, 2)) + margin)[:, None])
        else:
            upper = _ritz_bounds(h, diag).min(axis=1) + margin
            shifted = h.copy()
            shifted.reshape(2, k, d * d)[..., :: d + 1] -= upper[:, None, None]
            keep = ~matlin.cholesky_succeeds(shifted)
    lowest = np.linalg.eigvalsh(h[keep])[:, 0]
    primal = np.count_nonzero(keep[0])
    return lowest[:primal].min(), lowest[primal:].min()


def _ritz_bounds(h: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """An upper bound on each block's smallest eigenvalue, shape (2, k): the
    smaller Rayleigh-Ritz value of the block H on span{e_i, H e_i}, with i
    its smallest diagonal entry (a two-step Lanczos value).  With
    r = H e_i - h_ii e_i, which is orthogonal to e_i, H projects onto that
    span as [[h_ii, ||r||], [||r||, r^H H r / ||r||^2]], whose smaller
    eigenvalue lies above lambda_min(H) (Cauchy interlacing); where r = 0,
    e_i is an eigenvector and the bound is h_ii.  r is divided by its largest
    entry's modulus first, so no square underflows or overflows.  Callers
    silence invalid: the NaNs of r = 0 are dropped by the ``where``, and any
    other comes from a NaN or inf entry."""
    k, d = h.shape[1], h.shape[-1]
    blocks, i = np.arange(2 * k), diag.argmin(axis=-1).ravel()
    h_ii = diag.min(axis=-1)
    r = h.reshape(2 * k, d, d)[blocks, :, i]  # column i of each block, (2k, d)
    r[blocks, i] = 0.0
    r = r.reshape(2, k, d)
    scale = np.abs(r).max(axis=-1)
    q = r / scale[..., None]
    q_conj = q.conj()
    q_sq = (q_conj * q).sum(axis=-1).real  # in [1, d]
    rayleigh = (q_conj * (h @ q[..., None])[..., 0]).sum(axis=-1).real / q_sq
    ritz = (h_ii + rayleigh) / 2.0 - np.hypot((h_ii - rayleigh) / 2.0, scale * np.sqrt(q_sq))
    return np.where(scale > 0.0, ritz, h_ii)


def _step_to_boundary(lowest: float) -> float:
    """Step to the cone boundary along a scaled direction whose smallest
    eigenvalue relative to the point is ``lowest``."""
    if lowest >= -1e-16:
        return np.inf
    return -1.0 / float(lowest)


def _step_lengths(scalings, scaled, fraction: float = 1.0) -> tuple[float, float]:
    """(alpha_p, alpha_d): ``fraction`` of the way to the boundary on each
    side, at most 1, from the scaled pairs of both parts."""
    (psd_p, psd_d), (orthant_p, orthant_d) = [
        sc.max_steps(scaled_b) for sc, scaled_b in zip(scalings, scaled)]
    return min(1.0, fraction * min(psd_p, orthant_p)), min(1.0, fraction * min(psd_d, orthant_d))


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.swapaxes(-1, -2).conj()


def _herm(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    h = np.add(m, _ct(m), out=out)
    h /= 2.0
    return h


def _inner(a, b):
    """The real part of <a, b>, ``np.vdot(a, b).real``; of two floats, their
    product, what numpy takes for ``[a]`` and ``[b]``."""
    if isinstance(a, float):
        return a * b
    return np.vdot(a, b).real


def _norm(v) -> np.float64:
    """``np.linalg.norm(v)`` bit for bit, with the same operations, without
    its argument handling; a float's is ``math.sqrt(v * v)``, what numpy
    takes for ``[v]``."""
    if isinstance(v, float):
        return np.float64(math.sqrt(v * v))  # whose square overflows to inf, not an error
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return np.sqrt(v.dot(v))


# A problem core holds only what differs between P_e > 0 and P_e = 0, in the
# standard form min <C, X> s.t. A(X) = b, X PSD, with one dual vector y and
# dual slack Z = C - A*(y): the right-hand side b, the cost blocks ``cost`` (C),
# initial_point() -> (x, y, z), apply_a(blocks) -> vector,
# apply_a_adjoint(y) -> blocks, schur_solver(scalings) -> solve(rhs) -> dy (one
# Schur matrix per call, serving both Newton steps), and
# objectives(x, y) -> (pobj, dobj) in P_f units: pobj is the failure
# probability of the measurement the iterate encodes (from x at P_e > 0, from
# the weights y at P_e = 0) and dobj the lower bound on it from the other side.
# Each of x, z, C and A*(y) is a pair [PSD stack (k, d, d), orthant part] as
# in the module docstring: the orthant part is one float where the core has
# one linear row (P_e > 0), a vector (m,) where it has m (P_e = 0), and the
# core's ``orthant_scaling`` is the scaling class of that form.  ``_run_ipm``
# holds the PSD stacks of x and z as one (2, k, d, d) stack [X, Z], as it
# does the Newton directions [D_x, D_z], and the orthant parts, and their
# directions, apart.  The scalings, one per part, give W D W, the scaled
# pair, the step lengths to the boundary on both sides, and the corrector term.


class _MarginCore:
    """P_e > 0 problem on the support of G: N full blocks + PSD slack + scalar.

    Its Schur workspace, two r^2 x r^2 buffers, serves every iteration of
    the solve: the Gram product of the scalings, and T in Fortran order,
    which ``lu_solver`` factors in place.  The error row's slack, its dual
    and the row's multiplier t in A*(y) are floats.
    """

    orthant_scaling = _ScalarScaling

    def __init__(self, gt: np.ndarray, qs: np.ndarray, pe: float):
        self.pe = float(pe)
        self.b = np.concatenate([gt.reshape(-1), [self.pe]])
        self.r = gt.shape[0]
        self.n_var = qs.shape[0]
        self.gram_buf = np.empty((self.r ** 2, self.r ** 2), dtype=np.complex128)
        self.t_buf = np.empty_like(self.gram_buf, order="F")
        self.betas = np.eye(self.r) - qs[:, :, None] * qs.conj()[:, None, :]
        # Cost -I on the variable blocks and 0 on the slacks.
        cost = np.zeros((self.n_var + 1, self.r, self.r), dtype=np.complex128)
        cost[: self.n_var] = -np.eye(self.r)
        self.cost = [cost, 0.0]

    def initial_point(self):
        r, n, pe = self.r, self.n_var, self.pe
        gt = self.b[:-1].reshape(r, r)
        eps = float(np.diag(gt).real.min()) / (2.0 * n)
        total_beta = r * (n - 1.0)  # sum_j tr beta_j, as Q has orthonormal columns
        if total_beta > 0:
            eps = min(eps, pe / (2.0 * total_beta))
        eye = np.eye(r, dtype=np.complex128)
        x = [np.concatenate([np.broadcast_to(eps * eye, (n, r, r)), (gt - n * eps * eye)[None]]),
             pe - eps * total_beta]
        y = np.concatenate([-2.0 * eye.reshape(-1), [-1.0]])
        z = [np.concatenate([eye + self.betas, 2.0 * eye[None]]), 1.0]
        return x, y, z

    def apply_a(self, blocks):
        out = np.empty(self.b.size, dtype=np.complex128)
        blocks[0].sum(axis=0, out=out[:-1].reshape(self.r, self.r))
        out[-1] = blocks[1] + np.vdot(self.betas, blocks[0][: self.n_var]).real
        return out

    def apply_a_adjoint(self, y):
        n = self.n_var
        ym, t = y[:-1].reshape(self.r, self.r), y.item(-1).real
        adj = np.empty((n + 1, self.r, self.r), dtype=np.complex128)
        np.add(ym, np.multiply(t, self.betas, out=adj[:n]), out=adj[:n])
        adj[n] = ym
        return [adj, t]

    def objectives(self, x, y):
        pobj = 1.0 - np.trace(x[0][: self.n_var], axis1=1, axis2=2).real.sum()
        return pobj, 1.0 + np.vdot(self.b, y).real

    def schur_solver(self, scalings):
        r, n = self.r, self.n_var
        ws = scalings[0].w  # variable blocks + PSD slack
        flat = ws.reshape(n + 1, r * r)
        gram = np.matmul(flat.T, flat.conj(), out=self.gram_buf)
        # T[(a, c), (b, d)] = gram[(a, b), (c, d)], written in Fortran order
        self.t_buf.T.reshape(r, r, r, r)[...] = gram.reshape(r, r, r, r).transpose(1, 3, 0, 2)
        wbw = ws[:n] @ self.betas @ ws[:n]
        dvec = wbw.sum(axis=0).reshape(-1)
        kappa = scalings[1].w_sq + np.vdot(self.betas, wbw).real
        t_solve = matlin.lu_solver(self.t_buf)  # factored in place
        t_inv_d = denom = None  # set by the first call, which solves for T^-1 d too

        def solve_fn(rhs):
            nonlocal t_inv_d, denom
            if t_inv_d is None:
                columns = np.empty((r * r, 2), dtype=np.complex128)
                columns[:, 0] = rhs[:-1]
                columns[:, 1] = dvec
                u, t_inv_d = t_solve(columns).T
                denom = kappa - np.vdot(dvec, t_inv_d).real
                if not denom > 0.0:  # last pivot of the bordered Schur matrix
                    raise np.linalg.LinAlgError("Schur complement is not positive definite")
            else:
                u = t_solve(rhs[:-1])
            t_step = (rhs[-1].real - np.vdot(dvec, u).real) / denom
            dy = np.empty(r * r + 1, dtype=np.complex128)
            _herm((u - t_step * t_inv_d).reshape(r, r), out=dy[:-1].reshape(r, r))
            dy[-1] = t_step
            return dy

        return solve_fn


class _UsdCore:
    """P_e = 0 problem in its m-constraint form: Y PSD, q_j^H Y q_j - s_j = 1.

    Its dual vector y is the weight vector w of the identifiable directions,
    and the dual slack is [G - sum_j w_j q_j q_j^H, w].
    """

    orthant_scaling = _OrthantScaling

    def __init__(self, gt: np.ndarray, qs: np.ndarray):
        self.qs = qs  # row j is the unit row q_j of identifiable state j
        self.qs_conj = qs.conj()
        m = qs.shape[0]
        self.b = np.ones(m)
        self.cost = [gt[None], np.zeros(m)]

    def initial_point(self):
        m, r = self.qs.shape
        eps = float(np.diag(self.cost[0][0]).real.min()) / (2.0 * m)
        x = [2.0 * np.eye(r, dtype=np.complex128)[None], np.ones(m)]
        y = np.full(m, eps)
        z = [c_b - adj_b for c_b, adj_b in zip(self.cost, self.apply_a_adjoint(y))]
        return x, y, z

    def apply_a(self, blocks):
        quad = ((self.qs_conj @ blocks[0][0]) * self.qs).sum(axis=1).real
        return quad - blocks[1]

    def apply_a_adjoint(self, y):
        return [((self.qs.T * y) @ self.qs_conj)[None], -y]

    def objectives(self, x, y):
        return 1.0 - y.sum(), 1.0 - np.vdot(self.cost[0], x[0]).real

    def schur_solver(self, scalings):
        v = self.qs_conj @ scalings[0].w[0] @ self.qs.T  # v_ij = q_i^H W_Y q_j
        schur = v.real ** 2 + v.imag ** 2 + np.diag(scalings[1].w_sq)
        return lambda rhs: np.linalg.solve(schur, rhs)


def _newton_step(core, scalings, rp, rd, wrdw, rc, schur_solve):
    """One Newton direction: dy, and per part the pair (D_x, D_z), with
    D_x = E + W A*(dy) W and D_z = R_d - A*(dy): for the PSD stack one
    (2, k, d, d) stack, for the orthant part a tuple.  ``wrdw`` is W rd W,
    part by part."""
    filt = [rc_b - wrdw_b for wrdw_b, rc_b in zip(wrdw, rc)]
    dy = schur_solve(rp - core.apply_a(filt))
    adj = core.apply_a_adjoint(dy)
    psd = np.empty((2,) + adj[0].shape, dtype=np.complex128)
    np.add(filt[0], scalings[0].wdw(adj[0]), out=psd[0])
    np.subtract(rd[0], adj[0], out=psd[1])
    return dy, [psd, (filt[1] + scalings[1].wdw(adj[1]), rd[1] - adj[1])]


def _objectives_and_gap(core, x, y, z):
    """The core's two objectives in P_f units, and the gap <Z, X>."""
    pobj, dobj = core.objectives(x, y)
    return pobj, dobj, sum(_inner(z_b, x_b) for x_b, z_b in zip(x, z))


def _run_ipm(core, options: SolverOptions):
    x, y, z = core.initial_point()
    xz = np.stack([x[0], z[0]])  # [X, Z]; each side's orthant part stays apart
    x_orth, z_orth = x[1], z[1]
    nu = float(x[0].shape[0] * x[0].shape[1] + np.size(x[1]))
    c_scale = 1.0 + np.sqrt(sum(_inner(c_b, c_b) for c_b in core.cost))
    b_scale = 1.0 + float(_norm(core.b))
    tol = options.tolerance
    status = "max-iterations"
    iterations = 0

    for iteration in range(1, options.max_iterations + 1):
        iterations = iteration
        x, z = [xz[0], x_orth], [xz[1], z_orth]
        rp = core.b - core.apply_a(x)
        adj = core.apply_a_adjoint(y)
        rd = [c_b - z_b - adj_b for c_b, z_b, adj_b in zip(core.cost, z, adj)]

        pobj, dobj, gap = _objectives_and_gap(core, x, y, z)
        pinf = _norm(rp)
        dinf = np.sqrt(sum(_norm(r) ** 2 for r in rd))
        crit = max(pinf / b_scale, dinf / c_scale, abs(gap), abs(pobj - dobj))
        log.debug(
            "iter %3d  pobj=% .9e dobj=% .9e gap=%.2e pinf=%.1e dinf=%.1e",
            iteration, pobj, dobj, gap, pinf, dinf,
        )
        if crit <= tol:
            status = "optimal"
            iterations = iteration - 1
            break

        # The Schur-sized arrays live in the core's workspace for the whole
        # solve: glibc hands a freed block that large back to the system, and
        # faulting one in again every iteration cost about 270 minor page
        # faults (1 MB) per iteration at N = 16, P_e > 0.
        mu = gap / nu
        try:  # an NT scaling, the Schur factorization or a solve can fail
            scalings = [_NtScaling(xz), core.orthant_scaling(x_orth, z_orth)]
            schur_solve = core.schur_solver(scalings)
            wrdw = [sc.wdw(rd_b) for sc, rd_b in zip(scalings, rd)]  # both steps use it

            # Predictor: pure Newton step toward the boundary.
            rc_aff = [-x_b for x_b in x]
            _, pairs_a = _newton_step(core, scalings, rp, rd, wrdw, rc_aff, schur_solve)
            scaled_a = [sc.scaled(pair) for sc, pair in zip(scalings, pairs_a)]
            alpha_p, alpha_d = _step_lengths(scalings, scaled_a)
            psd, (dx_orth, dz_orth) = pairs_a
            trial = xz + np.array([alpha_p, alpha_d]).reshape(2, 1, 1, 1) * psd
            gap_aff = (np.vdot(trial[1], trial[0]).real
                       + _inner(z_orth + alpha_d * dz_orth, x_orth + alpha_p * dx_orth))
            # A float, so a float orthant part stays one through the corrector.
            sigma_mu = float(min(1.0, max(1e-10, gap_aff / gap) ** 3) * mu)

            # Corrector with the predictor's second-order term.
            rc = [sc.corrector(scaled, sigma_mu) for sc, scaled in zip(scalings, scaled_a)]
            dy, pairs = _newton_step(core, scalings, rp, rd, wrdw, rc, schur_solve)
            alpha_p, alpha_d = _step_lengths(
                scalings, [sc.scaled(pair) for sc, pair in zip(scalings, pairs)], STEP_FRACTION)
        except (np.linalg.LinAlgError, ArithmeticError):  # a float orthant part divides by 0
            status = "breakdown"
            break
        if max(alpha_p, alpha_d) < 1e-10:
            status = "stalled"
            break

        psd, (dx_orth, dz_orth) = pairs
        xz = _herm(xz + np.array([alpha_p, alpha_d]).reshape(2, 1, 1, 1) * psd)
        x_orth, z_orth = x_orth + alpha_p * dx_orth, z_orth + alpha_d * dz_orth
        y = y + alpha_d * dy  # at P_e > 0 dy's matrix part is Hermitian, so y stays so

    x, z = [xz[0], x_orth], [xz[1], z_orth]
    pobj, dobj, gap = _objectives_and_gap(core, x, y, z)
    return x, y, status, iterations, pobj, dobj, gap


def _identifiable(q: np.ndarray):
    """Indices of the states whose basis vector lies in range(G), and their
    unit rows q_j = Q^H e_j / |Q^H e_j|."""
    qs_all = q.conj()  # row j is Q^H e_j
    norms = np.linalg.norm(qs_all, axis=1)
    members = np.where(1.0 - norms ** 2 <= RANGE_TOL ** 2 + 1e-12)[0]
    return members, qs_all[members] / norms[members, None]


def solve(problem: BlockSdpProblem, options: SolverOptions | None = None) -> BlockSdpSolution:
    """Minimize the failure probability subject to the error budget.

    Returns the optimum on the support of G (see :class:`BlockSdpSolution`)
    together with the slack G - sum z_j, the error actually used, and the
    primal-dual certificate.  Never raises for a failed iteration: the
    status says how the solve ended, and a non-optimal one returns the last
    iterate with ``gap`` the accuracy it reached.
    """
    options = options or SolverOptions()
    n = problem.block_count
    support = matlin.numerical_support(problem.spectrum)
    gt, q = np.diag(support.eigenvalues).astype(np.complex128), support.eigenvectors
    r = gt.shape[0]

    if problem.error_budget <= 0.0 or r == 0:
        members, qs = _identifiable(q)
        reduced = np.zeros(n)  # the weights w
        if members.size == 0:  # nothing identifiable (or a zero G): all weights zero
            status, iterations, pobj, dobj, gap = "optimal", 0, 1.0, 1.0, 0.0
        else:
            core = _UsdCore(gt, qs)
            _, y, status, iterations, pobj, dobj, gap = _run_ipm(core, options)
            reduced[members] = np.maximum(y, 0.0)
        slack = problem.gram.copy()  # G - sum_j w_j |j><j|, without forming the blocks
        slack[members, members] -= reduced[members]
        error_used = 0.0
    else:
        core = _MarginCore(gt, q.conj(), problem.error_budget)
        x, _, status, iterations, pobj, dobj, gap = _run_ipm(core, options)
        reduced = x[0][:n]
        error_used = float(np.vdot(core.betas, reduced).real)
        slack = problem.gram - _herm(q @ reduced.sum(axis=0) @ q.conj().T)
    objective = min(max(pobj, 0.0), 1.0)
    log.info(
        "solve: n=%d r=%d budget=%.3g status=%s iters=%d objective=%.9f gap=%.2e",
        n, r, problem.error_budget, status, iterations, objective, gap,
    )
    return BlockSdpSolution(
        support=support,
        reduced=reduced,
        objective=objective,
        slack_psd=slack,
        error_used=error_used,
        status=status,
        iterations=iterations,
        dual_objective=float(dobj),
        gap=float(abs(gap)),
    )


# ---------------------------------------------------------------------------
# POVM extraction
# ---------------------------------------------------------------------------


def extract_povm(solution: BlockSdpSolution, cfg: InterferometerConfig) -> BlockSdpSolution:
    """Check that ``solution`` reads back as a POVM of ``cfg`` and return it.

    The solution is its own POVM: its ``operators`` Pi_j, with z_j = F^H Pi_j F
    and F = L^{1/2} Q^H, L = diag(lambda), are Pi_j = L^{-1/2} x_j L^{-1/2}
    at P_e > 0 and the rank-one w_j v_j v_j^H with v_j = L^{-1/2} Q^H e_j at
    P_e = 0.  Nothing is formed here: the solution must be optimal, and
    ``cfg`` must have its number of paths.
    """
    if solution.status != "optimal":
        raise ValidationError(
            f"POVM extraction needs an optimal solution, got status {solution.status!r}"
        )
    n = solution.support.eigenvectors.shape[0]
    if cfg.n_paths != n:
        raise ValidationError(f"configuration has {cfg.n_paths} paths, the solution {n}")
    return solution


def povm_channel_statistics(solution: BlockSdpSolution,
                            cfg: InterferometerConfig) -> ChannelStatistics:
    """Joint outcome statistics of the solution's POVM on the configuration:
    joint[x, j] = f_x^H Pi_j f_x = (z_j)_xx, read off the reduced variables.
    Checks ``solution`` and ``cfg`` as :func:`extract_povm` does."""
    sol, n = extract_povm(solution, cfg), cfg.n_paths
    joint = np.zeros((n, n + 1))
    if sol.reduced.ndim == 3:  # (Q x_j Q^H)_xx
        q = sol.support.eigenvectors
        joint[:, :n] = ((q @ sol.reduced) * q.conj()).sum(axis=-1).real.T
    else:  # z_j = w_j |j><j|
        joint[:, :n] = np.diag(sol.reduced)
    joint[:, n] = cfg.priors - joint[:, :n].sum(axis=1)
    return ChannelStatistics(joint)
