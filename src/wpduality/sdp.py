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
  vanish, so z_j collapses to a single nonnegative weight on |j><j|.  The
  solver runs on that reduced problem (the plain unambiguous-discrimination
  SDP), which restores a strict interior.

The Schur complement is assembled in matrix-vector coordinates, where the
congruence maps Y -> W Y W become Kronecker products; the resulting system is
Hermitian positive definite of size rank(G)^2 (+1), tiny for the problem
sizes targeted here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import ValidationError
from .quantum import ChannelStatistics, InterferometerConfig

__all__ = [
    "BlockSdpProblem",
    "BlockSdpSolution",
    "NumericalBreakdownError",
    "PovmSet",
    "SolverOptions",
    "build_problem",
    "extract_povm",
    "povm_channel_statistics",
    "solve",
]

log = logging.getLogger("wpduality.sdp")

SUPPORT_RTOL = 1e-10  # relative eigenvalue cutoff for the support of G
RANGE_TOL = 1e-6  # residual below which e_j counts as lying in range(G)


class NumericalBreakdownError(RuntimeError):
    """A barrier-system factorization failed; G is likely ill-conditioned."""


@dataclass(frozen=True)
class SolverOptions:
    """Interior-point controls; defaults match the package test tolerances."""

    tolerance: float = 1e-7
    max_iterations: int = 200
    step_fraction: float = 0.98


@dataclass(frozen=True)
class BlockSdpProblem:
    """Prior-weighted Gram matrix, error budget and block count.

    ``spectrum`` is the one eigendecomposition of ``gram``, taken when the
    problem is built; the PSD check and the solver's support reduction both
    read it.
    """

    gram: np.ndarray
    error_budget: float
    block_count: int
    spectrum: matlin.EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = matlin.hermitian(self.gram)
        if g.shape[0] != self.block_count:
            raise ValidationError("block_count must match the Gram dimension")
        spectrum = matlin.eig_hermitian(g)
        if spectrum.eigenvalues[-1] < -1e-9:
            raise matlin.NotPsdError("problem Gram matrix is not PSD within 1e-9")
        if not 0.0 <= self.error_budget <= 1.0:
            raise ValidationError(f"error budget {self.error_budget} outside [0, 1]")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "spectrum", spectrum)
        self.gram.setflags(write=False)


@dataclass(frozen=True)
class BlockSdpSolution:
    """Optimal blocks plus feasibility and certificate data.

    ``objective`` is the minimum failure probability 1 - tr Z (clamped to
    [0, 1]); ``slack_psd`` is G - sum z_j; ``error_used`` is tr(Z B);
    ``gap`` is the primal-dual objective difference at termination.
    """

    blocks: list
    objective: float
    slack_psd: np.ndarray
    error_used: float
    status: str
    iterations: int
    dual_objective: float
    gap: float


def _weighted_gram(cfg: InterferometerConfig) -> np.ndarray:
    """Prior-weighted Gram matrix G_jk = sqrt(p_j p_k) <eta_j|eta_k>."""
    root = np.sqrt(cfg.priors)
    return root[:, None] * root[None, :] * cfg.gram


def build_problem(cfg: InterferometerConfig, error_budget: float) -> BlockSdpProblem:
    """Assemble the problem on the prior-weighted Gram matrix of ``cfg``."""
    return BlockSdpProblem(gram=_weighted_gram(cfg), error_budget=float(error_budget),
                           block_count=cfg.n_paths)


# ---------------------------------------------------------------------------
# Interior-point core
# ---------------------------------------------------------------------------


class _NtScaling:
    """Nesterov-Todd scaling data for one PSD block.

    ``rw`` satisfies W = rw rw^H with W Z W = X, and the scaled point
    rw^H Z rw = rw^{-1} X rw^{-H} is the diagonal matrix diag(lam).
    """

    __slots__ = ("rw", "rw_inv", "w", "lam", "lx", "lz")

    def __init__(self, x: np.ndarray, z: np.ndarray):
        try:
            self.lx = np.linalg.cholesky(x)
            self.lz = np.linalg.cholesky(z)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("iterate left the PSD cone") from exc
        u, sig, vh = np.linalg.svd(self.lz.conj().T @ self.lx)
        del u
        v = vh.conj().T
        inv_root = 1.0 / np.sqrt(sig)
        self.rw = (self.lx @ v) * inv_root[None, :]
        self.rw_inv = (np.sqrt(sig)[:, None] * v.conj().T) @ np.linalg.inv(self.lx)
        self.w = self.rw @ self.rw.conj().T
        self.lam = sig


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _max_step(scaling: _NtScaling, direction: np.ndarray, primal: bool) -> float:
    """Largest alpha keeping X + alpha D (or Z + alpha D) PSD."""
    l = scaling.lx if primal else scaling.lz
    tmp = np.linalg.solve(l, direction)
    a = np.linalg.solve(l, tmp.conj().T)
    lam_min = float(np.linalg.eigvalsh(_herm(a))[0])
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


class _MarginCore:
    """P_e > 0 problem on the support of G: N full blocks + PSD slack + scalar."""

    def __init__(self, gt: np.ndarray, qs: np.ndarray, pe: float):
        self.gt = gt
        self.qs = qs
        self.pe = pe
        self.r = gt.shape[0]
        self.n = qs.shape[0]
        eye = np.eye(self.r, dtype=np.complex128)
        self.betas = [eye - np.outer(q, q.conj()) for q in qs]
        self.beta_traces = np.array([b.trace().real for b in self.betas])
        self.sizes = [self.r] * self.n + [self.r, 1]
        self.c_blocks = [-eye] * self.n + [
            np.zeros((self.r, self.r), dtype=np.complex128),
            np.zeros((1, 1), dtype=np.complex128),
        ]
        self.has_scalar_row = True
        self.b_norm = float(np.linalg.norm(gt) + abs(pe))

    def initial_point(self):
        lam_min = float(np.diag(self.gt).real.min())
        eps = lam_min / (2.0 * self.n)
        total_beta = float(self.beta_traces.sum())
        if total_beta > 0:
            eps = min(eps, self.pe / (2.0 * total_beta))
        eye = np.eye(self.r, dtype=np.complex128)
        x = [eps * eye for _ in range(self.n)]
        x.append(self.gt - self.n * eps * eye)
        x.append(np.array([[self.pe - eps * total_beta]], dtype=np.complex128))
        y = np.zeros((self.r, self.r), dtype=np.complex128) - 2.0 * eye
        t = -1.0
        z = [eye + b for b in self.betas]
        z.append(2.0 * eye)
        z.append(np.array([[1.0]], dtype=np.complex128))
        return x, y, t, z

    def apply_a(self, blocks):
        h = blocks[self.n].copy()
        for zb in blocks[: self.n]:
            h += zb
        s = blocks[self.n + 1][0, 0].real
        for beta, zb in zip(self.betas, blocks):
            s += np.vdot(beta, zb).real
        return h, float(s)

    def apply_a_adjoint(self, y, t):
        out = [y + t * beta for beta in self.betas]
        out.append(y.copy())
        out.append(np.array([[t]], dtype=np.complex128))
        return out

    def schur_solver(self, scalings):
        r = self.r
        t_mat = np.kron(scalings[self.n].w, scalings[self.n].w.conj())
        dmat = np.zeros((r, r), dtype=np.complex128)
        kappa = scalings[self.n + 1].w[0, 0].real ** 2
        for j in range(self.n):
            w = scalings[j].w
            t_mat += np.kron(w, w.conj())
            wbw = w @ self.betas[j] @ w
            dmat += wbw
            kappa += np.vdot(self.betas[j], wbw).real
        dvec = dmat.reshape(-1)
        try:
            chol = _CholeskySolve(t_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("Schur complement factorization failed") from exc
        t_inv_d = chol.solve(dvec)
        denom = kappa - np.vdot(dvec, t_inv_d).real

        def solve_fn(rhs_h, rhs_s):
            u = chol.solve(rhs_h.reshape(-1))
            t_step = (rhs_s - np.vdot(dvec, u).real) / denom
            y = (u - t_step * t_inv_d).reshape(r, r)
            return _herm(y), float(t_step)

        return solve_fn

    def primal_objective(self, blocks):
        return 1.0 - sum(b.trace().real for b in blocks[: self.n])

    def dual_objective(self, y, t):
        return 1.0 + np.vdot(self.gt, y).real + self.pe * t


class _UsdCore:
    """P_e = 0 problem: scalar weights on identifiable directions + PSD slack."""

    def __init__(self, gt: np.ndarray, qs: np.ndarray):
        self.gt = gt
        self.qs = qs  # unit rows, one per identifiable state
        self.r = gt.shape[0]
        self.m = qs.shape[0]
        self.rank1 = [np.outer(q, q.conj()) for q in qs]
        self.sizes = [1] * self.m + [self.r]
        self.c_blocks = [-np.ones((1, 1), dtype=np.complex128)] * self.m + [
            np.zeros((self.r, self.r), dtype=np.complex128)
        ]
        self.has_scalar_row = False
        self.pe = 0.0
        self.b_norm = float(np.linalg.norm(gt))

    def initial_point(self):
        lam_min = float(np.diag(self.gt).real.min())
        eps = lam_min / (2.0 * self.m)
        x = [np.array([[eps]], dtype=np.complex128) for _ in range(self.m)]
        slack = self.gt.astype(np.complex128).copy()
        for proj in self.rank1:
            slack -= eps * proj
        x.append(slack)
        eye = np.eye(self.r, dtype=np.complex128)
        y = -2.0 * eye
        z = [np.array([[2.0 * float(np.vdot(q, q).real) - 1.0]], dtype=np.complex128)
             for q in self.qs]
        z.append(2.0 * eye)
        return x, y, 0.0, z

    def apply_a(self, blocks):
        h = blocks[self.m].copy()
        for proj, zb in zip(self.rank1, blocks):
            h += zb[0, 0].real * proj
        return h, None

    def apply_a_adjoint(self, y, t):
        out = [np.array([[np.vdot(q, y @ q).real]], dtype=np.complex128)
               for q in self.qs]
        out.append(y.copy())
        return out

    def schur_solver(self, scalings):
        r = self.r
        t_mat = np.kron(scalings[self.m].w, scalings[self.m].w.conj())
        for j in range(self.m):
            w2 = scalings[j].w[0, 0].real ** 2
            u = self.rank1[j].reshape(-1)
            t_mat += w2 * np.outer(u, u.conj())
        try:
            chol = _CholeskySolve(t_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("Schur complement factorization failed") from exc

        def solve_fn(rhs_h, rhs_s):
            del rhs_s
            y = chol.solve(rhs_h.reshape(-1)).reshape(r, r)
            return _herm(y), 0.0

        return solve_fn

    def primal_objective(self, blocks):
        return 1.0 - sum(b[0, 0].real for b in blocks[: self.m])

    def dual_objective(self, y, t):
        del t
        return 1.0 + np.vdot(self.gt, y).real


class _CholeskySolve:
    """One Cholesky factorization of the Schur matrix, reused per iteration."""

    def __init__(self, a: np.ndarray):
        try:
            self.chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            # Near-singular late iterates: retry with a tiny diagonal shift.
            jitter = 1e-14 * max(1.0, float(np.abs(a).max()))
            self.chol = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        l = self.chol
        return np.linalg.solve(l.conj().T, np.linalg.solve(l, rhs))


def _newton_step(core, scalings, rp_h, rp_s, rd, rc, schur_solve):
    filt = []
    for sc, rd_b, rc_b in zip(scalings, rd, rc):
        filt.append(rc_b - sc.w @ rd_b @ sc.w)
    ae_h, ae_s = core.apply_a(filt)
    rhs_h = rp_h - ae_h
    rhs_s = (rp_s - ae_s) if core.has_scalar_row else None
    y_step, t_step = schur_solve(rhs_h, rhs_s)
    adj = core.apply_a_adjoint(y_step, t_step)
    dz = [rd_b - adj_b for rd_b, adj_b in zip(rd, adj)]
    dx = [e_b + sc.w @ adj_b @ sc.w
          for e_b, sc, adj_b in zip(filt, scalings, adj)]
    return dx, y_step, t_step, dz


def _run_ipm(core, options: SolverOptions):
    x, y, t, z = core.initial_point()
    nu = float(sum(core.sizes))
    c_norm = 1.0 + np.sqrt(sum(np.linalg.norm(c) ** 2 for c in core.c_blocks))
    b_norm = 1.0 + core.b_norm
    tol = options.tolerance
    status = "max-iterations"
    iterations = 0

    for iteration in range(1, options.max_iterations + 1):
        iterations = iteration
        ax_h, ax_s = core.apply_a(x)
        rp_h = core.gt - ax_h
        rp_s = (core.pe - ax_s) if core.has_scalar_row else None
        adj = core.apply_a_adjoint(y, t)
        rd = [c_b - z_b - adj_b for c_b, z_b, adj_b in zip(core.c_blocks, z, adj)]

        gap = sum(np.vdot(z_b, x_b).real for x_b, z_b in zip(x, z))
        mu = gap / nu
        pobj = core.primal_objective(x)
        dobj = core.dual_objective(y, t)
        pinf = np.linalg.norm(rp_h) + (abs(rp_s) if rp_s is not None else 0.0)
        dinf = np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd))
        crit = max(pinf / b_norm, dinf / c_norm, abs(gap), abs(pobj - dobj))
        log.debug(
            "iter %3d  pobj=% .9e dobj=% .9e gap=%.2e pinf=%.1e dinf=%.1e",
            iteration, pobj, dobj, gap, pinf, dinf,
        )
        if crit <= tol:
            status = "optimal"
            iterations = iteration - 1
            break

        scalings = [_NtScaling(x_b, z_b) for x_b, z_b in zip(x, z)]
        schur_solve = core.schur_solver(scalings)

        # Predictor: pure Newton step toward the boundary.
        rc_aff = [-x_b for x_b in x]
        dx_a, dy_a, dt_a, dz_a = _newton_step(
            core, scalings, rp_h, rp_s, rd, rc_aff, schur_solve
        )
        alpha_p = min(1.0, min(_max_step(sc, d, True) for sc, d in zip(scalings, dx_a)))
        alpha_d = min(1.0, min(_max_step(sc, d, False) for sc, d in zip(scalings, dz_a)))
        gap_aff = sum(
            np.vdot(z_b + alpha_d * dz_b, x_b + alpha_p * dx_b).real
            for x_b, z_b, dx_b, dz_b in zip(x, z, dx_a, dz_a)
        )
        sigma = min(1.0, max(1e-10, gap_aff / gap) ** 3)

        # Corrector with the second-order term in the scaled space, where the
        # scaled point is diagonal and the Lyapunov inverse is entrywise.
        rc = []
        target = 2.0 * sigma * mu
        for sc, dx_b, dz_b in zip(scalings, dx_a, dz_a):
            du = sc.rw_inv @ dx_b @ sc.rw_inv.conj().T
            dv = sc.rw.conj().T @ dz_b @ sc.rw
            h2 = du @ dv
            h2 = h2 + h2.conj().T
            num = -h2
            idx = np.arange(num.shape[0])
            num[idx, idx] += target - 2.0 * sc.lam ** 2
            num /= sc.lam[:, None] + sc.lam[None, :]
            rc.append(sc.rw @ num @ sc.rw.conj().T)

        dx, dy, dt, dz = _newton_step(core, scalings, rp_h, rp_s, rd, rc, schur_solve)
        step = options.step_fraction
        alpha_p = min(1.0, step * min(
            _max_step(sc, d, True) for sc, d in zip(scalings, dx)))
        alpha_d = min(1.0, step * min(
            _max_step(sc, d, False) for sc, d in zip(scalings, dz)))
        if max(alpha_p, alpha_d) < 1e-10:
            break

        x = [_herm(x_b + alpha_p * dx_b) for x_b, dx_b in zip(x, dx)]
        z = [_herm(z_b + alpha_d * dz_b) for z_b, dz_b in zip(z, dz)]
        y = _herm(y + alpha_d * dy)
        t = t + alpha_d * dt

    gap = sum(np.vdot(z_b, x_b).real for x_b, z_b in zip(x, z))
    return x, y, t, status, iterations, core.primal_objective(x), core.dual_objective(y, t), gap


def _support(dec: matlin.EigenDecomposition):
    w = dec.eigenvalues
    scale = max(float(w[0]), 0.0)
    keep = w > max(SUPPORT_RTOL * max(scale, 1e-300), 0.0)
    q = dec.eigenvectors[:, keep]
    return np.diag(w[keep]).astype(np.complex128), q


def _trivial_solution(problem: BlockSdpProblem) -> BlockSdpSolution:
    n = problem.block_count
    zeros = [np.zeros((n, n), dtype=np.complex128) for _ in range(n)]
    return BlockSdpSolution(
        blocks=zeros,
        objective=1.0,
        slack_psd=problem.gram.copy(),
        error_used=0.0,
        status="optimal",
        iterations=0,
        dual_objective=1.0,
        gap=0.0,
    )


def solve(problem: BlockSdpProblem, options: SolverOptions | None = None) -> BlockSdpSolution:
    """Minimize the failure probability subject to the error budget.

    Returns the optimal blocks in the original N-dimensional coordinates
    together with the slack G - sum z_j, the error actually used, and the
    primal-dual certificate.  Raises :class:`NumericalBreakdownError` when a
    barrier factorization fails, which signals an ill-conditioned Gram matrix.
    """
    options = options or SolverOptions()
    n = problem.block_count
    gt, q = _support(problem.spectrum)
    r = gt.shape[0]
    if r == 0:  # zero Gram matrix: nothing to discriminate
        return _trivial_solution(problem)

    if problem.error_budget <= 0.0:
        # Identifiable states are those whose basis vector lies in range(G).
        qs_all = q.conj()  # row j is Q^H e_j
        norms = np.linalg.norm(qs_all, axis=1)
        members = np.where(1.0 - norms ** 2 <= RANGE_TOL ** 2 + 1e-12)[0]
        if members.size == 0:
            return _trivial_solution(problem)
        qs = qs_all[members] / norms[members, None]
        core = _UsdCore(gt, qs)
        x, y, t, status, iterations, pobj, dobj, gap = _run_ipm(core, options)
        blocks = []
        weights = np.zeros(n)
        weights[members] = [max(x[i][0, 0].real, 0.0) for i in range(members.size)]
        for j in range(n):
            b = np.zeros((n, n), dtype=np.complex128)
            b[j, j] = weights[j]
            blocks.append(b)
        error_used = 0.0
    else:
        qs = q.conj()
        core = _MarginCore(gt, qs, problem.error_budget)
        x, y, t, status, iterations, pobj, dobj, gap = _run_ipm(core, options)
        blocks = [_herm(q @ x[j] @ q.conj().T) for j in range(n)]
        error_used = float(
            sum(np.vdot(beta, x[j]).real for j, beta in enumerate(core.betas))
        )

    slack = problem.gram - sum(blocks)
    objective = min(max(pobj, 0.0), 1.0)
    log.info(
        "solve: n=%d r=%d budget=%.3g status=%s iters=%d objective=%.9f gap=%.2e",
        n, r, problem.error_budget, status, iterations, objective, gap,
    )
    return BlockSdpSolution(
        blocks=blocks,
        objective=objective,
        slack_psd=_herm(slack),
        error_used=error_used,
        status=status,
        iterations=iterations,
        dual_objective=float(dobj),
        gap=float(abs(gap)),
    )


# ---------------------------------------------------------------------------
# POVM extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PovmSet:
    """Measurement operators recovered from an optimal solution.

    ``operators[j]`` identifies state j; ``failure_operator`` is the
    inconclusive outcome.  All act on the Gram-factor embedding space of
    dimension ``support_dim``; ``rank_deficient`` flags that the Gram matrix
    was singular and the operators live on its support only.
    """

    operators: list
    failure_operator: np.ndarray
    support_dim: int
    rank_deficient: bool
    gram_factor: np.ndarray = field(repr=False)


def extract_povm(solution: BlockSdpSolution, cfg: InterferometerConfig) -> PovmSet:
    """Recover the POVM whose Gram-space image is the solution's blocks.

    With F the Gram factor (F^H F = G) the map is Pi_j = F^{+H} z_j F^{+};
    on the support of G this inverts z_j = F^H Pi_j F exactly.
    """
    if solution.status != "optimal":
        raise ValidationError(
            f"POVM extraction needs an optimal solution, got status {solution.status!r}"
        )
    f = matlin.factor_gram(_weighted_gram(cfg))
    r, n = f.shape
    b = np.linalg.solve(f @ f.conj().T, f)  # (F F^H)^{-1} F, pseudo-inverse transpose
    operators = [_herm(b @ z_j @ b.conj().T) for z_j in solution.blocks]
    failure = np.eye(r, dtype=np.complex128) - sum(operators)
    return PovmSet(
        operators=operators,
        failure_operator=_herm(failure),
        support_dim=r,
        rank_deficient=r < n,
        gram_factor=f,
    )


def povm_channel_statistics(povm: PovmSet, cfg: InterferometerConfig) -> ChannelStatistics:
    """Joint outcome statistics of the extracted POVM on the configuration."""
    f = povm.gram_factor
    n = cfg.n_paths
    joint = np.zeros((n, n + 1))
    for j, op in enumerate(povm.operators):
        joint[:, j] = np.real(np.einsum("ix,ij,jx->x", f.conj(), op, f))
    joint[:, n] = cfg.priors - joint[:, :n].sum(axis=1)
    return ChannelStatistics(joint)
