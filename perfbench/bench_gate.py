"""Correctness gate applied to every SDP solve the benchmark triggers.

The checks use ``numpy.linalg.eigvalsh`` so that they do not depend on the
package's own eigensolver.  A solve passes when

* it returned status ``"optimal"`` and raised no ``NumericalBreakdownError``;
* the slack G - sum z_j and every block z_j are PSD to within -1e-7;
* the error it used stays within its budget plus 1e-7;
* the duality checks run on its outcome report no violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-7
BUDGET_TOL = 1e-7
HOLEVO_TOL = 1e-6


@dataclass
class SolveRecord:
    """One ``sdp.solve`` call and the duality reports run on its outcome."""

    problem: object
    result: object  # BlockSdpSolution, or the exception the solve raised
    reports: list | None = None


def pair_events(events) -> list[SolveRecord]:
    """Attach each ``all_checks`` result to the solve that preceded it."""
    records: list[SolveRecord] = []
    for kind, args, result in events:
        if kind == "solve":
            records.append(SolveRecord(args[0], result))
        elif records and records[-1].reports is None:
            records[-1].reports = list(result)
        else:
            raise RuntimeError("duality checks ran without a preceding solve")
    return records


def _min_eigenvalue(matrices) -> float:
    stack = np.asarray(matrices, dtype=np.complex128)
    return float(np.linalg.eigvalsh(stack).min())


def solve_failures(record: SolveRecord) -> list[str]:
    """Reasons the solve fails the gate; empty when it passes."""
    sol = record.result
    if isinstance(sol, BaseException):
        return [f"{type(sol).__name__}: {sol}"]
    reasons = []
    if sol.status != "optimal":
        reasons.append(f"status {sol.status!r}")
    slack_min = _min_eigenvalue(sol.slack_psd)
    if slack_min < -PSD_TOL:
        reasons.append(f"slack eigenvalue {slack_min:.3e} < -{PSD_TOL:g}")
    block_min = _min_eigenvalue(sol.blocks)
    if block_min < -PSD_TOL:
        reasons.append(f"block eigenvalue {block_min:.3e} < -{PSD_TOL:g}")
    budget = record.problem.error_budget
    if sol.error_used > budget + BUDGET_TOL:
        reasons.append(f"error used {sol.error_used:.9g} exceeds budget {budget:g}")
    if sol.status == "optimal":
        if record.reports is None:
            reasons.append("no duality checks ran on the outcome")
        else:
            for report in record.reports:
                if not report.satisfied:
                    reasons.append(
                        f"duality violation {report.relation} slack {report.slack:.3e}")
    return reasons


def holevo_failure(information: float, holevo: float) -> list[str]:
    """Mutual information may not exceed the Holevo quantity S(rho_d)."""
    if information > holevo + HOLEVO_TOL:
        return [f"mutual information {information:.9g} exceeds S(rho_d) {holevo:.9g}"]
    return []


@dataclass
class Failure:
    """A replayable (workload, seed, index, N, B) tuple and what went wrong."""

    workload: str
    seed: int
    index: int
    n: int | None
    budget: float | None
    reasons: list = field(default_factory=list)
    config: int | None = None  # config index inside a scan request

    def as_dict(self) -> dict:
        out = {"workload": self.workload, "seed": self.seed, "index": self.index,
               "n": self.n, "budget": self.budget}
        if self.config is not None:
            out["config"] = self.config
        out["reasons"] = self.reasons
        return out
