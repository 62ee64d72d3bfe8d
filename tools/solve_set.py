"""Run the fixed solve set and compare it with a baseline.

Usage::

    python tools/solve_set.py OUT.jsonl [BASELINE.jsonl]

Imports ``wpduality`` from the ``src/`` directory next to this script, so a
copy of the script in another checkout measures that checkout.  The set is

* ``random_config(n, n, s)`` for N = 2..5 and s < 60, at budgets 0, 0.01,
  0.05 and 0.3, each at tolerance 1e-7, 1e-12 and 1e-13;
* ``random_config(16, 16, s)`` for s < 3 at the same budgets, tolerance 1e-7;
* ``random_config(48, 4, s)`` (Gram rank 4) for s < 4 at budgets 0, 0.05 and
  0.2, tolerance 1e-7.

Each solve writes one JSON line: the instance key, the status, the iteration
count, the ``repr`` of the objective, dual objective, gap and error used, and
the minimum eigenvalue of the slack G - sum z_j.  A solve that raises is
recorded with status ``"raised <ExceptionName>"``.  BLAS is pinned to one
thread before numpy loads: on more threads OpenBLAS picks its kernels by the
host's thread count, and the last bits of the N = 16, P_e > 0 solves move.

Given a baseline file written by the same script, prints per tolerance the
status transitions and how many solves reproduce the ``repr`` of every value
exactly.  It exits 1 if any tolerance-1e-7 solve changes status or iteration
count, moves a value by more than 1e-9, or ends ``"optimal"`` with a slack
eigenvalue below -1e-7, if the ``"optimal"`` count at tolerance 1e-12 or 1e-13
falls more than 20 below the baseline's, or if any solve of this run raised.
"""

from __future__ import annotations

import collections
import json
import math
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from wpduality import sdp  # noqa: E402
from wpduality.discrimination import random_config  # noqa: E402

CHECKED_TOL = 1e-7  # the tolerance whose solves must not change at all
VALUE_TOL = 1e-9
SLACK_FLOOR = -1e-7
# Tight-tolerance solves may trade "optimal" for "breakdown" either way, as
# rounding moves; a net loss of more than this many (of 960) fails the run.
OPTIMAL_DROP_LIMIT = 20
VALUES = ("objective", "dual_objective", "gap", "error_used", "min_slack")


def instances():
    """Yield ``(n_paths, detector_dim, seed, budget, tol)`` for the whole set."""
    for tol in (1e-7, 1e-12, 1e-13):
        for n in range(2, 6):
            for seed in range(60):
                for budget in (0.0, 0.01, 0.05, 0.3):
                    yield n, n, seed, budget, tol
    for seed in range(3):
        for budget in (0.0, 0.01, 0.05, 0.3):
            yield 16, 16, seed, budget, 1e-7
    for seed in range(4):
        for budget in (0.0, 0.05, 0.2):
            yield 48, 4, seed, budget, 1e-7


def run_one(n, dim, seed, budget, tol) -> dict:
    record = {"n": n, "dim": dim, "seed": seed, "budget": budget, "tol": tol}
    problem = sdp.build_problem(random_config(n, dim, seed), budget)
    try:
        sol = sdp.solve(problem, sdp.SolverOptions(tolerance=tol))
    except Exception as exc:  # recorded: a raising solve is a finding, not the end of the run
        record.update(status=f"raised {type(exc).__name__}", iterations=None,
                      message=str(exc), **{k: None for k in VALUES})
        return record
    record.update(
        status=sol.status,
        iterations=sol.iterations,
        **{k: repr(float(getattr(sol, k))) for k in VALUES[:-1]},
        min_slack=repr(float(np.linalg.eigvalsh(sol.slack_psd)[0])),
    )
    return record


def _key(record) -> tuple:
    return record["n"], record["dim"], record["seed"], record["budget"], record["tol"]


def _moved(old, new) -> bool:
    if old is None or new is None:
        return old is not new
    a, b = float(old), float(new)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    return abs(a - b) > VALUE_TOL


def compare(records: list[dict], baseline: list[dict]) -> list[str]:
    """Print per-tolerance status transitions; return the failures."""
    base = {_key(r): r for r in baseline}
    failures = []
    by_tol = collections.defaultdict(list)
    for rec in records:
        by_tol[rec["tol"]].append(rec)
    for tol in sorted(by_tol, reverse=True):
        group = by_tol[tol]
        old_optimal = sum(base[_key(r)]["status"] == "optimal" for r in group if _key(r) in base)
        new_optimal = sum(r["status"] == "optimal" for r in group)
        transitions = collections.Counter()
        identical = 0
        for rec in group:
            old = base.get(_key(rec))
            if old is None:
                failures.append(f"{_key(rec)}: not in the baseline")
                continue
            identical += all(old[k] == rec[k] for k in VALUES)
            if old["status"] != rec["status"]:
                transitions[(old["status"], rec["status"])] += 1
            if tol != CHECKED_TOL:
                continue
            if old["status"] != rec["status"] or old["iterations"] != rec["iterations"]:
                failures.append(f"{_key(rec)}: {old['status']}/{old['iterations']} -> "
                                f"{rec['status']}/{rec['iterations']}")
            moved = [k for k in VALUES if _moved(old[k], rec[k])]
            if moved:
                failures.append(f"{_key(rec)}: moved by more than {VALUE_TOL:g}: {moved}")
        print(f"tol {tol:g}: {len(group)} solves, optimal {old_optimal} -> {new_optimal}, "
              f"{identical} with every value's repr as in the baseline")
        if tol != CHECKED_TOL and old_optimal - new_optimal > OPTIMAL_DROP_LIMIT:
            failures.append(f"tol {tol:g}: optimal count fell by more than "
                            f"{OPTIMAL_DROP_LIMIT}: {old_optimal} -> {new_optimal}")
        for (old_status, new_status), count in sorted(transitions.items()):
            print(f"  {old_status} -> {new_status}: {count}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    with open(argv[0], "w", encoding="utf-8") as fh:
        for inst in instances():
            rec = run_one(*inst)
            records.append(rec)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    failures = [f"{_key(r)}: {r['status']}" for r in records if r["status"].startswith("raised")]
    failures += [f"{_key(r)}: optimal with slack {r['min_slack']}" for r in records
                 if r["tol"] == CHECKED_TOL and r["status"] == "optimal"
                 and float(r["min_slack"]) < SLACK_FLOOR]
    if len(argv) == 2:
        with open(argv[1], encoding="utf-8") as fh:
            failures += compare(records, [json.loads(line) for line in fh if line.strip()])
    else:
        print(dict(collections.Counter((r["tol"], r["status"]) for r in records)))
    for line in failures:
        print("FAIL", line)
    print(f"{len(records)} solves, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
