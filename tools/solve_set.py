"""The solver gate: check two checkouts' solves against each other, bit by
bit, and time them solve by solve.

Usage::

    python tools/solve_set.py DIR_A DIR_B

A is the baseline, normally a ``git archive`` of the parent commit, and B the
change.  The ``wpduality`` package of each checkout (``DIR/src/wpduality``) is
loaded into one process, under the names ``wpduality_a`` and ``wpduality_b``.
Each side builds its own problems with its own ``random_config`` and
``build_problem``.  The solve set is

* ``random_config(n, n, s)`` for N = 2..5 and s < 60, at budgets 0, 0.01,
  0.05 and 0.3, each at tolerance 1e-7, 1e-12 and 1e-13;
* ``random_config(16, 16, s)`` for s < 3 at the same budgets, tolerance 1e-7;
* ``random_config(48, 4, s)`` (Gram rank 4) for s < 4 at budgets 0, 0.05 and
  0.2, tolerance 1e-7.

Every instance is solved by both sides, one right after the other, A first on
every other instance, after one untimed warm-up solve a side.  Each solve
makes one record: the instance key, the status, the iteration count, the
``repr`` of the objective, dual objective, gap and error used, and the
minimum eigenvalue of the slack G - sum z_j.  A solve that raises is recorded
with status ``"raised <ExceptionName>"``.

``compare`` prints per tolerance the status transitions from A to B and how
many of B's solves reproduce the ``repr`` of every value of A's.  The run
exits 1 if any tolerance-1e-7 solve changes status or iteration count, moves
a value by more than 1e-9, or ends ``"optimal"`` in B with a slack eigenvalue
below -1e-7, if B's ``"optimal"`` count at tolerance 1e-12 or 1e-13 falls
more than 20 below A's, or if any solve of B raised.  The instance list, the
record fields and these rules have not changed since the set first gated a
solver change, so the counts that earlier runs quote compare with new ones.

Only ``sdp.solve`` is timed.  Per mix of the shape of a benchmark workload
(``perfbench/WORKLOADS.md``) it prints the median and quartiles of
t_A / t_B, above 1 when B is faster, and the count of timed solves:

* N = 2..5, P_e = 0 and P_e > 0 apart: the solves of scan-small.  The two
  problems have cores of their own, so a change to one core shows on its
  row, and the other row is the control;
* N = 16, P_e = 0: solve-large-usd;
* N = 16, P_e > 0: solve-large-margin;
* N = 48, rank 4: lowrank-wide.

The N = 16 and N = 48 instances are solved ``TIMING_PASSES`` times, so that
these mixes time at least 15, 15 and 40 solves; only the first pass makes
their records.  Timing the two sides solve by solve in one process keeps a
slow spell of the machine from falling on one side only.

Then, with the same pairing and outside the gate (it makes no records), the
single-solve latency table: ``random_config(n, n, s)`` for N in ``SIZES``,
s < 3, at budgets 0 and 0.05, tolerance 1e-7.  Per N and budget it prints
each side's median ms and iteration counts (a solve that does not end
``"optimal"`` shows its status instead), the median and quartiles of
t_A / t_B (``timing_summary``, the mixes' rule), and each side's calls per
iteration of one more, untimed solve of the seed-0 instance: the
``numpy.linalg`` ``eigvalsh``/``svd``/``cholesky``/``solve`` calls, the
``zgetrf``/``zgetrs`` calls of the side's own LAPACK binding (the routines
its ``matlin._lapack()`` returns; 0/0 where numpy factors the Schur
matrix), the matrices the ``eigvalsh`` calls solve (the sum of each call's
stacked leading dimensions), and the matrices the side's own
``matlin.cholesky_succeeds`` factors, the step lengths' certificate.  Last,
per side, one line for the symmetric family at N = 256, overlap 0.5,
P_e = 0 (``LARGE``): the solve's ms, the read-back's ms (``extract_povm``
plus ``povm_channel_statistics``) and the ``tracemalloc`` peak of one more,
untimed solve plus read-back.
With A = B the table shows the noise floor of the ratios.  Each latency row
times 3 solves a side, and the N = 256 line one, so they resolve only large
moves: on two solvers that make the same bits, a row can read t_A / t_B
0.72 or 1.5.  For a move of a few percent read the mixes' rows, which time
15 to 2160 solves.

BLAS is pinned to one thread before numpy loads, and the process to one CPU,
as ``perfbench/run.py`` does: on more threads OpenBLAS picks its kernels by
the host's thread count, and the last bits of the N = 16, P_e > 0 solves
move.
"""

from __future__ import annotations

import collections
import importlib.util
import math
import os
import statistics
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

USAGE = "usage: python tools/solve_set.py DIR_A DIR_B"
CHECKED_TOL = 1e-7  # the tolerance whose solves must not change at all
VALUE_TOL = 1e-9
SLACK_FLOOR = -1e-7
# Tight-tolerance solves may trade "optimal" for "breakdown" either way, as
# rounding moves; a net loss of more than this many (of 960) fails the run.
OPTIMAL_DROP_LIMIT = 20
VALUES = ("objective", "dual_objective", "gap", "error_used", "min_slack")
# Solves of each N = 16 and N = 48 instance: at P_e = 0 the set has 3, the
# fewest of any mix, and a median over 3 ratios spreads several percent.
TIMING_PASSES = 5
SIZES = (2, 4, 8, 16, 24, 32)  # the latency table's N, at BUDGETS and SEEDS
BUDGETS = (0.0, 0.05)
SEEDS = range(3)
LARGE = (256, 0.5)  # symmetric family: N, overlap; solved at P_e = 0
COUNTED = ("eigvalsh", "svd", "cholesky", "solve")  # numpy.linalg functions


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


def mix(instance) -> str:
    """The timed mix of an instance, named by its benchmark workload."""
    n, _, _, budget, _ = instance
    if n <= 5:
        return f"N=2-5 P_e{'=0' if budget == 0 else '>0'} (scan-small)"
    if n == 16 and budget == 0:
        return "N=16 P_e=0 (solve-large-usd)"
    if n == 16:
        return "N=16 P_e>0 (solve-large-margin)"
    return "N=48 rank 4 (lowrank-wide)"


def load(directory: str, name: str):
    """Import ``directory/src/wpduality`` as the package ``name``."""
    src = os.path.join(os.path.abspath(directory), "src", "wpduality")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def run_one(package, n, dim, seed, budget, tol) -> tuple[dict, float]:
    """Solve one instance with ``package``: its record and the solve's seconds."""
    sdp = package.sdp
    record = {"n": n, "dim": dim, "seed": seed, "budget": budget, "tol": tol}
    problem = sdp.build_problem(package.discrimination.random_config(n, dim, seed), budget)
    start = time.perf_counter()
    try:
        sol = sdp.solve(problem, sdp.SolverOptions(tolerance=tol))
    except Exception as exc:  # recorded: a raising solve is a finding, not the end of the run
        record.update(status=f"raised {type(exc).__name__}", iterations=None,
                      message=str(exc), **{k: None for k in VALUES})
        return record, time.perf_counter() - start
    seconds = time.perf_counter() - start
    record.update(
        status=sol.status,
        iterations=sol.iterations,
        **{k: repr(float(getattr(sol, k))) for k in VALUES[:-1]},
        min_slack=repr(float(np.linalg.eigvalsh(sol.slack_psd)[0])),
    )
    return record, seconds


def paired(packages, insts):
    """Solve each instance with both sides, one right after the other, A
    first on every other instance; yield ``(inst, (rec_a, t_a), (rec_b, t_b))``."""
    for index, inst in enumerate(insts):
        results = [None, None]
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            results[side] = run_one(packages[side], *inst)
        yield inst, *results


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


def timing_summary(timings) -> dict:
    """Per mix, in order of first appearance, from ``(mix, t_a, t_b)``
    triples: the lower quartile, median and upper quartile of t_A / t_B, the
    solve count, and the median of t_A and of t_B."""
    pairs = collections.defaultdict(list)
    for name, t_a, t_b in timings:
        pairs[name].append((t_a, t_b))
    return {name: (*statistics.quantiles([a / b for a, b in times], n=4, method="inclusive"),
                   len(times), statistics.median(a for a, _ in times),
                   statistics.median(b for _, b in times))
            for name, times in pairs.items()}


def calls_per_iteration(package, n: int, budget: float) -> str:
    """Calls of each ``COUNTED`` function, then the ``zgetrf`` and ``zgetrs``
    calls of ``package``'s own LAPACK binding (the routines its
    ``matlin._lapack()`` returns), then the matrices ``eigvalsh`` solved,
    then the matrices ``package``'s ``matlin.cholesky_succeeds`` factored,
    per iteration of one solve of the seed-0 instance with ``package``:
    "a/b/c/d f/s m c"."""
    sdp, matlin = package.sdp, package.matlin
    problem = sdp.build_problem(package.discrimination.random_config(n, n, SEEDS[0]), budget)
    counts = collections.Counter()
    routines = matlin._lapack()

    def counting(name, func):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name in ("eigvalsh", "cholesky_succeeds"):  # count the matrices of the stack
                counts[name, "matrices"] += int(np.prod(np.shape(args[0])[:-2]))
            return func(*args, **kwargs)
        return wrapped

    binding = None if routines is None else tuple(map(counting, ("zgetrf", "zgetrs"), routines))
    hooks = [(np.linalg, name, getattr(np.linalg, name)) for name in COUNTED]
    hooks += [(matlin, "cholesky_succeeds", matlin.cholesky_succeeds),
              (matlin, "_lapack", matlin._lapack)]
    for owner, name, func in hooks[:-1]:
        setattr(owner, name, counting(name, func))
    matlin._lapack = lambda: binding
    try:
        iterations = sdp.solve(problem, sdp.SolverOptions(tolerance=CHECKED_TOL)).iterations
    finally:
        for owner, name, func in hooks:
            setattr(owner, name, func)

    def per(key):
        return f"{counts[key] / max(iterations, 1):g}"
    return ("/".join(map(per, COUNTED)) + f" {per('zgetrf')}/{per('zgetrs')}"
            f" {per(('eigvalsh', 'matrices'))} {per(('cholesky_succeeds', 'matrices'))}")


def latency_rows(packages) -> list[str]:
    """The latency table, one line per N and budget (see the module docstring)."""
    insts = [(n, n, seed, budget, CHECKED_TOL)
             for n in SIZES for budget in BUDGETS for seed in SEEDS]
    timings, iterations = [], collections.defaultdict(lambda: ([], []))
    for (n, _, _, budget, _), *results in paired(packages, insts):
        timings.append(((n, budget), results[0][1], results[1][1]))
        for side, (rec, _) in enumerate(results):
            iterations[n, budget][side].append(
                str(rec["iterations"]) if rec["status"] == "optimal" else rec["status"])
    rows = []
    for (n, budget), (q1, median, q3, _, t_a, t_b) in timing_summary(timings).items():
        its_a, its_b = ("/".join(its) for its in iterations[n, budget])
        calls_a, calls_b = (calls_per_iteration(package, n, budget) for package in packages)
        rows.append(f"  N = {n:2d}, P_e = {budget:<4g}: {1e3 * t_a:8.1f} | {1e3 * t_b:8.1f} ms,"
                    f" t_A/t_B {median:.3f} [{q1:.3f}, {q3:.3f}],"
                    f" iterations {its_a} | {its_b}, calls/iter {calls_a} | {calls_b}")
    return rows


def large_line(package) -> str:
    """One P_e = 0 solve of the ``LARGE`` symmetric instance with ``package``
    and its read-back: their ms, then the ``tracemalloc`` peak in MB of one
    more solve plus read-back."""
    disc, sdp = package.discrimination, package.sdp
    cfg = disc.symmetric_interferometer(disc.SymmetricConfig(*LARGE))
    problem = sdp.build_problem(cfg, 0.0)
    start = time.perf_counter()
    solution = sdp.solve(problem)
    solve_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
    readback_ms = 1e3 * (time.perf_counter() - start)
    tracemalloc.start()
    try:
        sdp.povm_channel_statistics(sdp.extract_povm(sdp.solve(problem), cfg), cfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return (f"{solution.status}: solve {solve_ms:.0f} ms, read-back {readback_ms:.1f} ms,"
            f" solve plus read-back tracemalloc peak {peak_mb:.1f} MB")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    packages = (load(argv[0], "wpduality_a"), load(argv[1], "wpduality_b"))
    print(f"A = {os.path.abspath(argv[0])}\nB = {os.path.abspath(argv[1])}")
    start = time.perf_counter()
    solve_set = list(instances())
    for package in packages:  # warm-up, untimed
        run_one(package, *solve_set[0])
    records_a, records_b, timings = [], [], []
    repeats = [inst for inst in solve_set if inst[0] > 5] * (TIMING_PASSES - 1)
    for index, (inst, (rec_a, t_a), (rec_b, t_b)) in enumerate(
            paired(packages, solve_set + repeats)):
        timings.append((mix(inst), t_a, t_b))
        if index < len(solve_set):
            records_a.append(rec_a)
            records_b.append(rec_b)
    failures = [f"{_key(r)}: {r['status']}" for r in records_b if r["status"].startswith("raised")]
    failures += [f"{_key(r)}: optimal with slack {r['min_slack']}" for r in records_b
                 if r["tol"] == CHECKED_TOL and r["status"] == "optimal"
                 and float(r["min_slack"]) < SLACK_FLOOR]
    failures += compare(records_b, records_a)
    same = sum(a == b for a, b in zip(records_a, records_b))
    print(f"{same}/{len(records_b)} records of B equal A's in every field")
    print("t_A/t_B, above 1 when B is faster:")
    for name, (q1, median, q3, count, _, _) in timing_summary(timings).items():
        print(f"  {name:>32}: median {median:.3f}, quartiles [{q1:.3f}, {q3:.3f}] "
              f"over {count} solves")
    print(f"latency, random_config(N, N, s), s < {len(SEEDS)}, A | B: median ms,"
          " t_A/t_B median [quartiles], iterations per seed, calls/iter at seed 0;"
          "\ncalls/iter: numpy.linalg " + "/".join(COUNTED) + ", then zgetrf/zgetrs of the"
          " side's own LAPACK binding, then the matrices eigvalsh solved, then the matrices"
          " matlin.cholesky_succeeds factored")
    for row in latency_rows(packages):
        print(row, flush=True)
    for side, package in zip("AB", packages):
        print(f"{side}: symmetric N = {LARGE[0]}, c = {LARGE[1]:g}, P_e = 0 "
              + large_line(package), flush=True)
    for line in failures:
        print("FAIL", line)
    print(f"{len(records_b)} solves a side in {time.perf_counter() - start:.0f} s, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
