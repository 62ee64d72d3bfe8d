"""Time two checkouts' solvers against each other, solve by solve.

Usage::

    python tools/ab.py DIR_A DIR_B

Loads the ``wpduality`` package of each checkout (``DIR/src/wpduality``)
into one process, under the names ``wpduality_a`` and ``wpduality_b``, and
runs ``sdp.solve`` of both on each instance of four fixed mixes, one right
after the other, A first on every other solve:

* ``N=2-5``: ``random_config(n, n, s)`` for N = 2..5 and s < 10, at budgets
  0, 0.01, 0.1 and 0.3 (the solves of ``duality scan``);
* ``N=16 P_e=0`` and ``N=16 P_e=0.05``: ``random_config(16, 16, s)``, s < 3;
* ``N=48 rank 4``: ``random_config(48, 4, s)``, s < 4, at budgets 0.05 and 0.2.

Each checkout builds its own problems with its own ``random_config`` and
``build_problem``; only ``sdp.solve`` is timed.  Every mix runs ``ROUNDS``
times after one untimed warm-up round.  Per mix it prints the median over
all solves of the time ratio t_A / t_B (above 1 when B is faster), the
lowest and highest median of a single round, and the total solve time of
each side.  Timing the two sides solve by solve in one process keeps a slow
spell of the machine from falling on one side only: per-round alternation
of whole runs spreads far wider.  It then says whether every solve of B
ended as that of A, with the same status and iteration count and the same
``repr`` of the objective, dual objective, gap and error used, and exits 1
if any did not.

BLAS is pinned to one thread before numpy loads and the process to one CPU,
as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROUNDS = 5
MIXES = {
    "N=2-5": [(n, n, s, budget) for n in range(2, 6) for s in range(10)
              for budget in (0.0, 0.01, 0.1, 0.3)],
    "N=16 P_e=0": [(16, 16, s, 0.0) for s in range(3)],
    "N=16 P_e=0.05": [(16, 16, s, 0.05) for s in range(3)],
    "N=48 rank 4": [(48, 4, s, budget) for s in range(4) for budget in (0.05, 0.2)],
}
VALUES = ("objective", "dual_objective", "gap", "error_used")


def load(directory: str, name: str):
    """Import ``directory/src/wpduality`` as the package ``name``."""
    src = os.path.join(os.path.abspath(directory), "src", "wpduality")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def outcome(solution) -> tuple:
    return (solution.status, solution.iterations,
            *(repr(getattr(solution, value)) for value in VALUES))


def timed_solve(package, problem):
    start = time.perf_counter()
    solution = package.sdp.solve(problem)
    return time.perf_counter() - start, outcome(solution)


def run_mix(packages, instances):
    """Per round, the (t_A, t_B) of every instance, and the instances whose
    outcomes differ between A and B."""
    problems = [
        [pkg.sdp.build_problem(pkg.discrimination.random_config(n, dim, seed), budget)
         for pkg in packages]
        for n, dim, seed, budget in instances
    ]
    rounds, mismatches = [], set()
    for round_index in range(ROUNDS + 1):  # round 0 is the warm-up
        times = []
        for index, pair in enumerate(problems):
            order = (0, 1) if (index + round_index) % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                results[side] = timed_solve(packages[side], pair[side])
            if results[0][1] != results[1][1]:
                mismatches.add(instances[index])
            times.append((results[0][0], results[1][0]))
        if round_index:
            rounds.append(times)
    return rounds, mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/ab.py DIR_A DIR_B", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    packages = [load(argv[0], "wpduality_a"), load(argv[1], "wpduality_b")]
    all_match = True
    print(f"A = {os.path.abspath(argv[0])}\nB = {os.path.abspath(argv[1])}")
    for name, instances in MIXES.items():
        rounds, mismatches = run_mix(packages, instances)
        ratios = [t_a / t_b for times in rounds for t_a, t_b in times]
        round_medians = [statistics.median(t_a / t_b for t_a, t_b in times) for times in rounds]
        total_a = sum(t_a for times in rounds for t_a, _ in times)
        total_b = sum(t_b for times in rounds for _, t_b in times)
        print(f"{name:>14}: t_A/t_B median {statistics.median(ratios):.3f} over "
              f"{len(ratios)} solves, round medians [{min(round_medians):.3f}, "
              f"{max(round_medians):.3f}]; total A {total_a:.2f} s, B {total_b:.2f} s; "
              f"{len(instances) - len(mismatches)}/{len(instances)} instances match")
        for instance in sorted(mismatches):
            print(f"    differs: random_config{instance[:3]} at budget {instance[3]}")
        all_match = all_match and not mismatches
    print("every solve matches" if all_match else "some solves differ")
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
