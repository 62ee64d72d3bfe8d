"""Print the single-solve latency table.

Usage::

    python tools/latency.py

Solves ``random_config(n, n, s)`` for s < 3 at N = 2, 4, 8, 16, 24 and 32,
at budgets 0 and 0.05, and prints per N and budget the median wall time of
the three solves and their iteration counts.  BLAS is pinned to one thread
before numpy loads, and ``wpduality`` is imported from the ``src/`` directory
next to this script, so a copy of the script in another checkout measures
that checkout.  One untimed solve runs first, so lazy set-up is not timed.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from wpduality import sdp  # noqa: E402
from wpduality.discrimination import random_config  # noqa: E402

SIZES = (2, 4, 8, 16, 24, 32)
BUDGETS = (0.0, 0.05)
SEEDS = range(3)


def measure(n: int, budget: float) -> tuple[float, list[int]]:
    """Median wall time in ms and the iteration counts over the seeds."""
    times, iterations = [], []
    for seed in SEEDS:
        problem = sdp.build_problem(random_config(n, n, seed), budget)
        start = time.perf_counter()
        solution = sdp.solve(problem)
        times.append(1e3 * (time.perf_counter() - start))
        iterations.append(solution.iterations)
        if solution.status != "optimal":
            print(f"N = {n}, seed {seed}, P_e = {budget:g}: status {solution.status!r}",
                  file=sys.stderr)
    return float(np.median(times)), iterations


def main() -> int:
    sdp.solve(sdp.build_problem(random_config(4, 4, 0), 0.05))
    header = "  N" + "".join(f" | {f'P_e = {b:g}':>10}: median ms, iterations" for b in BUDGETS)
    print(header)
    print("-" * len(header))
    for n in SIZES:
        cells = []
        for budget in BUDGETS:
            ms, iterations = measure(n, budget)
            cells.append(f" | {ms:22.1f}, {'/'.join(map(str, iterations)):>10}")
        print(f"{n:3d}" + "".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
