"""Print the single-solve latency table.

Usage::

    python tools/latency.py

Solves ``random_config(n, n, s)`` for s < 3 at N = 2, 4, 8, 16, 24 and 32,
at budgets 0 and 0.05, and prints per N and budget the median wall time of
the three solves, the median wall time of reading the which-way measurement
back from each (``extract_povm`` plus ``povm_channel_statistics``), their
iteration counts, and, per iteration of one more, untimed solve of the seed-0
instance, the ``numpy.linalg`` calls (``eigvalsh``/``svd``/``cholesky``/
``solve``), the Schur work (the ``matlin.lu_solver`` factorizations and
the solves made with them) and the matrices the ``eigvalsh`` calls solve
(the sum of each call's stacked leading dimensions), and the minor page
faults per iteration of the seed-0 solve (``ru_minflt`` of ``getrusage``,
read around it), which runs in a fresh process after one warm-up solve of
the same instance: a larger solve earlier in one process raises glibc's trim
threshold, and later solves then fault in no fresh pages at all.  It then
runs each instance as one ``duality solve`` request (``cli.main``, on an
instance file) and prints the median wall time of the request minus its
``sdp.solve``, and the ``matlin.eig_hermitian`` calls of the seed-0
request.  First, before the table, it solves the symmetric family at
N = 256, overlap 0.5, P_e = 0 once and prints the solve's wall time, the
read-back's wall time and ``tracemalloc`` peak, and the process's peak RSS
after both, which is then theirs (the table's solves need less).  So a
change in the number of dispatched calls or of eigensolved blocks, in the
memory an iteration takes from the system anew, in the cost of the
which-way measurement or in the fixed cost of a request shows without a
benchmark run.
BLAS is pinned to one thread before numpy loads, and ``wpduality`` is
imported from the ``src/`` directory next to this script, so a copy of the
script in another checkout measures that checkout.  One untimed solve runs
first, so lazy set-up is not timed.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from wpduality import cli, matlin, sdp  # noqa: E402
from wpduality.discrimination import (  # noqa: E402
    SymmetricConfig, random_config, symmetric_interferometer)

SIZES = (2, 4, 8, 16, 24, 32)
BUDGETS = (0.0, 0.05)
SEEDS = range(3)
LARGE = (256, 0.5)  # symmetric family: N, overlap; solved at P_e = 0
COUNTED = ("eigvalsh", "svd", "cholesky", "solve")  # numpy.linalg functions


def calls_per_iteration(problem: sdp.BlockSdpProblem) -> str:
    """Calls of each ``COUNTED`` function, then ``matlin.lu_solver``
    factorizations and the solves with them, then the matrices ``eigvalsh``
    solved, per iteration of one solve: "a/b/c/d f/s m"."""
    counts = dict.fromkeys(COUNTED + ("factor", "lu solve", "eig matrices"), 0)
    originals = {name: getattr(np.linalg, name) for name in COUNTED}
    lu_solver = matlin.lu_solver

    def counting(name):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "eigvalsh":
                counts["eig matrices"] += int(np.prod(np.shape(args[0])[:-2]))
            return originals[name](*args, **kwargs)
        return wrapped

    def counting_lu_solver(a):
        counts["factor"] += 1
        solve = lu_solver(a)

        def counted(b):
            counts["lu solve"] += 1
            return solve(b)
        return counted

    for name in COUNTED:
        setattr(np.linalg, name, counting(name))
    matlin.lu_solver = counting_lu_solver
    try:
        iterations = sdp.solve(problem).iterations
    finally:
        for name, func in originals.items():
            setattr(np.linalg, name, func)
        matlin.lu_solver = lu_solver
    per = {name: f"{count / max(iterations, 1):g}" for name, count in counts.items()}
    return ("/".join(per[name] for name in COUNTED)
            + f" {per['factor']}/{per['lu solve']} {per['eig matrices']}")


def faults_per_iteration(n: int, budget: float) -> float:
    """Minor page faults per iteration of the seed-0 solve, after one warm-up
    solve of it.  Run it in a fresh process (see ``measure``)."""
    problem = sdp.build_problem(random_config(n, n, SEEDS[0]), budget)
    sdp.solve(problem)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    iterations = sdp.solve(problem).iterations
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / max(iterations, 1)


def measure(n: int, budget: float) -> tuple[float, float, list[int], str, float]:
    """Median wall times in ms of the solve and of the POVM read-back, and
    the iteration counts over the seeds, and the linalg calls, Schur work and
    minor page faults per iteration at seed 0.  The POVM median is over the
    optimal solves (NaN if none)."""
    times, povm_times, iterations = [], [], []
    for seed in SEEDS:
        cfg = random_config(n, n, seed)
        problem = sdp.build_problem(cfg, budget)
        start = time.perf_counter()
        solution = sdp.solve(problem)
        times.append(1e3 * (time.perf_counter() - start))
        iterations.append(solution.iterations)
        if solution.status != "optimal":
            print(f"N = {n}, seed {seed}, P_e = {budget:g}: status {solution.status!r}",
                  file=sys.stderr)
            continue
        start = time.perf_counter()
        sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
        povm_times.append(1e3 * (time.perf_counter() - start))
    calls = calls_per_iteration(sdp.build_problem(random_config(n, n, SEEDS[0]), budget))
    # A spawned child is a fresh interpreter, whose heap no earlier solve has shaped.
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as pool:
        faults = pool.submit(faults_per_iteration, n, budget).result()
    povm_ms = float(np.median(povm_times)) if povm_times else float("nan")
    return float(np.median(times)), povm_ms, iterations, calls, faults


def large_readback() -> str:
    """One P_e = 0 solve of the ``LARGE`` symmetric instance and its read-back:
    the solve's ms, the read-back's ms and ``tracemalloc`` peak in MB, and
    the process's peak RSS in MB after both."""
    cfg = symmetric_interferometer(SymmetricConfig(*LARGE))
    start = time.perf_counter()
    solution = sdp.solve(sdp.build_problem(cfg, 0.0))
    solve_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
    readback_ms = 1e3 * (time.perf_counter() - start)
    tracemalloc.start()
    sdp.povm_channel_statistics(sdp.extract_povm(solution, cfg), cfg)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"symmetric N = {LARGE[0]}, c = {LARGE[1]:g}, P_e = 0 ({solution.status}):"
            f" solve {solve_ms:.0f} ms, read-back {readback_ms:.1f} ms,"
            f" read-back tracemalloc peak {peak_mb:.1f} MB, peak RSS {rss_mb:.0f} MB")


def request_cost(n: int, budget: float, workdir: str) -> tuple[float, int]:
    """Median wall time in ms of one ``duality solve`` request minus the
    ``sdp.solve`` inside it, over the seeds, and the ``matlin.eig_hermitian``
    calls of one more, untimed request on the seed-0 instance."""
    solve, eig = sdp.solve, matlin.eig_hermitian
    solve_s, eig_calls = [], []

    def timed_solve(*args, **kwargs):
        start = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            solve_s.append(time.perf_counter() - start)

    def counting_eig(a):
        eig_calls.append(1)
        return eig(a)

    instances = []
    for seed in SEEDS:
        cfg = random_config(n, n, seed)
        instances.append(os.path.join(workdir, f"instance-{seed}.json"))
        with open(instances[-1], "w", encoding="utf-8") as fh:
            json.dump({"priors": cfg.priors.tolist(), "gram_re": cfg.gram.real.tolist(),
                       "gram_im": cfg.gram.imag.tolist()}, fh)

    def request(instance: str) -> float:
        """Run one request; return its wall time outside ``sdp.solve`` in ms."""
        solve_s.clear()
        start = time.perf_counter()
        cli.main(["solve", instance, "--error-budget", repr(budget),
                  "--out", os.path.join(workdir, "report.json")])
        return 1e3 * (time.perf_counter() - start - sum(solve_s))

    sdp.solve = timed_solve
    try:
        overheads = [request(instance) for instance in instances]
        matlin.eig_hermitian = counting_eig
        request(instances[0])
    finally:
        sdp.solve, matlin.eig_hermitian = solve, eig
    return float(np.median(overheads)), len(eig_calls)


def main() -> int:
    sdp.solve(sdp.build_problem(random_config(4, 4, 0), 0.05))
    print(large_readback(), flush=True)
    print("povm ms: extract_povm + povm_channel_statistics on the solve's result")
    print("calls/iter: numpy.linalg " + "/".join(COUNTED)
          + ", then matlin.lu_solver factorizations/solves, then the matrices eigvalsh"
          " solved, per iteration, seed 0")
    print("faults/iter: minor page faults per iteration of the seed-0 solve, in a fresh process")
    print("request ms: median of one `duality solve` request minus its sdp.solve;"
          " eig: its matlin.eig_hermitian calls, seed 0")
    header = "  N" + "".join(
        f" | {f'P_e = {b:g}':>10}: median ms, povm ms, iterations, calls/iter, faults/iter,"
        " request ms, eig"
        for b in BUDGETS)
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as workdir:
        request_cost(4, 0.05, workdir)  # the first request builds the CLI parser
        for n in SIZES:
            cells = []
            for budget in BUDGETS:
                ms, povm_ms, iterations, calls, faults = measure(n, budget)
                request_ms, eig_calls = request_cost(n, budget, workdir)
                cells.append(f" | {ms:22.1f}, {povm_ms:7.1f}, {'/'.join(map(str, iterations)):>10},"
                             f" {calls:>22}, {faults:11.0f}, {request_ms:10.2f}, {eig_calls:3d}")
            print(f"{n:3d}" + "".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
