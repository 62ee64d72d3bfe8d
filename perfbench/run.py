"""wpduality benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The process is pinned
to one CPU, and BLAS to one thread before numpy loads.  ``setup_s`` is the median of several cold
set-ups, each in a fresh Python process that imports the package, makes the
workload's inputs and runs one warm-up solve.  The run then sets the
workload up once more in its own process and sends requests one after
another, each after the previous one completed, for ``--seconds``.  Every
request has inputs of its own, so no state kept across requests can make a
later one faster.  Each request is timed between two runs of a reference
kernel and reported at the kernel's nominal speed (see ``Reference``); each
cold set-up is scaled likewise (see ``cold_setups``).  Every solve goes
through the correctness gate.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` each request runs untraced and then traced, and the last
line reports the per-layer metrics of the traced runs.  Gate failures are
printed to stderr as replayable tuples and make the exit code 1.  The
environment record, the result and (when traced) the spans are also stored
under ``.bench_results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# The process, its reference runs and its set-up children share one CPU.
# The CPUs of the VM described in ``Reference`` run at different speeds at
# the same time, so a reference timed on one says little about work done on
# the other: unpinned, ten set-ups of one scan-small run spread by 15 %
# (interquartile range over median), pinned by 2 to 4 %.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import bench_trace as bt  # noqa: E402
from bench_gate import pair_events  # noqa: E402
from bench_workloads import WORKLOADS, make_workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 7  # cold set-ups timed per run; their median is setup_s
STARTUP_NOMINAL_S = 0.15  # about the fastest ``startup_s`` on the VM of ``Reference``


class Reference:
    """Fixed CPU work, independent of the package, timed around each
    measurement to rescale it to one machine speed.

    The 2-core VM this benchmark was written on runs the same code up to
    1.8x slower for seconds to minutes at a time, with process time equal to
    wall time (other tenants; the VM exposes no hardware counters).  A time
    ``t`` measured between two runs of this kernel that took ``r1`` and
    ``r2`` seconds is reported as ``t * NOMINAL_S / ((r1 + r2) / 2)``: the
    time at the speed where the kernel takes ``NOMINAL_S``, about its 5th
    percentile on that VM.

    The kernel mixes what the workloads run: LAPACK calls on 5x5 matrices,
    numpy operations on 4x4 arrays, Python object churn and a few 96x96
    complex solves.  Over minutes in which a fixed small ``duality scan``
    slowed by up to 2x, the log of its time (and that of a Jacobi
    eigensolve on 48x48, and of an N = 12 solve) followed the log of this
    kernel's time with slopes 1.04, 1.14 and 0.83.  A kernel whose time went
    mostly to 96x96 solves had slopes 1.17 to 1.25, 1.27 to 1.43 and 0.85
    to 0.98: it under-corrected the two Python-bound workloads.
    """

    NOMINAL_S = 0.008

    def __init__(self):
        rng = np.random.default_rng(20200428)
        self.small = []
        for _ in range(4):
            x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            self.small.append(x @ x.conj().T + np.eye(5))
        self.big = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(25):
            for m in self.small:
                np.linalg.eigvalsh(m)
                np.linalg.cholesky(m)
        a = self.small[0][:4, :4]
        for _ in range(100):
            c = a @ a + a.conj().T
            np.kron(a, c)
            np.einsum("ij,ji->", a, c)
        for _ in range(3):
            table = {k: (k, str(k)) for k in range(1500)}
            arrays = [np.zeros(3) + 1.0 for _ in range(300)]
        for _ in range(5):
            np.linalg.solve(self.big, self.big[:, 0])
        del table, arrays
        return time.perf_counter() - t0

    def timed(self, fn):
        """``fn()``'s result, wall seconds, and wall seconds at nominal speed."""
        before = self.kernel_s()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.kernel_s()
        return result, wall, wall * self.NOMINAL_S * 2.0 / (before + after)


def import_package():
    """Import ``wpduality`` from this checkout's ``src/``; None if absent."""
    src = ROOT / "src"
    if not (src / "wpduality" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("wpduality")
    if Path(pkg.__file__).resolve().parent != (src / "wpduality").resolve():
        return None
    return pkg


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def blas_info() -> tuple[str, int | None]:
    """BLAS vendor string and the thread count the library reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    vendor, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": threads,
        "cpu_pinned": CPU,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Request loop
# ---------------------------------------------------------------------------


class Sample(NamedTuple):
    wall: float  # seconds; gate time is not part of it
    scaled: float  # wall seconds at the reference speed (untraced runs)
    solves: int
    passed: int
    # Per solve (error budget, iterations or None); per duality report
    # (slack, satisfied).  Solutions themselves are not kept, so memory does
    # not grow with the number of requests.
    iterations: tuple
    reports: tuple


class Run:
    """Request loops, with gate bookkeeping, of one benchmark run."""

    def __init__(self, workload, recorder, reference=None):
        self.workload = workload
        self.recorder = recorder
        self.reference = reference
        self.attempted = 0
        self.failures: list = []

    def gate_warmup(self):
        records = pair_events(self.recorder.take_events())
        self.attempted += len(records)
        self.failures += self.workload.gate(-1, records)[1]

    def request(self, index: int) -> Sample:
        rec = self.recorder
        rec.instance = index
        self.workload.prepare(index)
        if self.reference is None:
            # Timed outside the request span: an independent clock that the
            # traced run checks the span arithmetic against.
            t0 = time.perf_counter()
            with rec.span(bt.REQUEST, bt.BENCH):
                raw = self.workload.run(index)
            wall = scaled = time.perf_counter() - t0
        else:
            raw, wall, scaled = self.reference.timed(lambda: self.workload.run(index))
        records = pair_events(rec.take_events())
        passed, failures = self.workload.check(index, raw, records)
        self.attempted += len(records)
        self.failures += failures
        return Sample(
            wall, scaled, len(records), passed,
            tuple((r.problem.error_budget,
                   None if isinstance(r.result, BaseException) else r.result.iterations)
                  for r in records),
            tuple((rep.slack, rep.satisfied) for r in records for rep in (r.reports or ())))

    def for_seconds(self, seconds: float) -> list[Sample]:
        """Requests 0, 1, ... while the next one, at the mean pace so far,
        would end within ``seconds``; at least one.

        A request the workload asks to replay runs a second time, untimed,
        right after its timed run, for checks that compare the two outputs.
        """
        samples = []
        start = time.perf_counter()
        while True:
            index = len(samples)
            samples.append(self.request(index))
            if self.workload.replays(index):
                self.request(index)
            elapsed = time.perf_counter() - start
            if elapsed * (index + 2) / (index + 1) > seconds:
                return samples

    def traced_pairs(self, seconds: float, instruments):
        """Each request untraced, then again traced, within ``seconds``.

        Back-to-back pairs see the same machine speed, so their ratio is the
        tracing overhead.
        """
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            index = len(untraced)
            untraced.append(self.request(index))
            instruments.set(trace=True)
            traced.append(self.request(index))
            instruments.set(trace=False)
            elapsed = time.perf_counter() - start
            if elapsed * (index + 2) / (index + 1) > seconds:
                return untraced, traced


def startup_s() -> float:
    """Wall seconds of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def cold_setups(args, reference: Reference, workdir: Path) -> tuple[list, list]:
    """Time ``SETUP_PROCESSES`` set-ups, each in a fresh process.

    Each child starts Python, imports the package, makes the workload's
    inputs and runs its gated warm-up solve, so the interpreter start, the
    imports and every first-use cost are inside the timing.

    A child's time has two parts, each scaled to a reference speed by its
    own reference, run in this process between children (the runs after a
    child are the runs before the next).  The child times its set-up
    (inputs, instance files, warm-up solve) and reports it; that part is
    scaled by ``reference``'s kernel.  The rest of the child's life,
    interpreter start, imports and exit, is work that kernel does not
    track: scaled by it, set-up times spread more than raw ones.  That part
    is scaled by ``startup_s`` to the speed where it takes
    ``STARTUP_NOMINAL_S``.  On the VM of ``Reference``, this cut the
    interquartile range of twelve lowrank-wide set-ups, which are mostly
    start and imports, from 10 % to 3 %.

    Returns the (wall, scaled) seconds of each child and the failures of
    children that did not pass.
    """
    times, failures = [], []
    startup_s()  # the first one runs slower than the rest; it is not used
    start_before, kernel_before = startup_s(), reference.kernel_s()
    for k in range(SETUP_PROCESSES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", str(workdir / f"setup-{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        start_after, kernel_after = startup_s(), reference.kernel_s()
        start_scale = STARTUP_NOMINAL_S * 2.0 / (start_before + start_after)
        kernel_scale = Reference.NOMINAL_S * 2.0 / (kernel_before + kernel_after)
        start_before, kernel_before = start_after, kernel_after
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            failures.append([f"set-up process {k} exited {proc.returncode}", *tail])
            times.append((wall, wall * start_scale))
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        rest = wall - child["after_imports_s"]
        times.append((rest + child["setup_s"],
                      rest * start_scale + child["setup_s"] * kernel_scale))
    return times, failures


def setup_only(args, pkg, imported: float) -> int:
    """Body of a set-up child: set up once, gate the warm-up, exit.

    The last stdout line gives the set-up's wall seconds, and the seconds
    this process ran after ``imported`` (the end of its imports), which the
    parent subtracts from its own timing of the child.
    """
    workdir = Path(args.setup_only)
    workdir.mkdir(parents=True)
    recorder = bt.Recorder()
    instruments = bt.Instruments(pkg, recorder)
    try:
        workload = make_workload(args.workload, pkg, args.seed, str(workdir), recorder)
        run = Run(workload, recorder)
        t0 = time.perf_counter()
        workload.setup()
        setup_wall = time.perf_counter() - t0
        run.gate_warmup()
    finally:
        instruments.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(json.dumps({"gate_failure": failure.as_dict()}), file=sys.stderr)
    print(json.dumps({"setup_s": setup_wall,
                      "after_imports_s": time.perf_counter() - imported}), flush=True)
    return 1 if run.failures else 0


def end_to_end(samples, setup_s) -> dict:
    """End-to-end metrics; times are at the reference speed."""
    scaled = [s.scaled for s in samples]
    passed = sum(s.passed for s in samples)
    return {
        "solves_per_s": {"value": passed / sum(scaled), "unit": "1/s"},
        "request_ms_p50": {"value": bt.median_ms(scaled), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }


def per_layer(spans, samples, untraced_samples) -> dict:
    """Per-layer metrics of the traced requests."""
    wall = sum(s.wall for s in samples)
    selfs = bt.layer_self_times(spans)
    own = bt.own_layer_times(spans)
    by_name = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s.name].append(sid)

    def durations(name):
        return [spans[sid].duration for sid in by_name[name]]

    def ratio(num, den):
        return num / den if den else 0.0

    solves = [it for s in samples for it in s.iterations]
    solve_spans = by_name["sdp.solve"]
    if len(solve_spans) != len(solves):
        raise RuntimeError(f"{len(solve_spans)} solve spans for {len(solves)} solves")
    iters = {"usd": [], "margin": []}
    solve_time = {"usd": 0.0, "margin": 0.0}
    for sid, (budget, iterations) in zip(solve_spans, solves):
        kind = "usd" if budget <= 0.0 else "margin"
        solve_time[kind] += spans[sid].duration
        if iterations is not None:
            iters[kind].append(iterations)

    problem_names = ("sdp.build_problem", "sdp.BlockSdpProblem")
    problem_own = [own[sid] for name in problem_names for sid in by_name[name]
                   if spans[sid].parent == bt.NO_PARENT
                   or spans[spans[sid].parent].name not in problem_names]
    reports = [rep for s in samples for rep in s.reports]
    configs = len(by_name["quantum.InterferometerConfig"])
    metric = {
        "matlin.self_share": (ratio(selfs.get("matlin", 0.0), wall), "ratio"),
        "matlin.eig_calls_per_solve": (
            ratio(len(by_name["matlin.eig_hermitian"]), len(solve_spans)), "count"),
        "matlin.eig_ms_p50": (bt.median_ms(durations("matlin.eig_hermitian")), "ms"),
        "sdp.self_share": (ratio(selfs.get("sdp", 0.0), wall), "ratio"),
        "sdp.solve_self_ms_p50": (bt.median_ms(own[sid] for sid in solve_spans), "ms"),
        "sdp.usd_iterations_mean": (ratio(sum(iters["usd"]), len(iters["usd"])), "count"),
        "sdp.margin_iterations_mean": (
            ratio(sum(iters["margin"]), len(iters["margin"])), "count"),
        "sdp.usd_ms_per_iteration": (
            1e3 * ratio(solve_time["usd"], sum(iters["usd"])), "ms"),
        "sdp.margin_ms_per_iteration": (
            1e3 * ratio(solve_time["margin"], sum(iters["margin"])), "ms"),
        "sdp.problem_ms_p50": (bt.median_ms(problem_own), "ms"),
        "sdp.extract_ms_p50": (bt.median_ms(durations("sdp.extract_povm")), "ms"),
        "sdp.failed_solves": (sum(s.solves - s.passed for s in samples), "count"),
        "quantum.self_share": (ratio(selfs.get("quantum", 0.0), wall), "ratio"),
        "quantum.coherence_calls_per_config": (
            ratio(len(by_name["quantum.coherence_rel_ent"]), configs), "count"),
        "quantum.holevo_ms_p50": (bt.median_ms(durations("quantum.holevo")), "ms"),
        "discrimination.self_share": (
            ratio(selfs.get("discrimination", 0.0), wall), "ratio"),
        "discrimination.random_config_ms_p50": (
            bt.median_ms(durations("discrimination.random_config")), "ms"),
        "duality.self_share": (ratio(selfs.get("duality", 0.0), wall), "ratio"),
        "duality.checks": (len(reports), "count"),
        "duality.violations": (sum(not ok for _, ok in reports), "count"),
        "duality.min_slack": (min((slack for slack, _ in reports), default=0.0), "1"),
        "cli.self_share": (ratio(selfs.get("cli", 0.0), wall), "ratio"),
        "cli.overhead_ms_p50": (bt.median_ms(own[sid] for sid in by_name["cli.main"]), "ms"),
        "bench.self_share": (ratio(selfs.get(bt.BENCH, 0.0), wall), "ratio"),
        "trace.overhead_ratio": (
            ratio(sum(s.wall for s in samples), sum(s.wall for s in untraced_samples)),
            "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metric.items()}


def trace_errors(spans, samples) -> list[str]:
    """Spans must nest, and the layer self times plus the benchmark's own
    must add up to the traced requests' wall time."""
    return (bt.nesting_errors(spans)
            + bt.attribution_errors(spans, [s.wall for s in samples]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one cold set-up in this directory and exit (see cold_setups).
    parser.add_argument("--setup-only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_package()
    imported = time.perf_counter()
    if pkg is None:
        print(f"error: no wpduality package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args, pkg, imported)

    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)

    recorder = bt.Recorder()
    instruments = bt.Instruments(pkg, recorder)
    try:
        workload = make_workload(args.workload, pkg, args.seed, str(workdir), recorder)
        setups = []  # (wall, scaled) seconds per cold set-up
        if args.trace == 0:
            reference = Reference()
            reference.kernel_s()  # the first call pays numpy's lazy set-up
            setups, setup_failures = cold_setups(args, reference, workdir)
            run = Run(workload, recorder, reference)
            run.failures += [workload.failure(-1, reasons) for reasons in setup_failures]
            workload.setup()
            run.gate_warmup()
            samples = run.for_seconds(args.seconds)
            metrics = end_to_end(samples, statistics.median(scaled for _, scaled in setups))
        else:
            run = Run(workload, recorder)
            workload.setup()
            run.gate_warmup()
            untraced, samples = run.traced_pairs(args.seconds, instruments)
            spans = recorder.spans
            metrics = per_layer(spans, samples, untraced)
            run.failures += [workload.failure(-1, [e])
                             for e in trace_errors(spans, samples)[:20]]
            recorder.dump(results_dir / f"{stem}.spans.jsonl")
    finally:
        instruments.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(json.dumps({"gate_failure": failure.as_dict()}), file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "failures": [f.as_dict() for f in run.failures],
                   "setup_s": setups,
                   "request_s": [(s.wall, s.scaled) for s in samples],
                   **result}, fh, indent=2)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
