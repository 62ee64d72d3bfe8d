"""The benchmark's workloads: set-up, one timed request, and its checks.

Every input comes from the workload seed: instance ``i`` of a run uses the
seed ``SeedSequence((seed, i))``, the derivation ``duality scan`` applies to
its own configs.  All requests go through the package's public API at call
time, so the probes and spans that ``bench_trace.instrument`` installs see
them.  Why each workload exists, and what it should show, is written down
in ``WORKLOADS.md``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from bench_gate import Failure, holevo_failure, solve_failures

SCAN_PATHS = "2,3,4,5"
SCAN_BUDGETS = "0,0.01,0.1,0.3"
SCAN_ENSEMBLE = 2  # configs per N in one scan request: 4 x 2 x 4 = 32 solves
SCAN_REPLAY_EVERY = 4  # every 4th request runs twice; the summaries must match

SOLVE_N = 16
# Instance files written in set-up, one per request; a later request
# writes its own file before its timer starts.
SOLVE_INSTANCES = 16
MARGIN_BUDGET = 0.05

WIDE_N = 48
WIDE_DIM = 4  # detector dimension: the Gram matrix has rank 4
WIDE_BUDGETS = (0.05, 0.2)

WARMUP_N = 4  # size of the single warm-up solve each set-up runs
WARMUP_INDEX = 2**31 - 1  # instance index reserved for the warm-up input


def instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class Workload:
    """Base: the gate bookkeeping shared by all workloads."""

    name = ""

    def __init__(self, pkg, seed: int, workdir: str, recorder):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, index: int) -> None:
        """Make request ``index``'s inputs, if set-up did not; untimed."""

    def replays(self, index: int) -> bool:
        """Whether request ``index`` runs a second time for the checks."""
        return False

    def failure(self, index, reasons, n=None, budget=None, config=None) -> Failure:
        return Failure(self.name, self.seed, index, n, budget, list(reasons), config)

    def gate(self, index, records, extra=None, config_of=None):
        """Gate each record; return (solves passed, failures)."""
        failures = []
        for k, record in enumerate(records):
            reasons = solve_failures(record) + (extra[k] if extra else [])
            if reasons:
                failures.append(self.failure(
                    index, reasons, record.problem.block_count,
                    record.problem.error_budget,
                    config_of(k) if config_of else None))
        return len(records) - len(failures), failures

    def _read_json(self, path):
        """The bytes and parsed content of an output file, which is removed;
        ``(None, None)`` when the command wrote none."""
        if not os.path.exists(path):
            return None, None
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)
        return raw, json.loads(raw)


class ScanSmall(Workload):
    """``duality scan`` over N = 2..5 with full-rank random configs."""

    name = "scan-small"

    def __init__(self, *args):
        super().__init__(*args)
        self.summaries: dict[int, bytes] = {}
        self.budget_count = len(SCAN_BUDGETS.split(","))

    def _scan(self, scan_seed, out, paths=SCAN_PATHS, budgets=SCAN_BUDGETS,
              ensemble=SCAN_ENSEMBLE):
        return self.pkg.cli.main([
            "scan", "--n-paths", paths, "--error-budget", budgets,
            "--ensemble", str(ensemble), "--seed", str(scan_seed),
            "--format", "json", "--out", out])

    def setup(self):
        out = self.path("warmup.json")
        self._scan(instance_seed(self.seed, WARMUP_INDEX), out,
                   paths=str(WARMUP_N), budgets="0.1", ensemble=1)
        self._read_json(out)

    def replays(self, index):
        return index % SCAN_REPLAY_EVERY == 0

    def run(self, index):
        return self._scan(instance_seed(self.seed, index), self.path(f"scan-{index}.json"))

    def check(self, index, code, records):
        raw, summary = self._read_json(self.path(f"scan-{index}.json"))
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}")
        expected = len(SCAN_PATHS.split(",")) * SCAN_ENSEMBLE * self.budget_count
        if len(records) != expected:
            reasons.append(f"{len(records)} solves, expected {expected}")
        if summary is None:
            reasons.append("no summary written")
        else:
            if summary["violations_total"] != 0:
                reasons.append(f"summary reports {summary['violations_total']} violations")
            if summary["solver"]["statuses"] != {"optimal": expected}:
                reasons.append(f"summary statuses {summary['solver']['statuses']}")
            # Replayed requests, and traced runs' untraced-then-traced pairs,
            # run a request twice.
            if self.summaries.setdefault(index, raw) != raw:
                reasons.append("summary differs from the earlier run of this request")
        failures = [self.failure(index, reasons)] if reasons else []

        # cmd_scan solves N by N, config by config, budget by budget.
        seen: dict[int, int] = {}
        configs = []
        for record in records:
            n = record.problem.block_count
            configs.append(seen.get(n, 0) // self.budget_count)
            seen[n] = seen.get(n, 0) + 1
        passed, solve_fails = self.gate(index, records, config_of=configs.__getitem__)
        return passed, failures + solve_fails


class SolveLarge(Workload):
    """One ``duality solve`` per request on an N = 16 instance file."""

    def __init__(self, *args, budget: float, name: str):
        super().__init__(*args)
        self.budget = budget
        self.name = name

    def instance_path(self, index: int) -> str:
        return self.path(f"instance-{index}.json")

    def _write_instance(self, path, cfg):
        # json writes floats as their shortest exact repr, so the priors
        # read back bit for bit and still pass the 1e-10 sum check.
        payload = {
            "priors": [float(p) for p in cfg.priors],
            "gram_re": cfg.gram.real.tolist(),
            "gram_im": cfg.gram.imag.tolist(),
            "error_budget": 0.0,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def _solve(self, instance, out):
        return self.pkg.cli.main(["solve", instance, "--error-budget", repr(self.budget),
                                  "--out", out])

    def prepare(self, index):
        path = self.instance_path(index)
        if not os.path.exists(path):
            cfg = self.pkg.discrimination.random_config(
                SOLVE_N, SOLVE_N, instance_seed(self.seed, index))
            self._write_instance(path, cfg)

    def setup(self):
        disc = self.pkg.discrimination
        for i in range(SOLVE_INSTANCES):
            self.prepare(i)
        warm = self.path("instance-warmup.json")
        self._write_instance(warm, disc.random_config(
            WARMUP_N, WARMUP_N, instance_seed(self.seed, WARMUP_INDEX)))
        out = self.path("warmup-out.json")
        self._solve(warm, out)
        self._read_json(out)

    def run(self, index):
        return self._solve(self.instance_path(index), self.path(f"report-{index}.json"))

    def check(self, index, code, records):
        _, report = self._read_json(self.path(f"report-{index}.json"))
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}")
        if report is None or report.get("satisfied_all") is not True:
            reasons.append("report is not satisfied_all")
        if len(records) != 1:
            reasons.append(f"{len(records)} solves, expected 1")
        failures = [self.failure(index, reasons, SOLVE_N, self.budget)] if reasons else []
        passed, solve_fails = self.gate(index, records)
        return passed, failures + solve_fails


class LowrankWide(Workload):
    """Library pipeline on N = 48 configs whose Gram matrix has rank 4."""

    name = "lowrank-wide"

    def _pipeline(self, config_seed, n, budgets):
        pkg = self.pkg
        disc, quantum, sdp, duality = pkg.discrimination, pkg.quantum, pkg.sdp, pkg.duality
        cfg = disc.random_config(n, WIDE_DIM, config_seed)
        coherence = quantum.coherence_rel_ent(cfg)
        with self.recorder.span("quantum.holevo", "quantum"):
            holevo = quantum.von_neumann_entropy(quantum.detector_density_matrix(cfg))
        gram = sdp.build_problem(cfg, 0.0).gram
        outcomes = []  # per budget: (mutual information or None, reasons)
        for budget in budgets:
            try:
                sol = sdp.solve(sdp.BlockSdpProblem(gram, budget, n))
            except sdp.NumericalBreakdownError:
                sol = None  # the gate reports it from the probed call
            if sol is None or sol.status != "optimal":
                outcomes.append((None, []))
                continue
            try:
                povm = sdp.extract_povm(sol, cfg)
                info = quantum.mutual_information(sdp.povm_channel_statistics(povm, cfg))
            except pkg.matlin.ValidationError as exc:
                outcomes.append((None, [f"POVM statistics: {exc}"]))
                continue
            p_f = sol.objective
            p_e = min(sol.error_used, 1.0 - p_f)
            outcome = disc.DiscriminationOutcome(
                p_success=1.0 - p_e - p_f, p_error=p_e, p_failure=p_f, method="sdp")
            duality.all_checks(cfg, outcome, coherence)
            outcomes.append((info, []))
        return holevo, outcomes

    def setup(self):
        self._pipeline(instance_seed(self.seed, WARMUP_INDEX), WARMUP_N, WIDE_BUDGETS[:1])

    def run(self, index):
        return self._pipeline(instance_seed(self.seed, index), WIDE_N, WIDE_BUDGETS)

    def check(self, index, result, records):
        holevo, outcomes = result
        if len(records) != len(outcomes):
            return 0, [self.failure(index, [
                f"{len(records)} solves for {len(outcomes)} budgets"], WIDE_N)]
        extra = [
            reasons + ([] if info is None else holevo_failure(info, holevo))
            for info, reasons in outcomes
        ]
        return self.gate(index, records, extra)


def make_workload(name, pkg, seed, workdir, recorder) -> Workload:
    args = (pkg, seed, workdir, recorder)
    if name == "scan-small":
        return ScanSmall(*args)
    if name == "solve-large-usd":
        return SolveLarge(*args, budget=0.0, name=name)
    if name == "solve-large-margin":
        return SolveLarge(*args, budget=MARGIN_BUDGET, name=name)
    if name == "lowrank-wide":
        return LowrankWide(*args)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan-small", "solve-large-usd", "solve-large-margin", "lowrank-wide")
