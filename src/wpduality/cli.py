"""Command-line experiment harness.

Subcommands reproduce the three reference figures as data files, solve
user-supplied instances, and run seeded random-ensemble scans of every
duality relation.  Exit codes: 0 all checks satisfied, 1 violation found,
2 input or validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import discrimination as disc
from . import duality, quantum, sdp
from .matlin import ValidationError

__all__ = ["main", "console_main"]

log = logging.getLogger("wpduality.cli")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

DEFAULT_FIGURE_PATHS = "2,4,16,256"
DEFAULT_FIG2_PATHS = "2,3"
DEFAULT_FIG2_BUDGETS = "0.01,0.1,0.2,0.3,0.4,0.5"
DEFAULT_SCAN_BUDGETS = "0,0.01,0.1,0.3"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_rows(path: str, header: list[str], rows: list[list], fmt: str) -> None:
    try:
        if fmt == "csv":
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(
                    _fmt(v) if isinstance(v, float) else str(v) for v in row))
            text = "\n".join(lines) + "\n"
        else:
            records = [dict(zip(header, row)) for row in rows]
            text = json.dumps(
                {"schema_version": SCHEMA_VERSION, "rows": records},
                indent=2, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc}") from exc
    log.info("wrote %d rows to %s", len(rows), path)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated integers: {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated numbers: {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


def _solver_options(args) -> sdp.SolverOptions:
    return sdp.SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _config_seed(master: int, index: int) -> int:
    # Deterministic per-config stream: safe to evaluate configs in parallel
    # and still emit results ordered by index.
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


def _ensemble(n: int, args):
    """Rejection-sampled random configs for ``--ensemble``, ``--seed`` and
    ``--min-coherence``: yields ``(sample, cfg, coherence_bits)``."""
    log_n = float(np.log2(n))
    produced = 0
    index = 0
    while produced < args.ensemble:
        cfg = disc.random_config(n, n, _config_seed(args.seed, index))
        index += 1
        coherence_bits = quantum.coherence_rel_ent(cfg)
        if coherence_bits / log_n < args.min_coherence:
            continue
        yield produced, cfg, coherence_bits
        produced += 1


def cmd_figure1(args) -> int:
    """Coherence vs distinguishability curves for the symmetric family."""
    n_list = _parse_int_list(args.n_paths, "--n-paths")
    grid = np.linspace(0.0, 1.0, args.grid)
    rows = []
    for n in n_list:
        log_n = float(np.log2(n))
        for c in grid:
            coh = disc.symmetric_coherence(disc.SymmetricConfig(n, float(c))) / log_n
            rows.append([n, float(c), 1.0 - float(c), coh])
    _write_rows(args.out, ["n_paths", "overlap", "D", "C"], rows, args.format)
    return EXIT_OK


def cmd_figure3(args) -> int:
    """Coherence vs distinguishability curves for the asymmetric family."""
    n_list = _parse_int_list(args.n_paths, "--n-paths")
    rows = []
    for n in n_list:
        log_n = float(np.log2(n))
        for p in np.linspace(1.0 / n, 1.0, args.grid):
            cfg = disc.AsymmetricConfig(n, float(p))
            p_f = n * (1.0 - float(p)) / (n - 1)
            rows.append([
                n, float(p), 1.0 - p_f, disc.asymmetric_coherence(cfg) / log_n,
            ])
    _write_rows(args.out, ["n_paths", "p", "D", "C"], rows, args.format)
    return EXIT_OK


def cmd_figure2(args) -> int:
    """Random-ensemble coherence against the error-margin bound surface."""
    n_list = _parse_int_list(args.n_paths, "--n-paths")
    budgets = _parse_float_list(args.error_budget, "--error-budget")
    options = _solver_options(args)
    header = [
        "kind", "n_paths", "sample", "p_e_budget", "p_e_used", "p_f",
        "C", "bound_lhs", "status",
    ]
    rows = []
    failures = 0
    for n in n_list:
        log_n = float(np.log2(n))
        for sample, cfg, coherence_bits in _ensemble(n, args):
            coh = coherence_bits / log_n
            for pe in budgets:
                try:
                    sol = sdp.solve(sdp.build_problem(cfg, pe), options)
                except sdp.NumericalBreakdownError:
                    failures += 1
                    rows.append(["sample", n, sample, pe,
                                 float("nan"), float("nan"), coh,
                                 float("nan"), "breakdown"])
                    continue
                if sol.status != "optimal":
                    failures += 1
                report = duality.check_error_margin_duality(
                    cfg, disc.outcome_from_solution(sol), coherence_bits)
                rows.append(["sample", n, sample, pe,
                             sol.error_used, sol.objective, coh,
                             report.bound_lhs, sol.status])
        for pe in budgets:
            for p_f in np.linspace(0.0, 1.0, args.grid):
                lhs = duality.error_margin_surface(n, float(pe), float(p_f))
                rows.append(["bound", n, -1, float(pe), float(pe), float(p_f),
                             float("nan"), float(lhs), "surface"])
    _write_rows(args.out, header, rows, args.format)
    return EXIT_SOLVER if failures else EXIT_OK


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"instance file {path!r} is not valid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError("instance file must contain a JSON object")
    for key in ("priors", "gram_re"):
        if key not in raw:
            raise ValidationError(f"instance file is missing required field {key!r}")
    priors = np.asarray(raw["priors"], dtype=float)
    gram_re = np.asarray(raw["gram_re"], dtype=float)
    gram_im = np.asarray(raw.get("gram_im", np.zeros_like(gram_re)), dtype=float)
    if gram_re.shape != gram_im.shape:
        raise ValidationError("fields gram_re and gram_im have different shapes")
    budget = float(raw.get("error_budget", 0.0))
    cfg = quantum.InterferometerConfig(priors, gram_re + 1j * gram_im)
    return cfg, budget


def _report_dict(report: duality.DualityReport) -> dict:
    return {
        "relation": report.relation,
        "coherence_C": report.coherence_C,
        "distinguishability_D": report.distinguishability_D,
        "bound_lhs": report.bound_lhs,
        "bound_rhs": report.bound_rhs,
        "slack": report.slack,
        "satisfied": report.satisfied,
    }


def cmd_solve(args) -> int:
    """Solve one instance file and emit a full JSON report."""
    cfg, budget = _load_instance(args.instance)
    if args.error_budget is not None:
        budget = _parse_float_list(args.error_budget, "--error-budget")[0]
    try:
        solution = sdp.solve(sdp.build_problem(cfg, budget), _solver_options(args))
    except sdp.NumericalBreakdownError as exc:
        log.error("solver breakdown: %s", exc)
        return EXIT_SOLVER
    if solution.status != "optimal":
        log.error("solver did not converge: status %s", solution.status)
        return EXIT_SOLVER
    outcome = disc.outcome_from_solution(solution)
    coherence_bits = quantum.coherence_rel_ent(cfg)
    reports = duality.all_checks(cfg, outcome, coherence_bits)
    rho_p = quantum.path_density_matrix(cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_paths": cfg.n_paths,
        "error_budget": budget,
        "entropies": {
            "prior_shannon_bits": quantum.shannon_entropy(cfg.priors),
            "path_von_neumann_bits": quantum.von_neumann_entropy(rho_p),
        },
        "coherence": {
            "rel_ent_bits": coherence_bits,
            "normalized": coherence_bits / float(np.log2(cfg.n_paths)),
        },
        "discrimination": {
            "p_success": outcome.p_success,
            "p_error": outcome.p_error,
            "p_failure": outcome.p_failure,
            "method": outcome.method,
        },
        "solver": {
            "status": solution.status,
            "iterations": solution.iterations,
            "gap": solution.gap,
            "dual_objective": solution.dual_objective,
        },
        "duality": [_report_dict(r) for r in reports],
    }
    payload["satisfied_all"] = all(r.satisfied for r in reports)
    _write_json(args.out, payload)
    return EXIT_OK if payload["satisfied_all"] else EXIT_VIOLATION


def cmd_scan(args) -> int:
    """Random-ensemble sweep of every relation; violations are fatal."""
    n_list = _parse_int_list(args.n_paths, "--n-paths")
    budgets = _parse_float_list(args.error_budget, "--error-budget")
    options = _solver_options(args)
    relation_stats: dict[str, dict] = {}
    iteration_counts: list[int] = []
    statuses: dict[str, int] = {}
    violations = 0
    breakdowns = 0
    checked = 0
    for n in n_list:
        for _, cfg, coherence_bits in _ensemble(n, args):
            for pe in budgets:
                try:
                    sol = sdp.solve(sdp.build_problem(cfg, pe), options)
                except sdp.NumericalBreakdownError:
                    breakdowns += 1
                    statuses["breakdown"] = statuses.get("breakdown", 0) + 1
                    continue
                statuses[sol.status] = statuses.get(sol.status, 0) + 1
                iteration_counts.append(sol.iterations)
                if sol.status != "optimal":
                    breakdowns += 1
                    continue
                outcome = disc.outcome_from_solution(sol)
                for report in duality.all_checks(cfg, outcome, coherence_bits):
                    checked += 1
                    entry = relation_stats.setdefault(
                        report.relation,
                        {"min_slack": float("inf"), "violations": 0, "checks": 0})
                    entry["checks"] += 1
                    entry["min_slack"] = min(entry["min_slack"], report.slack)
                    if not report.satisfied:
                        entry["violations"] += 1
                        violations += 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "n_paths": n_list,
        "ensemble": args.ensemble,
        "p_e_grid": budgets,
        "min_coherence": args.min_coherence,
        "relations": relation_stats,
        "total_checks": checked,
        "violations_total": violations,
        "solver": {
            "statuses": statuses,
            "iterations_mean": float(np.mean(iteration_counts)) if iteration_counts else 0.0,
            "iterations_max": int(max(iteration_counts)) if iteration_counts else 0,
        },
    }
    _write_json(args.out, payload)
    if breakdowns:
        return EXIT_SOLVER
    return EXIT_VIOLATION if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duality",
        description="Entropic wave-particle duality bounds for N-path interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_out):
        p.add_argument("--seed", type=int, default=1234, help="master RNG seed")
        p.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=200, help="solver iteration cap")
        p.add_argument("--out", default=default_out, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tabular data")

    p1 = sub.add_parser("figure1", help="symmetric-family C vs D curves")
    p1.add_argument("--n-paths", default=DEFAULT_FIGURE_PATHS)
    p1.add_argument("--grid", type=int, default=201, help="points per curve")
    add_common(p1, "figure1.csv")
    p1.set_defaults(func=cmd_figure1)

    p2 = sub.add_parser("figure2", help="random ensemble vs error-margin bound surface")
    p2.add_argument("--n-paths", default=DEFAULT_FIG2_PATHS)
    p2.add_argument("--grid", type=int, default=51, help="bound-surface grid points")
    p2.add_argument("--error-budget", default=DEFAULT_FIG2_BUDGETS,
                    help="comma-separated error budgets")
    p2.add_argument("--ensemble", type=int, default=500, help="samples per N")
    p2.add_argument("--min-coherence", type=float, default=0.0,
                    help="rejection filter: keep configs with C above this")
    add_common(p2, "figure2.csv")
    p2.set_defaults(func=cmd_figure2)

    p3 = sub.add_parser("figure3", help="asymmetric-family C vs D curves")
    p3.add_argument("--n-paths", default=DEFAULT_FIGURE_PATHS)
    p3.add_argument("--grid", type=int, default=201, help="points per curve")
    add_common(p3, "figure3.csv")
    p3.set_defaults(func=cmd_figure3)

    ps = sub.add_parser("solve", help="solve an instance file and report")
    ps.add_argument("instance", help="JSON instance file")
    ps.add_argument("--error-budget", default=None,
                    help="override the instance error budget")
    add_common(ps, None)
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("scan", help="random-ensemble duality scan")
    pc.add_argument("--n-paths", default="3")
    pc.add_argument("--error-budget", default=DEFAULT_SCAN_BUDGETS)
    pc.add_argument("--ensemble", type=int, default=500)
    pc.add_argument("--min-coherence", type=float, default=0.0,
                    help="rejection filter: keep configs with C above this")
    add_common(pc, None)
    pc.set_defaults(func=cmd_scan)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("DUALITY_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except sdp.NumericalBreakdownError as exc:
        log.error("solver breakdown: %s", exc)
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
