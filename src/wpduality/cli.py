"""Command-line experiment harness.

Subcommands reproduce the three reference figures as data files, solve
user-supplied instances, and run seeded random-ensemble scans of every
duality relation.  ``scan`` and ``figure2`` reduce over ``_sweep``, the one
seeded-ensemble loop; ``figure1`` and ``figure3`` are ``cmd_curve``, the one
closed-form curve loop.  Exit codes: 0 all checks satisfied, 1 violation
found, 2 input or validation error, 3 solver failure (a non-optimal solve
status).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import discrimination as disc
from . import duality, matlin, quantum, sdp
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
# Consecutive draws --min-coherence may reject before the ensemble gives up:
# random configs rarely reach high coherence, so some thresholds are never met.
MAX_REJECTED_DRAWS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc}") from exc


def _write_rows(path: str, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in row))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        # JSON has no NaN: a value that is not defined, such as C on a bound row, is null
        rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                for row in rows]
        _write_json(path, {"schema_version": SCHEMA_VERSION,
                           "rows": [dict(zip(header, row)) for row in rows]})
    log.info("wrote %d rows to %s", len(rows), path)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _parse_list(text: str, flag: str, convert, noun: str) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated {noun}: {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


def _n_paths(args) -> list[int]:
    """The ``--n-paths`` list; every entry must be at least 2."""
    return [matlin.integer_at_least(n, 2, "--n-paths")
            for n in _parse_list(args.n_paths, "--n-paths", int, "integers")]


def _error_budgets(text: str) -> list[float]:
    """An ``--error-budget`` list; every entry must be a number in [0, 1]."""
    return [matlin.probability(pe, "--error-budget")
            for pe in _parse_list(text, "--error-budget", float, "numbers")]


def _grid(start: float, args) -> np.ndarray:
    """``--grid`` evenly spaced points from ``start`` to 1; ``--grid`` must be >= 1."""
    return np.linspace(start, 1.0, matlin.integer_at_least(args.grid, 1, "--grid"))


def _solver_options(args) -> sdp.SolverOptions:
    return sdp.SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _config_seed(master: int, index: int) -> int:
    # Deterministic per-config stream: safe to evaluate configs in parallel
    # and still emit results ordered by index.
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


def _sweep(args, n: int, budgets: list[float]):
    """Rejection-sampled random configs at ``n`` paths for ``--ensemble``,
    ``--seed`` and ``--min-coherence``, each solved at every budget: yields
    ``(sample, budget, cfg, coherence_bits, solution)`` right after each
    solve, one solve per step.  ``sdp`` is called through its module, so a
    tracer that rebinds its attributes sees every solve.  Raises
    ``ValidationError`` for ``--ensemble`` below 1, a negative ``--seed``,
    ``--min-coherence`` outside [0, 1), or after ``MAX_REJECTED_DRAWS``
    consecutive rejections."""
    options = _solver_options(args)
    ensemble = matlin.integer_at_least(args.ensemble, 1, "--ensemble")
    # SeedSequence takes no negative entropy.
    seed = matlin.integer_at_least(args.seed, 0, "--seed")
    if not 0.0 <= args.min_coherence < 1.0:  # at 1 or above sampling would never end
        raise ValidationError(
            f"--min-coherence must lie in [0, 1), got {args.min_coherence!r}")
    log_n = float(np.log2(n))
    produced = 0
    index = 0
    rejected = 0
    while produced < ensemble:
        cfg = disc.random_config(n, n, _config_seed(seed, index))
        index += 1
        coherence_bits = quantum.coherence_rel_ent(cfg)
        if coherence_bits / log_n < args.min_coherence:
            rejected += 1
            if rejected >= MAX_REJECTED_DRAWS:
                raise ValidationError(
                    f"no config at N = {n} reached --min-coherence {args.min_coherence!r} "
                    f"in {MAX_REJECTED_DRAWS} consecutive draws")
            continue
        rejected = 0
        for budget in budgets:
            solution = sdp.solve(sdp.build_problem(cfg, budget), options)
            yield produced, budget, cfg, coherence_bits, solution
        produced += 1


# The closed-form curve figures: subcommand -> (x column, first x at N paths,
# family, its outcome (D is p_success), its coherence in bits).
CURVE_FIGURES = {
    "figure1": ("overlap", lambda n: 0.0, disc.SymmetricConfig,
                lambda cfg: disc.symmetric_error_margin(cfg, 0.0), disc.symmetric_coherence),
    "figure3": ("p", lambda n: 1.0 / n, disc.AsymmetricConfig,
                disc.asymmetric_usd, disc.asymmetric_coherence),
}


def cmd_curve(args) -> int:
    """Coherence vs distinguishability curves of the closed-form family of
    ``args.command``: a row per N and grid point x, with the normalized C."""
    x_name, start, family, outcome, coherence = CURVE_FIGURES[args.command]
    n_list = _n_paths(args)
    rows = []
    for n in n_list:
        log_n = float(np.log2(n))
        for x in _grid(start(n), args):
            cfg = family(n, float(x))
            rows.append([n, float(x), outcome(cfg).p_success, coherence(cfg) / log_n])
    _write_rows(args.out, ["n_paths", x_name, "D", "C"], rows, args.format)
    return EXIT_OK


def cmd_figure2(args) -> int:
    """Random-ensemble coherence against the error-margin bound surface."""
    n_list = _n_paths(args)
    budgets = _error_budgets(args.error_budget)
    grid = _grid(0.0, args)
    header = [
        "kind", "n_paths", "sample", "p_e_budget", "p_e_used", "p_f",
        "C", "bound_lhs", "status",
    ]
    rows = []
    failures = 0
    for n in n_list:
        log_n = float(np.log2(n))
        for sample, pe, cfg, coherence_bits, sol in _sweep(args, n, budgets):
            if sol.status != "optimal":
                failures += 1
            outcome = disc.outcome_from_solution(sol)
            lhs = duality.error_margin_surface(n, outcome.p_error, outcome.p_failure)
            rows.append(["sample", n, sample, pe,
                         outcome.p_error, outcome.p_failure, coherence_bits / log_n,
                         lhs, sol.status])
        for pe in budgets:
            for p_f in grid:
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
    except RecursionError as exc:  # json's decoder recurses once per nesting level
        raise ValidationError(f"instance file {path!r} nests too deeply: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("instance file must contain a JSON object")
    for key in ("priors", "gram_re"):
        if key not in raw:
            raise ValidationError(f"instance file is missing required field {key!r}")
    # Python's json reads NaN and Infinity; number_array and probability reject them
    priors, gram_re = (matlin.number_array(raw[key], f"instance field {key!r}")
                       for key in ("priors", "gram_re"))
    gram_im = matlin.number_array(raw.get("gram_im", np.zeros_like(gram_re)),
                                  "instance field 'gram_im'")
    if gram_re.shape != gram_im.shape:
        raise ValidationError("fields gram_re and gram_im have different shapes")
    budget = matlin.probability(raw.get("error_budget", 0.0), "field 'error_budget'")
    cfg = quantum.InterferometerConfig(priors, gram_re + 1j * gram_im)
    return cfg, budget


def cmd_solve(args) -> int:
    """Solve one instance file and emit a full JSON report."""
    cfg, budget = _load_instance(args.instance)
    if args.error_budget is not None:
        budgets = _error_budgets(args.error_budget)
        if len(budgets) != 1:
            raise ValidationError(f"solve --error-budget takes one number: {args.error_budget!r}")
        budget = budgets[0]
    solution = sdp.solve(sdp.build_problem(cfg, budget), _solver_options(args))
    if solution.status != "optimal":
        log.error("solver did not converge: status %s", solution.status)
        return EXIT_SOLVER
    outcome = disc.outcome_from_solution(solution)
    coherence_bits = quantum.coherence_rel_ent(cfg)
    reports = duality.all_checks(cfg, outcome, coherence_bits)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_paths": cfg.n_paths,
        "error_budget": budget,
        "entropies": {
            "prior_shannon_bits": quantum.shannon_entropy(cfg.priors),
            "path_von_neumann_bits": quantum.path_entropy(cfg),
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
        "duality": [dataclasses.asdict(r) for r in reports],
    }
    payload["satisfied_all"] = all(r.satisfied for r in reports)
    _write_json(args.out, payload)
    return EXIT_OK if payload["satisfied_all"] else EXIT_VIOLATION


def cmd_scan(args) -> int:
    """Random-ensemble sweep of every relation; violations are fatal."""
    n_list = _n_paths(args)
    budgets = _error_budgets(args.error_budget)
    relation_stats: dict[str, dict] = {}
    iteration_counts: list[int] = []
    statuses: dict[str, int] = {}
    for n in n_list:
        for _, _, cfg, coherence_bits, sol in _sweep(args, n, budgets):
            statuses[sol.status] = statuses.get(sol.status, 0) + 1
            iteration_counts.append(sol.iterations)
            if sol.status != "optimal":
                continue
            outcome = disc.outcome_from_solution(sol)
            for report in duality.all_checks(cfg, outcome, coherence_bits):
                entry = relation_stats.setdefault(
                    report.relation,
                    {"min_slack": float("inf"), "violations": 0, "checks": 0})
                entry["checks"] += 1
                entry["min_slack"] = min(entry["min_slack"], report.slack)
                if not report.satisfied:
                    entry["violations"] += 1
    violations = sum(entry["violations"] for entry in relation_stats.values())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "n_paths": n_list,
        "ensemble": args.ensemble,
        "p_e_grid": budgets,
        "min_coherence": args.min_coherence,
        "relations": relation_stats,
        "total_checks": sum(entry["checks"] for entry in relation_stats.values()),
        "violations_total": violations,
        "solver": {
            "statuses": statuses,
            "iterations_mean": float(np.mean(iteration_counts)),
            "iterations_max": max(iteration_counts),
        },
    }
    _write_json(args.out, payload)
    if set(statuses) - {"optimal"}:
        return EXIT_SOLVER
    return EXIT_VIOLATION if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duality",
        description="Entropic wave-particle duality bounds for N-path interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand gets only the flags it reads.
    def add_output(p, default_out):
        p.add_argument("--out", default=default_out, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tabular data")

    def add_solver(p):
        p.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=200, help="solver iteration cap")

    def add_ensemble(p):
        p.add_argument("--ensemble", type=int, default=500, help="samples per N")
        p.add_argument("--min-coherence", type=float, default=0.0,
                       help="rejection filter: keep configs with C above this")
        p.add_argument("--seed", type=int, default=1234, help="master RNG seed")

    def add_curve(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n-paths", default=DEFAULT_FIGURE_PATHS)
        p.add_argument("--grid", type=int, default=201, help="points per curve")
        add_output(p, f"{name}.csv")
        p.set_defaults(func=cmd_curve)

    add_curve("figure1", "symmetric-family C vs D curves")
    p2 = sub.add_parser("figure2", help="random ensemble vs error-margin bound surface")
    p2.add_argument("--n-paths", default=DEFAULT_FIG2_PATHS)
    p2.add_argument("--grid", type=int, default=51, help="bound-surface grid points")
    p2.add_argument("--error-budget", default=DEFAULT_FIG2_BUDGETS,
                    help="comma-separated error budgets")
    add_ensemble(p2)
    add_solver(p2)
    add_output(p2, "figure2.csv")
    p2.set_defaults(func=cmd_figure2)
    add_curve("figure3", "asymmetric-family C vs D curves")

    ps = sub.add_parser("solve", help="solve an instance file and report")
    ps.add_argument("instance", help="JSON instance file")
    ps.add_argument("--error-budget", default=None,
                    help="override the instance error budget")
    add_solver(ps)
    ps.add_argument("--out", default=None, help="output path")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("scan", help="random-ensemble duality scan")
    pc.add_argument("--n-paths", default="3")
    pc.add_argument("--error-budget", default=DEFAULT_SCAN_BUDGETS)
    add_ensemble(pc)
    add_solver(pc)
    add_output(pc, None)  # scan always writes JSON but accepts --format, which scripts pass
    pc.set_defaults(func=cmd_scan)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first ``main`` call and reused by later ones.

    It depends on no input, and parsing leaves it unchanged.  Building it
    takes a millisecond or more, mostly argparse making a help formatter
    for each of its arguments.
    """
    return build_parser()


def _configure_logging() -> None:
    level_name = os.environ.get("DUALITY_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _check_out(path: str | None) -> None:
    """Reject an empty ``--out``, or one that names a directory or lies in a
    missing one, before any work: ``scan`` and ``figure2`` write only after
    every solve."""
    if path is None:
        return
    if not path:
        raise ValidationError("--out must name a file, got ''")
    if os.path.isdir(path):
        raise ValidationError(f"--out {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"--out {path!r} is in a directory that does not exist")


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ValidationError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
