"""Tests of the benchmark's own arithmetic and correctness gate.

Run with the package on the path, as the main suite is:
``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

import bench_trace as bt
from bench_gate import SolveRecord, holevo_failure, pair_events, solve_failures

import wpduality
from wpduality import discrimination, duality, sdp


def span(name, layer, start, end, parent, instance=0):
    return bt.Span(name, layer, float(start), float(end), parent, instance)


# request [0, 100] in bench
#   cli.main [5, 95]
#     sdp.solve [10, 60]
#       matlin.eig_hermitian [20, 30]
#       sdp.BlockSdpProblem [35, 50]      same layer as its parent
#         matlin.is_psd [40, 45]
#     duality.all_checks [70, 90]
#       quantum.coherence_rel_ent [72, 88]
#         matlin.eig_hermitian [75, 80]
TREE = [
    span("bench.request", "bench", 0, 100, -1),
    span("cli.main", "cli", 5, 95, 0),
    span("sdp.solve", "sdp", 10, 60, 1),
    span("matlin.eig_hermitian", "matlin", 20, 30, 2),
    span("sdp.BlockSdpProblem", "sdp", 35, 50, 2),
    span("matlin.is_psd", "matlin", 40, 45, 4),
    span("duality.all_checks", "duality", 70, 90, 1),
    span("quantum.coherence_rel_ent", "quantum", 72, 88, 6),
    span("matlin.eig_hermitian", "matlin", 75, 80, 7),
]


def test_exclusive_times_subtract_direct_children():
    assert bt.exclusive_times(TREE) == [10, 20, 25, 10, 10, 5, 4, 11, 5]


def test_layer_self_times_add_up_to_the_request_wall_time():
    selfs = bt.layer_self_times(TREE)
    assert selfs == {"bench": 10, "cli": 20, "sdp": 35, "matlin": 20,
                     "duality": 4, "quantum": 11}
    assert bt.attribution_errors(TREE, [100.5]) == []


def test_attribution_flags_spans_outside_requests_and_missing_time():
    stray = TREE + [span("sdp.solve", "sdp", 110, 120, -1)]
    errors = bt.attribution_errors(stray, [100.0])
    assert any("span 9 (sdp.solve) lies outside any request" in e for e in errors)
    assert any("sum to 110" in e for e in errors)
    # A request whose span covers only part of its independently timed wall.
    assert bt.attribution_errors(TREE, [120.0]) == [
        "layer self times sum to 100.0 s, the requests took 120.0 s"]
    assert bt.attribution_errors(TREE, [50.0, 50.0]) == [
        "1 request spans for 2 requests"]


def test_own_layer_time_keeps_same_layer_children():
    own = bt.own_layer_times(TREE)
    # sdp.solve: 50 long, minus the 10 of eig and the 5 of is_psd below
    # its same-layer child.
    assert own[2] == 35
    assert own[4] == 10
    assert own[1] == 20


def test_nesting_errors_flag_escaping_and_overlapping_children():
    assert bt.nesting_errors(TREE) == []
    bad = list(TREE)
    bad[3] = span("matlin.eig_hermitian", "matlin", 5, 30, 2)  # starts before parent
    bad[4] = span("sdp.BlockSdpProblem", "sdp", 25, 50, 2)  # overlaps eig
    errors = bt.nesting_errors(bad)
    assert any("outside parent 2" in e for e in errors)
    assert any("overlaps" in e for e in errors)


def test_recorder_links_parents_and_instances():
    ticks = itertools.count()
    rec = bt.Recorder(clock=lambda: float(next(ticks)))
    rec.active = True
    rec.instance = 7
    with rec.span("outer", "bench"):
        with rec.span("inner", "sdp"):
            pass
    assert rec.spans == [span("outer", "bench", 0, 3, -1, 7),
                         span("inner", "sdp", 1, 2, 0, 7)]


def test_instrument_traces_every_binding_and_restores():
    original = wpduality.quantum.coherence_rel_ent
    rec = bt.Recorder()
    restore = bt.instrument(wpduality, rec, trace=True)
    try:
        assert duality.coherence_rel_ent is not original
        t0 = time.perf_counter()
        with rec.span(bt.REQUEST, bt.BENCH):
            cfg = discrimination.random_config(3, 3, 5)
            duality.all_checks(cfg, discrimination.discriminate(cfg, 0.1))
        wall = time.perf_counter() - t0
    finally:
        restore()
    assert duality.coherence_rel_ent is original
    assert wpduality.quantum.coherence_rel_ent is original
    names = {s.name for s in rec.spans}
    assert {"sdp.solve", "duality.all_checks", "quantum.coherence_rel_ent",
            "matlin.eig_hermitian", "quantum.InterferometerConfig"} <= names
    assert bt.nesting_errors(rec.spans) == []
    assert bt.attribution_errors(rec.spans, [wall]) == []
    kinds = [kind for kind, _, _ in rec.events]
    assert kinds == ["solve", "checks"]


@pytest.fixture(scope="module")
def solved():
    cfg = discrimination.random_config(4, 4, 11)
    problem = sdp.build_problem(cfg, 0.1)
    sol = sdp.solve(problem)
    p_f = sol.objective
    p_e = min(sol.error_used, 1.0 - p_f)
    outcome = discrimination.DiscriminationOutcome(
        p_success=1.0 - p_e - p_f, p_error=p_e, p_failure=p_f, method="sdp")
    return problem, sol, duality.all_checks(cfg, outcome)


def test_gate_accepts_a_solved_instance(solved):
    problem, sol, reports = solved
    assert solve_failures(SolveRecord(problem, sol, reports)) == []


def test_gate_rejects_a_negative_slack_eigenvalue(solved):
    problem, sol, reports = solved
    n = problem.block_count
    slack = sol.slack_psd - 1e-5 * np.eye(n)  # lowest eigenvalue below -1e-7
    bad = dataclasses.replace(sol, slack_psd=slack)
    reasons = solve_failures(SolveRecord(problem, bad, reports))
    assert len(reasons) == 1 and reasons[0].startswith("slack eigenvalue")


def test_gate_rejects_an_overspent_budget(solved):
    problem, sol, reports = solved
    bad = dataclasses.replace(sol, error_used=problem.error_budget + 1e-6)
    reasons = solve_failures(SolveRecord(problem, bad, reports))
    assert len(reasons) == 1 and reasons[0].startswith("error used")


def test_gate_rejects_breakdowns_other_statuses_and_violations(solved):
    problem, sol, reports = solved
    error = sdp.NumericalBreakdownError("iterate left the PSD cone")
    assert solve_failures(SolveRecord(problem, error)) == [
        "NumericalBreakdownError: iterate left the PSD cone"]
    stalled = dataclasses.replace(sol, status="max-iterations")
    assert solve_failures(SolveRecord(problem, stalled)) == ["status 'max-iterations'"]
    violated = [dataclasses.replace(reports[0], slack=-1e-3, satisfied=False)]
    assert solve_failures(SolveRecord(problem, sol, violated))[0].startswith(
        "duality violation")
    assert solve_failures(SolveRecord(problem, sol)) == [
        "no duality checks ran on the outcome"]


def test_holevo_check_and_event_pairing():
    assert holevo_failure(1.0, 1.0 + 5e-7) == []
    assert holevo_failure(1.0 + 2e-6, 1.0) != []
    events = [("solve", ("p1",), "s1"), ("checks", (), ["r1"]), ("solve", ("p2",), "s2")]
    records = pair_events(events)
    assert [(r.problem, r.result, r.reports) for r in records] == [
        ("p1", "s1", ["r1"]), ("p2", "s2", None)]
    with pytest.raises(RuntimeError):
        pair_events([("checks", (), [])])
