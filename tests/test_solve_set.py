"""The solve-set gate, ``tools/solve_set.py``: ``compare`` on synthetic
records, each rule its docstring states on both sides of its threshold; the
timing summary on synthetic times; and a run on a few solves that loads this
checkout as both sides."""

import importlib.util
import os
import sys
from unittest import mock

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "solve_set.py")


@pytest.fixture(scope="module")
def solve_set():
    # The tool pins the BLAS environment when loaded; keep it as it was for
    # the rest of the test process.
    spec = importlib.util.spec_from_file_location("solve_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def record(seed=0, tol=1e-7, status="optimal", iterations=9, **values):
    rec = {"n": 2, "dim": 2, "seed": seed, "budget": 0.0, "tol": tol,
           "status": status, "iterations": iterations,
           "objective": repr(0.5), "dual_objective": repr(0.5), "gap": repr(1e-9),
           "error_used": repr(0.0), "min_slack": repr(1e-12)}
    rec.update(values)
    return rec


def tight_set(optimal):
    """100 tol-1e-12 records, the first ``optimal`` of them optimal."""
    return [record(seed=s, tol=1e-12, status="optimal" if s < optimal else "breakdown")
            for s in range(100)]


def test_identical_records_pass(solve_set):
    records = [record(seed=s) for s in range(3)] + tight_set(50)
    assert solve_set.compare(records, [dict(r) for r in records]) == []


@pytest.mark.parametrize("change", [{"status": "breakdown"}, {"iterations": 10}])
def test_checked_tolerance_status_or_iterations_change_fails(solve_set, change):
    assert solve_set.compare([record(**change)], [record()])


@pytest.mark.parametrize("move,fails", [(2e-9, True), (5e-10, False)])
def test_value_move_threshold(solve_set, move, fails):
    moved = record(objective=repr(0.5 + move))
    assert bool(solve_set.compare([moved], [record()])) == fails


@pytest.mark.parametrize("old,new,fails", [
    ("nan", "nan", False), ("nan", repr(0.5), True), (repr(0.5), "nan", True),
])
def test_nan_values(solve_set, old, new, fails):
    assert bool(solve_set.compare([record(gap=new)], [record(gap=old)])) == fails


@pytest.mark.parametrize("drop,fails", [(21, True), (20, False)])
def test_tight_tolerance_optimal_count_drop(solve_set, drop, fails):
    assert bool(solve_set.compare(tight_set(60 - drop), tight_set(60))) == fails


def test_record_missing_from_baseline_fails(solve_set):
    failures = solve_set.compare([record(seed=0), record(seed=1)], [record(seed=0)])
    assert len(failures) == 1 and "not in the baseline" in failures[0]


def test_wrong_argument_count_prints_usage(solve_set, capsys):
    assert solve_set.main(["only-one-dir"]) == 2
    assert capsys.readouterr().err.strip() == solve_set.USAGE


def test_timing_summary_per_mix(solve_set):
    timings = [("fast", 1.0, t_b) for t_b in (0.5, 1.0, 2.0, 4.0, 1.0)]
    timings += [("slow", 3.0, 1.0), ("slow", 1.0, 1.0)]
    summary = solve_set.timing_summary(timings)
    assert list(summary) == ["fast", "slow"]
    assert summary["fast"] == (0.5, 1.0, 1.0, 5)  # ratios 0.25, 0.5, 1, 1, 2
    assert summary["slow"] == (1.5, 2.0, 2.5, 2)
    # Each mix of the set in order of first appearance, and how many of its
    # solves the timings hold: scan-small's P_e = 0 and P_e > 0 rows apart.
    counts = {}
    for inst in solve_set.instances():
        counts[solve_set.mix(inst)] = counts.get(solve_set.mix(inst), 0) + 1
    assert counts == {"N=2-5 P_e=0 (scan-small)": 720, "N=2-5 P_e>0 (scan-small)": 2160,
                      "N=16 P_e=0 (solve-large-usd)": 3,
                      "N=16 P_e>0 (solve-large-margin)": 9, "N=48 rank 4 (lowrank-wide)": 12}


def test_same_checkout_twice_matches(solve_set, monkeypatch, capsys):
    """Both package names load from one checkout and every record matches."""
    few = [(2, 2, seed, budget, 1e-7) for seed in range(2) for budget in (0.0, 0.3)]
    monkeypatch.setattr(solve_set, "instances", lambda: iter(few))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    root = os.path.dirname(os.path.dirname(TOOL))
    with mock.patch.dict(sys.modules):
        assert solve_set.main([root, root]) == 0
        assert sys.modules["wpduality_a"] is not sys.modules["wpduality_b"]
    out = capsys.readouterr().out
    assert "4/4 records of B equal A's in every field" in out
    for row in ("N=2-5 P_e=0 (scan-small)", "N=2-5 P_e>0 (scan-small)"):
        assert any(row in line and "over 2 solves" in line for line in out.splitlines())
    assert "0 failures" in out
