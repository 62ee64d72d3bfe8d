"""The solve-set gate, ``tools/solve_set.py``: ``compare`` on synthetic
records, each rule its docstring states on both sides of its threshold; the
timing summary on synthetic times; the call counts of one side; and a run on
a few solves that loads this checkout as both sides."""

import importlib.util
import os
import sys
from unittest import mock

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "solve_set.py")


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
    timings += [((32, 0.05), 2.0, 1.0), ((32, 0.05), 3.0, 4.0), ((32, 0.05), 4.0, 2.0)]
    summary = solve_set.timing_summary(timings)
    assert list(summary) == ["fast", "slow", (32, 0.05)]
    # ratios 0.25, 0.5, 1, 1, 2; then the medians of t_A and of t_B
    assert summary["fast"] == (0.5, 1.0, 1.0, 5, 1.0, 1.0)
    assert summary["slow"] == (1.5, 2.0, 2.5, 2, 2.0, 1.0)
    # A latency row's key is (N, budget); its ratios are 2, 0.75, 2.
    assert summary[32, 0.05] == (1.375, 2.0, 2.0, 3, 3.0, 2.0)
    # Each mix of the set in order of first appearance, and how many of its
    # solves the timings hold: scan-small's P_e = 0 and P_e > 0 rows apart.
    counts = {}
    for inst in solve_set.instances():
        counts[solve_set.mix(inst)] = counts.get(solve_set.mix(inst), 0) + 1
    assert counts == {"N=2-5 P_e=0 (scan-small)": 720, "N=2-5 P_e>0 (scan-small)": 2160,
                      "N=16 P_e=0 (solve-large-usd)": 3,
                      "N=16 P_e>0 (solve-large-margin)": 9, "N=48 rank 4 (lowrank-wide)": 12}


def test_same_checkout_twice_matches(solve_set, monkeypatch, capsys):
    """Both package names load from one checkout, every record matches, and
    the latency rows and the large line print for both sides."""
    few = [(2, 2, seed, budget, 1e-7) for seed in range(2) for budget in (0.0, 0.3)]
    monkeypatch.setattr(solve_set, "instances", lambda: iter(few))
    monkeypatch.setattr(solve_set, "SIZES", (2,))
    monkeypatch.setattr(solve_set, "LARGE", (4, 0.5))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    with mock.patch.dict(sys.modules):
        assert solve_set.main([ROOT, ROOT]) == 0
        assert sys.modules["wpduality_a"] is not sys.modules["wpduality_b"]
    out = capsys.readouterr().out
    assert "4/4 records of B equal A's in every field" in out
    for row in ("N=2-5 P_e=0 (scan-small)", "N=2-5 P_e>0 (scan-small)"):
        assert any(row in line and "over 2 solves" in line for line in out.splitlines())
    for budget in ("0   ", "0.05"):
        row = next(line for line in out.splitlines() if f"N =  2, P_e = {budget}:" in line)
        its_a, its_b = row.split("iterations ")[1].split(", calls/iter")[0].split(" | ")
        calls_a, calls_b = row.split("calls/iter ")[1].split(" | ")
        assert its_a == its_b and len(its_a.split("/")) == 3 and calls_a == calls_b
    for side in "AB":
        assert f"{side}: symmetric N = 4, c = 0.5, P_e = 0 optimal: solve " in out
    assert "0 failures" in out


def test_calls_counted_through_each_sides_own_matlin(solve_set, monkeypatch):
    """The factorizations and solves are A's own binding's ``zgetrf`` and
    ``zgetrs`` calls: one and two an iteration at N = 8, P_e = 0.05, where
    the Schur matrix has order 64 (none where numpy links no binding), and
    none at N = 2, where numpy factors it.  B's binding is not looked up,
    and A's is restored afterwards."""
    with mock.patch.dict(sys.modules):
        package_a = solve_set.load(ROOT, "wpduality_a")
        package_b = solve_set.load(ROOT, "wpduality_b")
        lapack_a = package_a.matlin._lapack
        expected = ("1/2" if lapack_a() else "0/0", "0/0")
        b_calls = []
        monkeypatch.setattr(package_b.matlin, "_lapack", lambda: b_calls.append(None))
        large = solve_set.calls_per_iteration(package_a, 8, 0.05).split()[1]
        small = solve_set.calls_per_iteration(package_a, 2, 0.05).split()[1]
    assert (large, small) == expected
    assert not b_calls
    assert package_a.matlin._lapack is lapack_a


def test_certificate_counted_through_each_sides_own_matlin(solve_set, monkeypatch):
    """The last field counts the matrices A's ``matlin.cholesky_succeeds``
    factors, at N = 12 where the step lengths call it; B's is not called, and
    A's is restored."""
    with mock.patch.dict(sys.modules):
        package_a = solve_set.load(ROOT, "wpduality_a")
        package_b = solve_set.load(ROOT, "wpduality_b")
        succeeds_a = package_a.matlin.cholesky_succeeds
        b_calls = []
        monkeypatch.setattr(package_b.matlin, "cholesky_succeeds", lambda a: b_calls.append(a))
        certified = solve_set.calls_per_iteration(package_a, 12, 0.05).split()[-1]
        assert package_a.matlin.cholesky_succeeds is succeeds_a
    assert float(certified) == 2 * 2 * 13  # two calls an iteration, each on 2 x 13 blocks
    assert not b_calls
