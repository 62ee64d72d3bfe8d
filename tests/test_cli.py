import json
import math
import os

import numpy as np
import pytest

from wpduality import cli, discrimination as disc, duality, matlin, quantum, sdp

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def write_instance(path, priors, gram_re, gram_im=None, budget=None):
    payload = {"priors": priors, "gram_re": gram_re}
    if gram_im is not None:
        payload["gram_im"] = gram_im
    if budget is not None:
        payload["error_budget"] = budget
    with open(path, "w") as fh:
        json.dump(payload, fh)


class TestFigure1:
    def test_curves_match_closed_form(self, tmp_path):
        out = tmp_path / "f1.csv"
        rc = cli.main(["figure1", "--grid", "41", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n_paths", "overlap", "D", "C"]
        assert len(rows) == 4 * 41
        # values round-trip through 12 significant digits in the file
        for n_s, c_s, d_s, coh_s in rows:
            n, c, d, coh = int(n_s), float(c_s), float(d_s), float(coh_s)
            assert d == pytest.approx(1.0 - c, abs=1e-11)
            expected = disc.symmetric_coherence(disc.SymmetricConfig(n, c)) / math.log2(n)
            assert coh == pytest.approx(expected, abs=1e-11)
            assert d + coh <= 1.0 + 1e-10

    def test_endpoints(self, tmp_path):
        out = tmp_path / "f1.csv"
        cli.main(["figure1", "--grid", "3", "--n-paths", "2", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0] == ["2", "0", "1", "0"]   # c=0: D=1, C=0
        assert rows[-1] == ["2", "1", "0", "1"]  # c=1: D=0, C=1

    def test_json_format(self, tmp_path):
        out = tmp_path / "f1.json"
        cli.main(["figure1", "--grid", "3", "--n-paths", "2", "--format", "json",
                  "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"n_paths", "overlap", "D", "C"}

    def test_matches_golden(self, tmp_path):
        out = tmp_path / "f1.csv"
        cli.main(["figure1", "--grid", "5", "--n-paths", "2,4", "--out", str(out)])
        assert out.read_bytes() == open(
            os.path.join(GOLDEN, "figure1_small.csv"), "rb").read()


class TestFigure3:
    def test_endpoints_and_curve(self, tmp_path):
        out = tmp_path / "f3.csv"
        rc = cli.main(["figure3", "--grid", "21", "--n-paths", "4,256", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n_paths", "p", "D", "C"]
        first = [float(v) for v in rows[0][1:]]
        last = [float(v) for v in rows[20][1:]]
        assert first == pytest.approx([0.25, 0.0, 1.0], abs=1e-12)  # p=1/N
        assert last == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)    # p=1
        # N=256 curve hugs the duality boundary from below
        big = [(float(p), float(d), float(c)) for n, p, d, c in rows if n == "256"]
        for _, d, c in big:
            assert -1e-12 <= (1.0 - d) - c <= 0.02


    def test_matches_golden(self, tmp_path):
        out = tmp_path / "f3.csv"
        cli.main(["figure3", "--grid", "5", "--n-paths", "2,4,256", "--out", str(out)])
        assert out.read_bytes() == open(
            os.path.join(GOLDEN, "figure3_small.csv"), "rb").read()


class TestFigure2:
    def test_samples_satisfy_bound(self, tmp_path):
        out = tmp_path / "f2.csv"
        rc = cli.main([
            "figure2", "--ensemble", "3", "--n-paths", "2", "--grid", "5",
            "--error-budget", "0.05,0.2", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        samples = [r for r in rows if r[0] == "sample"]
        bounds = [r for r in rows if r[0] == "bound"]
        assert len(samples) == 3 * 2
        assert len(bounds) == 2 * 5
        for row in samples:
            record = dict(zip(header, row))
            assert record["status"] == "optimal"
            assert float(record["bound_lhs"]) >= float(record["C"]) - 1e-8

    def test_deterministic_bytes(self, tmp_path):
        args = ["figure2", "--ensemble", "2", "--n-paths", "2", "--grid", "3",
                "--error-budget", "0.1", "--seed", "31"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_matches_golden(self, tmp_path):
        """Labels and counts match the golden file exactly, numbers to 1e-9."""
        out = tmp_path / "f2.csv"
        assert cli.main(["figure2", "--n-paths", "2,3", "--ensemble", "3", "--grid", "4",
                         "--seed", "7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        golden_header, golden_rows = read_csv(os.path.join(GOLDEN, "figure2_small.csv"))
        assert header == golden_header
        assert len(rows) == len(golden_rows)
        exact = {"kind", "n_paths", "sample", "status"}
        for row, golden_row in zip(rows, golden_rows):
            for key, value, expected in zip(header, row, golden_row):
                if key in exact:
                    assert value == expected
                else:
                    assert float(value) == pytest.approx(float(expected), abs=1e-9,
                                                         nan_ok=True)

    def test_json_is_strict(self, tmp_path):
        """A value that is not defined is written as null, not as a bare NaN."""
        out = tmp_path / "f2.json"
        assert cli.main(["figure2", "--n-paths", "2", "--ensemble", "1", "--grid", "2",
                         "--error-budget", "0.4", "--format", "json", "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
        bounds = [row for row in rows if row["kind"] == "bound"]
        assert bounds and all(row["C"] is None for row in bounds)
        assert any(row["bound_lhs"] is None for row in bounds)  # P_e > 1 - P_f

    def test_breakdown_rows_carry_last_iterate(self, tmp_path):
        out = tmp_path / "f2.csv"
        rc = cli.main([
            "figure2", "--ensemble", "3", "--n-paths", "3", "--grid", "3",
            "--error-budget", "0.05", "--seed", "5", "--tol", "1e-13",
            "--out", str(out),
        ])
        assert rc == 3
        header, rows = read_csv(out)
        broken = [dict(zip(header, r)) for r in rows if r[-1] == "breakdown"]
        assert broken
        for record in broken:
            for key in ("p_e_used", "p_f", "bound_lhs"):
                assert math.isfinite(float(record[key]))


class TestSolve:
    def test_identity_instance(self, tmp_path):
        inst = tmp_path / "inst.json"
        write_instance(inst, [0.25] * 4, np.eye(4).tolist())
        out = tmp_path / "report.json"
        rc = cli.main(["solve", str(inst), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["satisfied_all"] is True
        assert report["discrimination"]["p_failure"] == pytest.approx(0.0, abs=1e-6)
        assert report["coherence"]["normalized"] == pytest.approx(0.0, abs=1e-9)
        assert report["solver"]["status"] == "optimal"
        assert {r["relation"] for r in report["duality"]} == {
            "usd-eq1", "error-margin-eq31", "error-margin-duality-eq32",
            "simplified-eq33",
        }

    def test_symmetric_instance_with_budget(self, tmp_path):
        n, c = 3, 0.4
        gram = ((1 - c) * np.eye(n) + c * np.ones((n, n))).tolist()
        inst = tmp_path / "inst.json"
        write_instance(inst, [1 / 3] * 3, gram, budget=0.05)
        out = tmp_path / "report.json"
        rc = cli.main(["solve", str(inst), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        expected = c - 2 * math.sqrt((1 - c) * 0.05 / 2) - 3 * 0.05 / 2
        assert report["discrimination"]["p_failure"] == pytest.approx(expected, abs=1e-5)

    def test_complex_instance(self, tmp_path):
        gram_re = [[1.0, 0.3], [0.3, 1.0]]
        gram_im = [[0.0, 0.4], [-0.4, 0.0]]
        inst = tmp_path / "inst.json"
        write_instance(inst, [0.5, 0.5], gram_re, gram_im)
        rc = cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_non_psd_instance_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        write_instance(inst, [0.5, 0.5], [[1.0, 1.001], [1.001, 1.0]])
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2

    @staticmethod
    def edge_gram(negative):
        """A 3-path unit-diagonal Gram matrix with eigenvalues near
        (1.6, 1.4, -negative) before rescaling to unit diagonal."""
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        g = q @ np.diag([1.6, 1.4 + negative, -negative]) @ q.T
        d = 1.0 / np.sqrt(np.diag(g))
        return d[:, None] * g * d[None, :]

    def test_instance_at_the_psd_edge(self, tmp_path):
        """The Gram matrix passes the PSD rule (lambda_min = -4.8e-10), and
        so does everything decomposed from it: the report's path entropy
        takes no second decision on the sign of its eigenvalues."""
        gram = self.edge_gram(2e-10)
        assert -1e-9 < np.linalg.eigvalsh(gram)[0] < -4e-10
        inst = tmp_path / "inst.json"
        write_instance(inst, [1 / 3] * 3, gram.tolist())
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(inst), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["satisfied_all"] is True

    def test_instance_beyond_the_psd_edge(self, tmp_path, capsys):
        gram = self.edge_gram(3e-9)
        assert np.linalg.eigvalsh(gram)[0] < -1e-9
        inst = tmp_path / "inst.json"
        write_instance(inst, [1 / 3] * 3, gram.tolist())
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2
        assert "matrix is not PSD" in capsys.readouterr().err

    def test_missing_field_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"priors": [0.5, 0.5]}))
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2

    def test_malformed_json_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text("{not json")
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2

    def test_unattainable_tolerance_exit_code(self, tmp_path):
        cfg = disc.random_config(3, 3, 0)
        inst = tmp_path / "inst.json"
        write_instance(inst, cfg.priors.tolist(), cfg.gram.real.tolist(),
                       cfg.gram.imag.tolist(), budget=0.05)
        assert cli.main(["solve", str(inst), "--tol", "1e-13",
                         "--out", str(tmp_path / "r.json")]) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("field,value", [
        ("error_budget", "abc"),
        ("error_budget", None),
        ("priors", "ab"),
        ("gram_re", [[1.0, 0.2], [0.2]]),
        ("error_budget", 1.5),
        ("error_budget", -0.1),
        ("error_budget", True),
        ("priors", [True, False]),
        ("gram_re", [[True, 0.2], [0.2, 1.0]]),
        ("error_budget", "0.1"),
        ("priors", ["0.5", "0.5"]),
        ("gram_re", [[1.0, "0.2"], [0.2, 1.0]]),
        pytest.param("error_budget", 10**400, id="error_budget-int-beyond-float"),
    ])
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, value):
        payload = {"priors": [0.5, 0.5], "gram_re": [[1.0, 0.2], [0.2, 1.0]]}
        payload[field] = value
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(payload))
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("depth,message", [
        (900, "'gram_re' is not numeric"),  # json reads it; numpy has at most 64 axes
        (3000, "nests too deeply"),  # json's decoder itself runs out of recursion
    ])
    def test_deeply_nested_field_exit_code(self, tmp_path, capsys, depth, message):
        inst = tmp_path / "inst.json"
        inst.write_text('{"priors": [0.5, 0.5], "gram_re": ' + "[" * depth + "1.0"
                        + "]" * depth + "}")
        assert cli.main(["solve", str(inst), "--out", str(tmp_path / "r.json")]) == 2
        assert message in capsys.readouterr().err

    def test_error_budget_takes_one_number(self, tmp_path):
        inst = tmp_path / "inst.json"
        write_instance(inst, [0.5, 0.5], [[1.0, 0.2], [0.2, 1.0]])
        assert cli.main(["solve", str(inst), "--error-budget", "0.1,0.2",
                         "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("value", ["2", "-0.1", "nan"])
    def test_error_budget_out_of_range_exit_code(self, tmp_path, capsys, value):
        inst = tmp_path / "inst.json"
        write_instance(inst, [0.5, 0.5], [[1.0, 0.2], [0.2, 1.0]])
        assert cli.main(["solve", str(inst), "--error-budget", value,
                         "--out", str(tmp_path / "r.json")]) == 2
        assert "--error-budget" in capsys.readouterr().err


class TestScan:
    def test_zero_violations_and_exit_code(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = cli.main(["scan", "--ensemble", "3", "--n-paths", "3", "--seed", "17",
                       "--error-budget", "0,0.1", "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["violations_total"] == 0
        assert summary["solver"]["statuses"] == {"optimal": 6}
        assert set(summary["relations"]) == {
            "usd-eq1", "error-margin-eq31", "error-margin-duality-eq32",
            "simplified-eq33",
        }
        for entry in summary["relations"].values():
            assert entry["violations"] == 0
            assert entry["min_slack"] >= -1e-8

    def test_deterministic_summary(self, tmp_path):
        args = ["scan", "--ensemble", "2", "--n-paths", "2", "--seed", "5",
                "--error-budget", "0,0.05"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_golden_summary(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = cli.main(["scan", "--ensemble", "4", "--n-paths", "2,3", "--seed", "99",
                       "--error-budget", "0,0.1", "--out", str(out)])
        assert rc == 0
        produced = json.loads(out.read_text())
        golden = json.loads(open(os.path.join(GOLDEN, "scan_seed99.json")).read())
        assert set(produced) == set(golden)
        assert produced["relations"].keys() == golden["relations"].keys()
        for name, entry in golden["relations"].items():
            assert produced["relations"][name]["checks"] == entry["checks"]
            assert produced["relations"][name]["violations"] == entry["violations"]
            assert produced["relations"][name]["min_slack"] == pytest.approx(
                entry["min_slack"], abs=1e-9)

    def test_min_coherence_filter(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = cli.main(["scan", "--ensemble", "2", "--n-paths", "2", "--seed", "3",
                       "--error-budget", "0", "--min-coherence", "0.3",
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["min_coherence"] == 0.3
        assert summary["total_checks"] > 0

    def test_breakdown_status_and_exit_code(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = cli.main(["scan", "--n-paths", "3,4", "--ensemble", "3", "--seed", "5",
                       "--tol", "1e-13", "--out", str(out)])
        assert rc == 3
        solver = json.loads(out.read_text())["solver"]
        assert solver["statuses"]["breakdown"] > 0
        assert solver["iterations_max"] > 0

    @pytest.mark.parametrize("command,flag,value", [
        ("scan", "--n-paths", "x"),
        *[(command, "--n-paths", value)
          for command in ("figure1", "figure2", "figure3", "scan") for value in ("0", "1", "3,1")],
        *[(command, "--grid", value)
          for command in ("figure1", "figure2", "figure3") for value in ("0", "-1")],
        ("scan", "--seed", "-1"),
        ("figure2", "--seed", "-1"),
        *[(command, "--error-budget", value)
          for command in ("scan", "figure2") for value in ("0,2", "-0.1", "nan")],
    ])
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, monkeypatch, command, flag,
                                      value):
        """An out-of-range value is an input error (exit 2) naming its flag,
        raised before any solve, and no output file is written."""
        solves = []
        monkeypatch.setattr(sdp, "solve", lambda *args: solves.append(args))
        out = tmp_path / "out"
        argv = [command, flag, value, "--out", str(out)]
        if command in ("scan", "figure2"):
            argv += ["--ensemble", "1"]
        if flag != "--n-paths":
            argv += ["--n-paths", "2"]
        assert cli.main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
        assert not solves

    @pytest.mark.parametrize("command", ["scan", "figure2"])
    @pytest.mark.parametrize("bad_out", ["missing/out", ".", ""])
    def test_bad_out_exit_code(self, tmp_path, capsys, monkeypatch, command, bad_out):
        """An empty --out, one in a missing directory, or one naming a
        directory is an input error (exit 2) naming --out, found before any
        solve."""
        solves = []
        monkeypatch.setattr(sdp, "solve", lambda *args: solves.append(args))
        assert cli.main([command, "--n-paths", "2", "--ensemble", "1",
                         "--out", str(tmp_path / bad_out) if bad_out else ""]) == 2
        assert "--out" in capsys.readouterr().err
        assert not solves

    def test_sweep_solves_then_checks_in_order(self, tmp_path, monkeypatch):
        """Each solve is followed by the checks on its outcome, before the
        next solve: N by N, config by config, budget by budget."""
        events = []
        solve, all_checks = sdp.solve, duality.all_checks

        def recording_solve(problem, *args):
            events.append(("solve", problem.block_count, problem.error_budget))
            return solve(problem, *args)

        def recording_checks(*args):
            events.append(("checks",))
            return all_checks(*args)

        monkeypatch.setattr(sdp, "solve", recording_solve)
        monkeypatch.setattr(duality, "all_checks", recording_checks)
        assert cli.main(["scan", "--n-paths", "2,3", "--ensemble", "2",
                         "--error-budget", "0,0.1", "--out", str(tmp_path / "s.json")]) == 0
        expected = []
        for n in (2, 3):
            for _ in range(2):
                for pe in (0.0, 0.1):
                    expected += [("solve", n, pe), ("checks",)]
        assert events == expected

    @pytest.mark.parametrize("command", ["scan", "figure2"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_empty_ensemble_exit_code(self, tmp_path, command, value):
        # An empty ensemble checks nothing, so its summary would pass vacuously.
        assert cli.main([command, "--n-paths", "3", "--ensemble", value,
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["scan", "figure2", "solve"])
    @pytest.mark.parametrize("flag,value", [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--max-iter", "0"),
    ])
    def test_bad_solver_option_exit_code(self, tmp_path, command, flag, value):
        argv = [command, flag, value, "--out", str(tmp_path / "out")]
        if command == "solve":
            inst = tmp_path / "inst.json"
            write_instance(inst, [0.5, 0.5], [[1.0, 0.2], [0.2, 1.0]], budget=0.05)
            argv.insert(1, str(inst))
        else:
            argv += ["--n-paths", "3", "--ensemble", "1"]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("command", ["scan", "figure2"])
    @pytest.mark.parametrize("value", ["1.0", "-0.1", "nan"])
    def test_min_coherence_out_of_range_exit_code(self, tmp_path, command, value):
        # At 1.0 no config passes the filter, so sampling would never end.
        assert cli.main([command, "--n-paths", "3", "--ensemble", "1",
                         "--min-coherence", value,
                         "--out", str(tmp_path / "out")]) == 2


def write_config(path, cfg, budget=None):
    write_instance(path, cfg.priors.tolist(), cfg.gram.real.tolist(),
                   cfg.gram.imag.tolist(), budget)


def count_eig_calls(monkeypatch):
    """Patch ``matlin.eig_hermitian`` to record the shape of each call's matrix."""
    calls = []
    eig = matlin.eig_hermitian

    def counting_eig(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(matlin, "eig_hermitian", counting_eig)
    return calls


class TestSharedDecomposition:
    """Each configuration decomposes its detector Gram and its weighted Gram
    once, and every reader shares those two decompositions."""

    @pytest.mark.parametrize("budget", ["0", "0.05"])
    def test_two_decompositions_per_solve(self, tmp_path, monkeypatch, budget):
        inst = tmp_path / "inst.json"
        write_config(inst, disc.random_config(5, 5, 3))
        calls = count_eig_calls(monkeypatch)
        assert cli.main(["solve", str(inst), "--error-budget", budget,
                         "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("budgets", ["0.1", "0,0.01,0.1,0.3"])
    def test_two_decompositions_per_scan_config(self, tmp_path, monkeypatch, budgets):
        calls = count_eig_calls(monkeypatch)
        assert cli.main(["scan", "--n-paths", "2,4", "--ensemble", "3", "--seed", "8",
                         "--error-budget", budgets,
                         "--out", str(tmp_path / "s.json")]) == 0
        assert len(calls) == 2 * 2 * 3

    @pytest.mark.parametrize("n,dim", [(2, 2), (3, 3), (4, 4), (5, 5), (16, 16), (48, 4)])
    def test_shared_spectrum_is_bit_identical(self, tmp_path, n, dim):
        """Coherence, the report's S(rho_p) and the problem's spectrum equal
        what a fresh decomposition of rho_p gives, to the last bit."""
        for seed in range(4):
            cfg = disc.random_config(n, dim, seed)
            rho_p = quantum.path_density_matrix(cfg)
            eigenvalues = matlin.eig_hermitian(rho_p).eigenvalues
            s_path = quantum.von_neumann_entropy(rho_p)
            coherence = min(max(quantum.shannon_entropy(cfg.priors) - s_path, 0.0),
                            float(np.log2(n)))
            assert np.array_equal(sdp.build_problem(cfg, 0.05).spectrum.eigenvalues,
                                  eigenvalues)
            assert quantum.coherence_rel_ent(cfg) == coherence
            inst, out = tmp_path / f"inst-{seed}.json", tmp_path / f"r-{seed}.json"
            write_config(inst, cfg)
            assert cli.main(["solve", str(inst), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["entropies"]["path_von_neumann_bits"] == s_path
            assert report["coherence"]["rel_ent_bits"] == coherence
        own = sdp.BlockSdpProblem(cfg.weighted_gram, 0.0, cfg.n_paths).spectrum  # decomposed anew
        for dec in (cfg.gram_spectrum, cfg.weighted_spectrum, sdp.build_problem(cfg, 0.0).spectrum,
                    own):
            for array in (dec.eigenvalues, dec.eigenvectors):
                with pytest.raises(ValueError):
                    array[0] = 0.0
        with pytest.raises(ValueError):
            cfg.weighted_gram[0, 0] = 0.0


class TestLogging:
    def test_env_var_controls_level(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DUALITY_LOG", "debug")
        import logging
        logging.getLogger().handlers.clear()
        out = tmp_path / "f1.csv"
        assert cli.main(["figure1", "--grid", "3", "--n-paths", "2",
                         "--out", str(out)]) == 0
        assert logging.getLogger().level == logging.DEBUG
        logging.getLogger().handlers.clear()
        monkeypatch.setenv("DUALITY_LOG", "warning")
        assert cli.main(["figure1", "--grid", "3", "--n-paths", "2",
                         "--out", str(out)]) == 0
        assert logging.getLogger().level == logging.WARNING


class TestFlags:
    @pytest.mark.parametrize("command,flag,value", [
        ("figure1", "--tol", "1e-9"),
        ("figure1", "--seed", "3"),
        ("figure1", "--max-iter", "5"),
        ("figure3", "--tol", "1e-9"),
        ("figure3", "--seed", "3"),
        ("figure3", "--max-iter", "5"),
        ("solve", "--seed", "3"),
        ("solve", "--format", "json"),
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag, value):
        argv = [command, flag, value, "--out", str(tmp_path / "out")]
        if command == "solve":
            argv.insert(1, str(tmp_path / "inst.json"))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_reused_parser_keeps_no_state(self, tmp_path, monkeypatch):
        """One parser serves every call in a process, and no call's flags
        carry over to the next."""
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        inst = tmp_path / "inst.json"
        write_config(inst, disc.random_config(4, 4, 2), budget=0.05)
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        cli._parser.cache_clear()
        try:
            assert cli.main(["solve", str(inst), "--out", str(first)]) == 0
            assert cli.main(["solve", str(inst), "--tol", "1e-9", "--max-iter", "3",
                             "--out", str(tmp_path / "capped.json")]) == 3
            with pytest.raises(SystemExit) as exc:
                cli.main(["solve", str(inst), "--no-such-flag"])
            assert exc.value.code == 2
            assert cli.main(["solve", str(inst), "--out", str(last)]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert last.read_bytes() == first.read_bytes()

    def test_rejection_sampling_is_bounded(self, tmp_path, monkeypatch, capsys):
        # Random N = 3 configs almost never reach normalized coherence 0.9.
        monkeypatch.setattr(cli, "MAX_REJECTED_DRAWS", 50)
        assert cli.main(["scan", "--n-paths", "3", "--ensemble", "1",
                         "--min-coherence", "0.9", "--out", str(tmp_path / "s.json")]) == 2
        assert "N = 3" in capsys.readouterr().err
