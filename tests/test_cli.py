import csv
import json
import math

import pytest

from tdesigncap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_pass_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "icosahedron",
                           "--lambda", "0.7", "--t", "5", "--spotchecks", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["certificate"]["verdict"] == "pass"

    def test_fail_exits_two(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "qubit_sic",
                           "--lambda", "1", "--t", "3", "--spotchecks", "0")
        assert code == 2
        assert json.loads(out)["result"]["certificate"]["verdict"] == "fail"

    def test_uniform_analytic_route(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "uniform", "--dim", "3", "--t", "3")
        assert code == 0
        cert = json.loads(out)["result"]["certificate"]
        assert cert["verdict"] == "pass"
        assert "analytic" in cert["notes"]

    def test_uniform_verify_without_dim(self, capsys):
        # the analytic verdict is dimension-independent, so --dim is optional
        code, out, _ = run(capsys, "verify", "--family", "uniform", "--t", "3")
        assert code == 0
        assert json.loads(out)["result"]["certificate"]["verdict"] == "pass"

    @pytest.mark.parametrize("argv", [
        ["--t", "0"], ["--t", "-4"], ["--dim", "3", "--t", "0"],
        ["--dim", "1", "--t", "2"], ["--dim", "3", "--lambda", "5", "--t", "2"],
        ["--dim", "3", "--lambda", "-0.6", "--t", "2"],
        ["--lambda", "5", "--t", "2"], ["--lambda", "-0.2", "--t", "2"]])
    def test_uniform_impossible_input_exits_one(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--family", "uniform", *argv)
        assert code == 1
        assert out == ""
        assert err

    def test_uniform_negative_lambda_admitted_with_dim(self, capsys):
        # [1/(1-d), 1] = [-0.5, 1] in d = 3
        code, out, _ = run(capsys, "verify", "--family", "uniform:3", "--lambda", "-0.4",
                           "--t", "2")
        assert code == 0
        assert json.loads(out)["result"]["spec"]["dim"] == 3

    def test_uniform_spec_file_takes_analytic_route(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "uniform", "dim": 3, "lambda": 0.5}))
        code, out, _ = run(capsys, "verify", "--spec", str(path), "--t", "4")
        assert code == 0
        assert json.loads(out)["result"]["certificate"]["verdict"] == "pass"
        path.write_text(json.dumps({"family": "uniform", "dim": 3, "lambda": 5}))
        code, _, err = run(capsys, "verify", "--spec", str(path), "--t", "4")
        assert code == 1
        assert "admissible interval" in err

    def test_malformed_spec_exits_one(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "not_a_family", "--t", "2")
        assert code == 1
        assert err

    def test_envelope_fields(self, capsys):
        _, out, _ = run(capsys, "verify", "--family", "qubit_sic", "--t", "2",
                        "--seed", "7", "--spotchecks", "0")
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["artifact_version"]
        assert payload["tolerances"]["span_residual"] == 1e-8


class TestCapacityCommand:
    def test_closed_form_hoggar(self, capsys):
        code, out, _ = run(capsys, "capacity", "--family", "hoggar", "--lambda", "1",
                           "--method", "closed")
        assert code == 0
        val = json.loads(out)["result"]["closed_form"]
        assert val == pytest.approx(0.575364, abs=1e-6)

    def test_bits_flag(self, capsys):
        _, out, _ = run(capsys, "capacity", "--family", "qubit_sic", "--lambda", "1",
                        "--method", "closed", "--bits")
        val = json.loads(out)["result"]["closed_form"]
        assert val == pytest.approx(math.log2(4 / 3), abs=1e-12)

    def test_both_reports_discrepancy(self, capsys):
        code, out, _ = run(capsys, "capacity", "--family", "qubit_mub", "--lambda", "0.5",
                           "--method", "both", "--tol", "1e-5")
        assert code == 0
        result = json.loads(out)["result"]

        # C_octa(1/2) = ln 2 - [eta(1/4) + 4 eta(1/2) + eta(3/4)]/3
        def eta(x):
            return -x * math.log(x)

        expected = math.log(2) - (eta(0.25) + 4 * eta(0.5) + eta(0.75)) / 3
        assert result["closed_form"] == pytest.approx(expected, abs=1e-12)
        assert abs(result["discrepancy"]) < 2e-3

    def test_uniform_closed(self, capsys):
        code, out, _ = run(capsys, "capacity", "--family", "uniform", "--dim", "2",
                           "--lambda", "0.5", "--method", "closed")
        assert code == 0
        assert json.loads(out)["result"]["closed_form"] > 0

    def test_uniform_oracle_refused_above_d8(self, capsys):
        code, _, err = run(capsys, "capacity", "--family", "uniform", "--dim", "9",
                           "--lambda", "0.5", "--method", "oracle")
        assert code == 1
        assert "d <= 8" in err


class TestBoundCommand:
    def test_icosahedron_all_t(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "icosahedron", "--lambda", "0.6")
        assert code == 0
        bounds = json.loads(out)["result"]["bounds"]
        assert [b["t"] for b in bounds] == [2, 3, 4, 5]
        vals = [b["value"] for b in bounds]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(len(b["nodes"]) > 0 for b in bounds)

    def test_t_zero_rejected(self, capsys):
        code, out, err = run(capsys, "bound", "--family", "icosahedron", "--t", "0")
        assert code == 1
        assert out == ""
        assert "[1, 5]" in err

    def test_t_beyond_strength_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--family", "qubit_sic", "--t", "4")
        assert code == 1
        assert "2-design" in err


class TestSpecFileAndPrecedence:
    def test_spec_file_with_flag_override(self, capsys, tmp_path):
        spec = {"family": "qubit_mub", "lambda": 1.0, "fiducial_phase": None}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        _, out, _ = run(capsys, "capacity", "--spec", str(path), "--lambda", "0.0",
                        "--method", "closed")
        # the flag lambda=0 overrides the file's lambda=1
        assert json.loads(out)["result"]["closed_form"] == pytest.approx(0.0, abs=1e-12)

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TDESIGN_SEED", "31337")
        _, out, _ = run(capsys, "build", "--family", "qubit_sic")
        assert json.loads(out)["seed"] == 31337

    def test_build_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "anti_sic:3", "--lambda", "0.5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n_elements"] == 9
        assert result["design_strength"] == 2

    def test_build_uniform_analytic(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "uniform", "--dim", "4")
        assert code == 0
        assert json.loads(out)["result"]["analytic"] is True

    def test_build_uniform_lambda_outside_interval(self, capsys):
        code, out, err = run(capsys, "build", "--family", "uniform", "--dim", "3",
                             "--lambda", "5")
        assert code == 1
        assert out == ""
        assert "admissible interval" in err


class TestSweepCommand:
    def test_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--families", "qubit_sic,uniform:2",
                         "--steps", "3", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "family,lambda,closed_form,C2,C3,C4,C5,oracle"
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 6
        sic_rows = [r for r in rows if r["family"] == "qubit_sic"]
        assert sic_rows[0]["C3"] == ""  # only a 2-design
        assert sic_rows[0]["oracle"] == ""
        uni_rows = [r for r in rows if r["family"] == "uniform:2"]
        assert uni_rows[-1]["C5"] != ""

    def test_rows_sorted_by_family_then_lambda(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--families", "qubit_mub,qubit_sic", "--steps", "2",
            "--out", str(out_path))
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        keys = [(r["family"], float(r["lambda"])) for r in rows]
        assert keys == sorted(keys)

    def test_deterministic_with_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "sweep", "--families", "qubit_sic", "--steps", "3",
                "--with-oracle", "--tol", "1e-4", "--seed", "5", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_steps_exit_one(self, capsys):
        code, _, err = run(capsys, "sweep", "--families", "qubit_sic", "--steps", "0")
        assert code == 1

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # missing --families
        assert exc.value.code == 1
