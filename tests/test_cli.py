import csv
import json
import math
import os
import re
import subprocess
import sys
import weakref

import pytest

from tdesigncap.cli import main, make_parser


UNIFORM_ORACLE_REFUSAL = ("tdesigncap: error: oracle for the uniform family is limited to d = 2"
                          " (at d >= 3 its discretized POVM is a different measurement)\n")


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

    @pytest.mark.parametrize("family", ["qubit_sic", "uniform:3"])
    def test_negative_spotchecks_exit_one(self, capsys, family):
        code, out, err = run(capsys, "verify", "--family", family, "--t", "2",
                             "--spotchecks", "-3")
        assert (code, out) == (1, "")
        assert "n_spotchecks must be >= 0, got -3" in err

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
        code, out, err = run(capsys, "capacity", "--family", "uniform", "--dim", "9",
                             "--lambda", "0.5", "--method", "oracle")
        assert (code, out, err) == (1, "", UNIFORM_ORACLE_REFUSAL)

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_oracle_tolerance_exits_one(self, capsys, tol):
        # tol = nan once printed the flat grid's rate, 5.4e-3 below the closed form, with exit 0
        code, out, err = run(capsys, "capacity", "--family", "qubit_sic", "--lambda", "0.5",
                             "--method", "oracle", "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tolerance must be finite and positive" in err


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

    def test_uniform_refusal_names_the_ct_limit(self, capsys):
        # uniform is a design for every t: only C_t's own range refuses t = 6
        code, out, err = run(capsys, "bound", "--family", "uniform", "--dim", "2", "--t", "6")
        assert code == 1
        assert out == ""
        assert "C_t is computed for t in [1, 5]" in err
        assert "5-design" not in err


    @pytest.mark.parametrize("argv", [
        ["bound", "--family", "qubit_sic", "--dim", "3", "--lambda", "0.5"],
        ["build", "--family", "qubit_sic", "--dim", "5"],
        ["capacity", "--family", "hoggar_sic:2"]])
    def test_dim_contradicting_the_family_exits_one(self, capsys, argv):
        # qubit_sic at --dim 3 used to give the d = 3 bound of the d = 2 moments
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "is cataloged for dim in" in err


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

    @pytest.mark.parametrize("families", [",", ""])
    def test_empty_family_list_exit_one(self, capsys, families):
        code, out, err = run(capsys, "sweep", "--families", families, "--steps", "2")
        assert (code, out) == (1, "")
        assert "no family given" in err

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # missing --families
        assert exc.value.code == 1


class TestParserReuse:
    """The parser is built once per process; each call still parses only its own argv."""

    CALLS = [["bound", "--family", "icosahedron", "--lambda", "0.5", "--bits"],
             ["capacity", "--family", "qubit_sic", "--lambda", "0.3"],
             ["bound", "--family", "qubit_mub", "--t", "2"]]

    @staticmethod
    def _fresh_process(argv):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("TDESIGN_SEED", None)
        done = subprocess.run([sys.executable, "-m", "tdesigncap.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    def test_built_once(self):
        assert make_parser() is make_parser()

    def test_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("TDESIGN_SEED", raising=False)
        in_process = [run(capsys, *argv)[:2] for argv in self.CALLS]
        assert in_process == [self._fresh_process(argv) for argv in self.CALLS]
        # flags of an earlier call do not leak into a later one
        results = [json.loads(out)["result"] for _, out in in_process]
        assert [r["units"] for r in results] == ["bits", "nats", "nats"]
        assert [r["spec"]["lambda"] for r in results] == [0.5, 0.3, 1.0]


class TestAdmissibleLambda:
    """Every family takes lambda only in its admissible interval, `bound` included."""

    @pytest.mark.parametrize("family,lam", [
        ("qutrit_sic", "-0.6"), ("qutrit_mub", "-0.9"), ("hoggar_sic", "-0.2"),
        ("qubit_sic", "1.02"), ("qutrit_sic", "nan"), ("icosahedron", "inf")])
    def test_bound_outside_the_interval_exits_one(self, capsys, family, lam):
        # these printed a C_2 for elements that are not positive, or failed in the quadrature
        code, out, err = run(capsys, "bound", "--family", family, "--lambda", lam)
        assert (code, out) == (1, "")
        assert "admissible interval" in err

    def test_bound_refuses_with_the_message_of_build(self, capsys):
        argv = ["--family", "hoggar_sic", "--lambda", "-0.2"]
        assert run(capsys, "bound", *argv) == run(capsys, "build", *argv)

    @pytest.mark.parametrize("family,lam,c2", [
        ("qutrit_sic", "-0.5", 0.11778303565638293),
        ("anti_sic:3", "-2", 0.4054651081081645),  # ln(3/2)
        ("qubit_sic", "-1", 0.2876820724517808),  # ln(4/3)
        ("hoggar_sic", repr(-1 / 7), 0.015748356968139365)])
    def test_endpoints_stay_admitted(self, capsys, family, lam, c2):
        code, out, _ = run(capsys, "bound", "--family", family, "--lambda", lam)
        assert code == 0
        assert json.loads(out)["result"]["bounds"][0]["value"] == pytest.approx(c2, rel=1e-12)


class TestOneEvaluationPath:
    """`capacity`, `bound` and `sweep` share the t rule, the oracle inputs and the builds."""

    SWEEP = ["sweep", "--families", "qubit_sic,qutrit_mub", "--steps", "3", "--with-oracle",
             "--tol", "1e-4", "--seed", "5"]

    def test_t_above_the_design_strength(self, capsys):
        code, out, err = run(capsys, "bound", "--family", "qubit_sic", "--t", "3")
        assert (code, out) == (1, "")
        assert "is only a 2-design" in err
        code, out, _ = run(capsys, "bound", "--family", "uniform:3", "--t", "6")
        assert (code, out) == (1, "")

    def test_uniform_oracle_refused_above_d8(self, capsys):
        code, out, err = run(capsys, "capacity", "--family", "uniform:9", "--method", "oracle")
        assert (code, out, err) == (1, "", UNIFORM_ORACLE_REFUSAL)

    @pytest.mark.parametrize("token", ["uniform:3", "uniform:8", "uniform:9"])
    @pytest.mark.parametrize("argv", [["capacity", "--lambda", "0.5", "--method", "oracle"],
                                      ["capacity", "--lambda", "0.5", "--method", "both"],
                                      ["sweep", "--steps", "2", "--with-oracle"]],
                             ids=["oracle", "both", "sweep"])
    def test_uniform_oracle_refused_above_d2(self, capsys, monkeypatch, argv, token):
        # at d >= 3 the discretized POVM is another measurement: uniform:3 once printed a
        # rate 0.0126 above the uniform capacity, with exit 0
        from tdesigncap import oracle

        monkeypatch.setattr(oracle, "informational_power", lambda *a, **k: pytest.fail("ran"))
        flag = "--families" if argv[0] == "sweep" else "--family"
        code, out, err = run(capsys, *argv, flag, token)
        assert (code, out, err) == (1, "", UNIFORM_ORACLE_REFUSAL)

    def test_sweep_rows_match_capacity_and_bound(self, capsys):
        code, out, _ = run(capsys, *self.SWEEP)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 6

        def g12(v):
            return f"{v:.12g}"

        for i, family in enumerate(["qubit_sic", "qutrit_mub"]):
            for row in (r for r in rows if r["family"] == family):
                spec = ["--family", family, "--lambda", row["lambda"]]
                _, out, _ = run(capsys, "capacity", *spec, "--method", "closed")
                assert row["closed_form"] == g12(json.loads(out)["result"]["closed_form"])
                _, out, _ = run(capsys, "bound", *spec)
                for b in json.loads(out)["result"]["bounds"]:
                    assert row[f"C{b['t']}"] == g12(b["value"])
                _, out, _ = run(capsys, "capacity", *spec, "--method", "oracle", "--tol", "1e-4",
                                "--seed", str(5 + 7919 * i))
                assert row["oracle"] == g12(json.loads(out)["result"]["oracle"])

    def test_sweep_drops_each_base_after_its_last_row(self, capsys, monkeypatch):
        from tdesigncap import oracle

        grids, alive = [], []
        real = oracle.default_grid

        def recorded(*args, **kwargs):
            alive.append([ref() is not None for ref in grids])
            grid = real(*args, **kwargs)
            grids.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(oracle, "default_grid", recorded)
        code, _, _ = run(capsys, "sweep", "--families", "qubit_sic,qutrit_mub,qubit_mub,qubit_sic",
                         "--steps", "2", "--with-oracle", "--tol", "1e-4", "--seed", "5")
        assert code == 0
        # the repeated qubit_sic reuses its rows: each grid is gone before the next is built
        assert alive == [[], [False], [False, False]]
        assert [ref() for ref in grids] == [None, None, None]

    def test_sweep_refuses_before_any_oracle_row(self, capsys, monkeypatch):
        from tdesigncap import oracle

        solved = []
        real = oracle.informational_power
        monkeypatch.setattr(oracle, "informational_power",
                            lambda *args, **kwargs: solved.append(1) or real(*args, **kwargs))
        code, out, err = run(capsys, "sweep", "--families", "qubit_sic,uniform:9",
                             "--with-oracle")
        assert (code, out, err) == (1, "", UNIFORM_ORACLE_REFUSAL)
        assert solved == []

    def test_sweep_builds_each_family_once(self, capsys, monkeypatch):
        from tdesigncap import catalog

        built = []
        real_build = catalog.build
        monkeypatch.setattr(catalog, "build", lambda spec: built.append(spec) or real_build(spec))
        code, _, _ = run(capsys, *self.SWEEP)
        assert code == 0
        assert sorted(spec.family for spec in built) == ["qubit_sic", "qutrit_mub"]


class TestBase:
    """The lambda = 1 base of each of the 12 sweep tokens, which every subcommand reads."""

    TOKENS = ["qubit_sic", "qubit_mub", "icosahedron", "uniform:2", "anti_sic:2", "qutrit_sic",
              "qutrit_mub", "uniform:3", "anti_sic:3", "hoggar_sic", "uniform:8", "anti_sic:8"]

    @staticmethod
    def _spec(token, lam):
        from tdesigncap import catalog

        family, _, dim = token.partition(":")
        fields = {"family": family, "lambda": lam, **({"dim": int(dim)} if dim else {})}
        return catalog.spec_from_json_dict(fields)

    @pytest.mark.parametrize("token", TOKENS)
    def test_moments_set_and_refusals(self, token):
        from tdesigncap import bounds, catalog, verify
        from tdesigncap.cli import _Base

        base = _Base(self._spec(token, 1.0))
        family = token.partition(":")[0]
        if family == "uniform":
            assert base.eset is None
            assert base.mv.values == (1.0,) * bounds.MAX_T
        else:
            assert base.mv == verify.moments(catalog.build(self._spec(token, 1.0)), bounds.MAX_T)
            half = self._spec(token, 0.5)
            assert catalog.depolarize(_Base(half).eset, 0.5) == catalog.build(half)
        d = base.dim
        lo = 1.0 - d if family == "anti_sic" else 1.0 / (1.0 - d)
        for lam in (lo - 0.25, 1.25):
            message = f"lambda={lam} outside admissible interval [{lo:.6g}, 1] for {family}"
            with pytest.raises(catalog.LambdaRangeError, match=f"^{re.escape(message)}$"):
                _Base(self._spec(token, lam))
