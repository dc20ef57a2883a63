"""tools/cli_diff.py on synthetic records, and its in-process runner."""

import importlib.util
import json
import pathlib
import re
import sys

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
if str(_TOOLS) not in sys.path:
    sys.path.insert(0, str(_TOOLS))  # cli_diff imports bench_pairs as its sibling
_SPEC = importlib.util.spec_from_file_location("cli_diff", _TOOLS / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)

ARGVS = [["build", "--family", "qubit_sic"], ["bound", "--family", "hoggar_sic"],
         ["sweep", "--families", "qubit_sic"]]
PARENT = [[0, '{\n  "a": 1\n}\n', ""], [0, '{\n  "c2": 0.03\n}\n', ""], [0, "family\n", ""]]


class TestDifferences:
    def test_identical_records_report_nothing(self):
        assert cli_diff.differences(ARGVS, PARENT, [list(r) for r in PARENT]) == []

    def test_an_exit_code_change_names_the_call_and_both_streams(self):
        change = [PARENT[0], [1, "", "tdesigncap: error: outside admissible interval\n"],
                  PARENT[2]]
        (report,) = cli_diff.differences(ARGVS, PARENT, change)
        lines = report.splitlines()
        assert lines[0] == "tdesigncap bound --family hoggar_sic: exit 0 -> 1"
        assert '  -  "c2": 0.03' in lines
        assert "  +tdesigncap: error: outside admissible interval" in lines

    def test_a_stdout_or_stderr_change_alone_is_reported(self):
        change = [[0, '{\n  "a": 2\n}\n', ""], PARENT[1], [0, "family\n", "warning\n"]]
        reports = cli_diff.differences(ARGVS, PARENT, change)
        assert [r.splitlines()[0] for r in reports] == [
            "tdesigncap build --family qubit_sic: exit 0 -> 0",
            "tdesigncap sweep --families qubit_sic: exit 0 -> 0"]
        assert '  +  "a": 2' in reports[0].splitlines()
        assert "  +warning" in reports[1].splitlines()

    def test_a_long_diff_is_cut(self):
        long = [0, "".join(f"{i}\n" for i in range(40)), ""]
        (report,) = cli_diff.differences(ARGVS[:1], [long], [[0, "", ""]])
        lines = report.splitlines()
        assert len(lines) == 1 + cli_diff.DIFF_LINES + 1
        assert lines[-1] == f"  ... {40 + 3 - cli_diff.DIFF_LINES} more lines"


class TestMatrix:
    def test_d8_oracle_queries(self):
        d8 = ("hoggar_sic", "uniform:8", "anti_sic:8")
        queries = [argv for argv in cli_diff.matrix() if {"--with-oracle", "oracle", "both"}
                   & set(argv) and any(tok in arg for arg in argv for tok in d8)]
        assert queries == list(cli_diff.D8_ORACLE)

    def test_covers_every_subcommand_and_token(self):
        argvs = cli_diff.matrix()
        assert {a[0] for a in argvs} >= {"build", "verify", "bound", "capacity", "sweep"}
        bound_tokens = {a[2] for a in argvs if a[0] == "bound" and "--lambda" in a}
        assert bound_tokens == set(cli_diff.TOKENS)
        assert cli_diff.UNIFORM3_ORACLE in argvs  # the d >= 3 uniform oracle
        assert cli_diff.UNIFORM2_ORACLE in argvs  # the flat grid's tightness check
        assert all(argv in argvs for argv in cli_diff.UNIFORM_CALLS)

    def test_pins_the_uniform_calls(self):
        # verify of uniform without a dimension admits lambda in [0, 1] only, and the CLI
        # refuses the uniform oracle at d >= 3, in capacity and in a sweep alike
        records = cli_diff.run_matrix([*cli_diff.UNIFORM_CALLS, cli_diff.UNIFORM3_ORACLE])
        admitted, refused, *oracle = records
        assert admitted[0] == 0 and admitted[2] == ""
        assert json.loads(admitted[1])["result"]["certificate"]["verdict"] == "pass"
        assert refused == [1, "", "tdesigncap: error: lambda=1.5 outside [0, 1];"
                                  " give --dim for [1/(1-d), 1]\n"]
        assert [code for code, _, _ in oracle] == [1, 1]
        assert all(out == "" and "limited to d = 2" in err for _, out, err in oracle)

    def test_pins_every_admissible_interval_refusal(self):
        # catalog.build (qubit_sic, anti_sic:3), DesignSpec (uniform:3) and the CLI's
        # lambda = 1 base (qutrit_sic) each refuse a lambda outside the interval
        refusals = [["build", "--family", "qubit_sic", "--lambda", "1.5"],
                    ["build", "--family", "anti_sic:3", "--lambda", "1.5"],
                    ["build", "--family", "uniform:3", "--lambda", "1.5"],
                    ["bound", "--family", "qutrit_sic", "--lambda", "-0.6"],
                    ["bound", "--family", "uniform:3", "--lambda", "-0.6"]]
        argvs = cli_diff.matrix()
        assert all(argv in argvs for argv in refusals)
        for argv, (code, out, err) in zip(refusals, cli_diff.run_matrix(refusals)):
            family = {"anti_sic:3": "anti_sic", "uniform:3": "uniform"}.get(argv[2], argv[2])
            assert (code, out) == (1, "")
            assert re.fullmatch(rf"tdesigncap: error: lambda={argv[4]} outside admissible"
                                rf" interval \[[-0-9.e]+, [-0-9.e]+\] for {family}\n", err)


class TestRunMatrix:
    def test_exit_codes_and_streams_of_the_importable_cli(self):
        (ok, refused, usage) = cli_diff.run_matrix(
            [["build", "--family", "qubit_sic"], ["bound", "--family", "qubit_sic", "--t", "3"],
             ["sweep"]])
        assert ok[0] == 0 and ok[2] == ""
        assert json.loads(ok[1])["result"]["n_elements"] == 4
        assert refused[:2] == [1, ""] and "is only a 2-design" in refused[2]
        assert usage[:2] == [1, ""] and "--families" in usage[2]  # argparse's SystemExit


class TestNumericGap:
    def test_json_of_one_shape_gives_the_largest_gap(self):
        a = json.dumps({"x": [1.0, 2.5], "n": 3, "label": "s", "ok": True})
        b = json.dumps({"x": [1.0 + 3e-15, 2.5], "n": 4, "label": "s", "ok": True})
        assert cli_diff.numeric_gap(a, b) == 1.0
        assert cli_diff.numeric_gap(a, a) == 0.0

    def test_csv_of_one_shape_gives_the_largest_gap(self):
        a = "family,lambda,C2,oracle\nqubit_sic,0.5,0.08,\nqubit_sic,1,0.28768,nan\n"
        b = "family,lambda,C2,oracle\nqubit_sic,0.5,0.0800000001,\nqubit_sic,1,0.28768,nan\n"
        assert cli_diff.numeric_gap(a, b) == abs(0.0800000001 - 0.08)
        assert cli_diff.numeric_gap(a, b.replace(",nan", ",0.1")) == float("inf")

    def test_another_shape_or_text_gives_none(self):
        assert cli_diff.numeric_gap('{"a": 1}', '{"b": 1}') is None
        assert cli_diff.numeric_gap('{"a": [1]}', '{"a": [1, 2]}') is None
        assert cli_diff.numeric_gap('{"a": "x", "b": 1}', '{"a": "y", "b": 2}') is None
        assert cli_diff.numeric_gap('{"ok": true}', '{"ok": false}') is None
        assert cli_diff.numeric_gap("a,1\n", "a,1\nb,2\n") is None
        assert cli_diff.numeric_gap("capacity is 0.1\n", "capacity is 0.2\n") is None

    def test_a_report_states_the_gap_only_for_numbers_alone(self):
        change = [[0, '{\n  "a": 1.5\n}\n', ""], [1, '{\n  "c2": 0.04\n}\n', ""],
                  [0, "family\n", "warning\n"]]
        reports = cli_diff.differences(ARGVS, PARENT, change)
        assert reports[0].splitlines()[-1] == "  numbers only: largest absolute difference 0.5"
        assert not any("numbers only" in r for r in reports[1:])  # exit code, then text
        assert cli_diff.record_gap(PARENT[0], PARENT[0]) is None
