"""Every subcommand reads a design spec the same way: flags > family token > spec file."""

import json

import pytest

from tdesigncap.cli import main


def verify_result(capsys, *argv):
    assert main(["verify", *argv, "--t", "3", "--spotchecks", "0"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_verify_reads_a_uniform_spec_file_like_flags(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"family": "uniform", "lambda": 0.5}), encoding="utf-8")
    assert (verify_result(capsys, "--spec", str(path))
            == verify_result(capsys, "--family", "uniform", "--lambda", "0.5"))


def test_verify_takes_the_dimension_from_the_spec_file(tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"family": "qubit_sic", "dim": 3}), encoding="utf-8")
    result = verify_result(capsys, "--family", "uniform", "--spec", str(path))
    assert result["spec"]["dim"] == 3
    assert result == verify_result(capsys, "--family", "uniform", "--dim", "3")


@pytest.mark.parametrize("spec", [{"family": "uniform", "dim": 2.5, "lambda": 0.5},
                                  {"family": "anti_sic", "dim": 3.0}],
                         ids=["uniform-2.5", "anti_sic-3.0"])
def test_capacity_refuses_a_dim_that_is_not_an_int(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["capacity", "--spec", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"got {spec['dim']!r}" in err


@pytest.mark.parametrize("command,spec,message", [
    ("capacity", [1, 2], "spec file must hold a JSON object, got [1, 2]"),
    ("capacity", "qubit_sic", "spec file must hold a JSON object, got 'qubit_sic'"),
    ("capacity", {"family": ["qubit_sic"]},
     "spec file field 'family' must be a string, got ['qubit_sic']"),
    ("capacity", {"family": "qubit_sic", "lambda": None},
     "spec file field 'lambda' must be a number, got None"),
    ("capacity", {"family": "qubit_sic", "lambda": True},
     "spec file field 'lambda' must be a number, got True"),
    ("capacity", {"family": "qubit_sic", "lambda": "0.5"},
     "spec file field 'lambda' must be a number, got '0.5'"),
    ("capacity", {"family": "qutrit_sic", "fiducial_phase": False},
     "spec file field 'fiducial_phase' must be a number or null, got False"),
    ("verify", {"family": "uniform", "lambda": True},
     "spec file field 'lambda' must be a number, got True"),
], ids=["list", "string", "family-list", "lambda-null", "lambda-true", "lambda-string",
        "phase-false", "verify-uniform-lambda-true"])
def test_a_malformed_spec_file_is_refused(command, spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    extra = ["--t", "2"] if command == "verify" else []
    assert main([command, "--spec", str(path), *extra]) == 1
    assert capsys.readouterr() == ("", f"tdesigncap: error: {message}\n")


def test_a_written_spec_reads_back(tmp_path, capsys):
    # the spec a result echoes (fiducial_phase null where it does not apply), with an
    # integer lambda: both are admitted
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "qubit_sic", "lambda": 1, "fiducial_phase": None}),
                    encoding="utf-8")
    assert main(["capacity", "--spec", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["spec"] == {
        "family": "qubit_sic", "lambda": 1, "fiducial_phase": None}
