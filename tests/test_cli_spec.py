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
