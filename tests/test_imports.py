"""No CLI path loads scipy: the package runs on numpy alone, the oracle's solvers included."""

import json
import os
import subprocess
import sys

import pytest

import tdesigncap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tdesigncap.__file__)))

CHILD = """
import json, sys
import tdesigncap, tdesigncap.cli
argv = json.loads(sys.argv[1])
code = tdesigncap.cli.main(argv) if argv else 0
print(json.dumps({"code": code, "loaded": "scipy" in sys.modules}))
"""


def _run(argv, tmp_path) -> dict:
    """Exit code of the CLI on ``argv`` (none: just import) in a fresh process, and whether
    scipy was loaded by then."""
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["bound", "--family", "icosahedron", "--lambda", "0.7"],
    ["sweep", "--families", "qubit_sic,uniform:3", "--steps", "5"],
], ids=["import", "bound", "sweep"])
def test_analytic_paths_leave_scipy_optimize_unloaded(argv, tmp_path):
    assert _run(argv, tmp_path) == {"code": 0, "loaded": False}  # no scipy module at all


@pytest.mark.parametrize("argv", [
    ["capacity", "--family", "qubit_sic", "--lambda", "0.5", "--method", "both"],
    ["capacity", "--family", "qutrit_mub", "--lambda", "0.5", "--method", "both"],
    ["sweep", "--families", "qubit_sic,qutrit_mub", "--steps", "3", "--with-oracle"],
], ids=["capacity-qubit_sic", "capacity-qutrit_mub", "sweep-oracle"])
def test_oracle_paths_leave_scipy_unloaded(argv, tmp_path):
    assert _run(argv, tmp_path) == {"code": 0, "loaded": False}


def test_every_public_name_resolves_once():
    names = tdesigncap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(tdesigncap, name) is not None, name
