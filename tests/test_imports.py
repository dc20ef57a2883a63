"""The analytic paths never load scipy.optimize: only the oracle and verify_below need it."""

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
print(json.dumps({"code": code, "loaded": "scipy.optimize" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["bound", "--family", "icosahedron", "--lambda", "0.7"],
    ["sweep", "--families", "qubit_sic,uniform:3", "--steps", "5"],
], ids=["import", "bound", "sweep"])
def test_analytic_paths_leave_scipy_optimize_unloaded(argv, tmp_path):
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"code": 0, "loaded": False}
