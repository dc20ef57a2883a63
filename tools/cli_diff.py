"""Run one fixed matrix of CLI calls on two commits and print every call whose output differs.

    python3 tools/cli_diff.py PARENT CHANGE --workdir DIR

Run it from the root of a git checkout. Each commit is exported with
``bench_pairs.export`` into DIR/<commit hash>. Per side, one child process
with one BLAS thread and no ``TDESIGN_SEED`` imports that copy's
``tdesigncap.cli`` and runs every argv of ``matrix()`` through ``cli.main``
in order, keeping its exit code (a usage error's ``SystemExit`` included),
stdout and stderr. Every argv whose exit code, stdout or stderr differs
between the sides is printed with a diff of both, and the script exits 1 if
any does, else 0. A call whose exit codes agree and whose differing streams
parse as JSON, or else as CSV, equal but for their numbers also gets the
largest absolute difference between those numbers, and the last line gives
the largest over all such calls: a change that moves values only by rounding
can state its bound.

The matrix covers every subcommand: ``build``, ``verify --t 2``, ``bound`` (in nats
and bits) and the closed-form ``capacity`` of the 12 family tokens at lambda in {1,
0.5, 0, -0.2}; ``bound --t 1..6`` on four tokens; ``capacity --method oracle|both``
on five tokens of d <= 3; ``capacity --method oracle`` of uniform:3
(``UNIFORM3_ORACLE``), which the CLI refuses, as it refuses the uniform oracle at every
d >= 3; ``capacity --method both`` of uniform:2 (``UNIFORM2_ORACLE``), the one call
whose ``oracle_tightness`` is that of the flat grid (no pricing round runs), so its
hull check solves an evenly spaced subset; ``UNIFORM_CALLS``: ``verify`` of uniform
without a dimension, at an admitted and a refused lambda, and an oracle sweep that
names uniform:3; ``PHASE_CALLS``: ``build``, ``verify``, ``bound`` and ``capacity
--method both`` of qutrit_sic or anti_sic:3 at the fiducial phases 0.7 and 2.1, the only
calls whose qutrit SIC orbit is not the default phase's; ``INTERVAL_EDGE_CALLS``: ``build``
of qutrit_sic at its lower end -1/2 and of anti_sic:3 at its ends -2 and 1, each exactly,
5e-13 outside (admitted by the interval's 1e-12 slack) and, at the lower ends, 1e-6 outside
(refused); sweeps of all 12 tokens with
and without ``--with-oracle`` (d <= 3 only with it); the error cases, among them one
lambda outside the admissible interval at each site that refuses it
(``build --lambda 1.5`` of qubit_sic and anti_sic:3 in ``catalog.build``, of
uniform:3 in ``DesignSpec``; ``bound --lambda -0.6`` of qutrit_sic in the CLI's
shared lambda = 1 base, of uniform:3 in ``DesignSpec``); and two d = 8 oracle
queries (``D8_ORACLE``): Hoggar's ``capacity --method both`` at lambda = 0.7, and an
oracle sweep of hoggar_sic, anti_sic:8 and hoggar_sic again, whose repeated token
keeps its first base and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import io
import json
import math
import os
import shlex
import subprocess
import sys

from bench_pairs import export, rev

TOOLS = os.path.dirname(os.path.abspath(__file__))
TOKENS = ("qubit_sic", "qubit_mub", "icosahedron", "uniform:2", "anti_sic:2", "qutrit_sic",
          "qutrit_mub", "uniform:3", "anti_sic:3", "hoggar_sic", "uniform:8", "anti_sic:8")
LAMBDAS = ("1", "0.5", "0", "-0.2")
ORACLE_TOKENS = ("qubit_sic", "qubit_mub", "icosahedron", "qutrit_mub", "anti_sic:3")
UNIFORM3_ORACLE = ["capacity", "--family", "uniform:3", "--lambda", "0.5", "--method", "oracle",
                   "--tol", "1e-4"]
UNIFORM2_ORACLE = ["capacity", "--family", "uniform:2", "--lambda", "0.4", "--method", "both",
                   "--tol", "1e-5"]
UNIFORM_CALLS = (
    ["verify", "--family", "uniform", "--lambda", "0.5", "--t", "3"],
    ["verify", "--family", "uniform", "--lambda", "1.5", "--t", "2"],
    ["sweep", "--families", "qubit_sic,uniform:3", "--steps", "2", "--with-oracle",
     "--tol", "1e-4"],
)
PHASE_CALLS = (
    ["build", "--family", "qutrit_sic", "--fiducial-phase", "0.7", "--lambda", "0.5"],
    ["verify", "--family", "qutrit_sic", "--fiducial-phase", "2.1", "--t", "2"],
    ["bound", "--family", "anti_sic:3", "--fiducial-phase", "0.7", "--lambda", "0.5"],
    ["capacity", "--family", "anti_sic:3", "--fiducial-phase", "0.7", "--lambda", "0.5",
     "--method", "both", "--tol", "1e-4"],
)
INTERVAL_EDGE_CALLS = (
    ["build", "--family", "qutrit_sic", "--lambda", "-0.5"],
    ["build", "--family", "qutrit_sic", "--lambda", "-0.5000000000005"],
    ["build", "--family", "qutrit_sic", "--lambda", "-0.500001"],
    ["build", "--family", "anti_sic:3", "--lambda", "-2"],
    ["build", "--family", "anti_sic:3", "--lambda", "-2.0000000000005"],
    ["build", "--family", "anti_sic:3", "--lambda", "-2.000001"],
    ["build", "--family", "anti_sic:3", "--lambda", "1.0000000000005"],
)
DIFF_LINES = 12  # diff lines printed per stream of a differing call
D8_ORACLE = (
    ["capacity", "--family", "hoggar_sic", "--lambda", "0.7", "--method", "both",
     "--tol", "1e-4"],
    ["sweep", "--families", "hoggar_sic,anti_sic:8,hoggar_sic", "--steps", "2",
     "--with-oracle", "--tol", "1e-4"],
)


def matrix() -> list[list[str]]:
    out = [["--version"], ["sweep"]]  # the version, and a usage error
    for tok in TOKENS:
        for lam in LAMBDAS:
            spec = ["--family", tok, "--lambda", lam]
            out += [["build", *spec], ["verify", *spec, "--t", "2"], ["bound", *spec],
                    ["bound", *spec, "--bits"], ["capacity", *spec]]
    for tok in ("qubit_sic", "icosahedron", "uniform:3", "hoggar_sic"):
        out += [["bound", "--family", tok, "--t", str(t)] for t in range(1, 7)]
    for tok in ORACLE_TOKENS:
        out += [["capacity", "--family", tok, "--lambda", "0.5", "--method", method,
                 "--tol", "1e-4"] for method in ("oracle", "both")]
    out += [UNIFORM3_ORACLE, UNIFORM2_ORACLE, *UNIFORM_CALLS, *PHASE_CALLS,
            *INTERVAL_EDGE_CALLS]
    every = ",".join(TOKENS)
    out += [
        ["sweep", "--families", every, "--steps", "5"],
        ["sweep", "--families", every, "--steps", "3", "--lambda-start", "-0.2",
         "--lambda-end", "0"],
        ["sweep", "--families", "qubit_sic,qutrit_mub,uniform:2,qubit_sic", "--steps", "3",
         "--with-oracle", "--tol", "1e-4", "--seed", "5"],
        *D8_ORACLE,
        ["capacity", "--family", "uniform:9", "--method", "oracle"],
        ["sweep", "--families", "qubit_sic,uniform:9", "--with-oracle"],
        ["bound", "--family", "qubit_sic", "--dim", "3"],
        *[["build", "--family", tok, "--lambda", "1.5"]
          for tok in ("qubit_sic", "anti_sic:3", "uniform:3")],
        *[["bound", "--family", tok, "--lambda", "-0.6"] for tok in ("qutrit_sic", "uniform:3")],
        ["capacity", "--family", "qubit_sic", "--method", "oracle", "--tol", "nan"],
        ["sweep", "--families", ",", "--steps", "2"],
        ["sweep", "--families", "qubit_sic", "--steps", "0"],
        ["verify", "--family", "not_a_family", "--t", "2"],
        ["verify", "--family", "qubit_sic", "--t", "2", "--spotchecks", "-3"],
    ]
    return out


def run_matrix(argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argv run through the importable ``tdesigncap.cli``."""
    from tdesigncap import cli

    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors, --version
                code = exc.code
        records.append([code, out.getvalue(), err.getvalue()])
    return records


def run_side(root: str, argvs: list[list[str]]) -> list[list]:
    """``run_matrix`` in a child process on the ``tdesigncap`` under ``root``/src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), TOOLS]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("TDESIGN_SEED", None)
    child = ("import json, sys, cli_diff;"
             " json.dump(cli_diff.run_matrix(json.load(sys.stdin)), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", child], cwd=root, env=env, text=True,
                          input=json.dumps(argvs), capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout)


def _number(value) -> float | None:
    """``value`` as a float if it is a number, or a string that parses as one; else None."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return float(value) if is_number else None


def _leaf_gaps(a, b) -> list[float] | None:
    """|a - b| of each pair of numeric leaves of two parsed outputs; None if the outputs
    differ anywhere else: in keys, lengths or a non-numeric leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = zip(a, b)
    else:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return [] if a == b else None
        if x == y or math.isnan(x) and math.isnan(y):
            return [0.0]
        return [math.inf if math.isnan(x - y) else abs(x - y)]  # one side nan
    gaps = []
    for pair in pairs:
        leaf = _leaf_gaps(*pair)
        if leaf is None:
            return None
        gaps += leaf
    return gaps


def numeric_gap(a: str, b: str) -> float | None:
    """The largest absolute difference between the numbers of two outputs that parse as
    JSON, or else as CSV, equal but for those numbers; None if they do not."""
    try:
        parsed = json.loads(a), json.loads(b)
    except ValueError:
        parsed = [list(csv.reader(io.StringIO(text))) for text in (a, b)]
    gaps = _leaf_gaps(*parsed)
    return None if gaps is None else max(gaps, default=0.0)


def record_gap(p: list, c: list) -> float | None:
    """``numeric_gap`` over the differing streams of two records of one call, or None if
    the records are equal, their exit codes differ or a differing stream has no gap."""
    gaps = [numeric_gap(a, b) for a, b in zip(p[1:], c[1:]) if a != b]
    return None if p[0] != c[0] or not gaps or None in gaps else max(gaps)


def differences(argvs: list[list[str]], parent: list[list], change: list[list]) -> list[str]:
    """One report per argv whose exit code, stdout or stderr differs between the sides."""
    reports = []
    for argv, p, c in zip(argvs, parent, change, strict=True):
        if p == c:
            continue
        lines = [f"tdesigncap {shlex.join(argv)}: exit {p[0]} -> {c[0]}"]
        for name, a, b in (("stdout", p[1], c[1]), ("stderr", p[2], c[2])):
            diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), f"parent {name}",
                                             f"change {name}", n=1, lineterm=""))
            lines += ["  " + line for line in diff[:DIFF_LINES]]
            if len(diff) > DIFF_LINES:
                lines.append(f"  ... {len(diff) - DIFF_LINES} more lines")
        if (gap := record_gap(p, c)) is not None:
            lines.append(f"  numbers only: largest absolute difference {gap:.3g}")
        reports.append("\n".join(lines))
    return reports


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workdir", required=True, help="directory for the exported copies")
    args = p.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    argvs = matrix()
    records = [run_side(export(c, os.path.join(args.workdir, c)), argvs)
               for c in (rev(args.parent), rev(args.change))]
    reports = differences(argvs, *records)
    for report in reports:
        print(report)
    gaps = [gap for p, c in zip(*records) if (gap := record_gap(p, c)) is not None]
    print(f"{len(argvs)} calls, {len(reports)} differ" + (
        f", {len(gaps)} only in numbers, by at most {max(gaps):.3g}" if gaps else ""))
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
