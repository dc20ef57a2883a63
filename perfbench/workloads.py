"""The benchmark's four workloads: seeded inputs, timed cases and reference checks.

A workload builds its inputs in ``setup(seed)`` and then yields rounds of
cases; a case is one call into the program (an oracle solve, a CLI query, a
sweep invocation or a ``certify`` call). ``check`` compares a case's output
with references written here, independently of the program, and returns the
names of the checks it breaks. ``PLANTED`` lists one perturbation per check
that the run applies to a real output to prove the check fires.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tdesigncap import catalog, cli, closedform, oracle, verify
from tdesigncap.catalog import DesignSpec

TOL = 1e-5  # oracle tolerance asked for in every oracle workload
GAP_TOL = 2e-3  # oracle against closed form (acceptance 4)
KL_SLACK = 1e-6  # oracle above the KL value (acceptance 4)
ENDPOINT_TOL = 1e-12  # closed-form endpoint values (acceptance 2)
SPOT_TOL = 1e-9  # empirical against predicted gamma_k on designs (acceptance 7)

# Closed-form capacities (nats) at the oracle workloads' points, evaluated at
# 40 digits with mpmath from the paper's expressions (uniform:2 through
# mpmath.hyp2f1), so that they do not depend on the program under test.
REFERENCE_CAPACITY = {
    ("qubit_sic", 0.3): 0.016212783149289842,
    ("qubit_sic", 0.35): 0.022414274013900932,
    ("qubit_sic", 0.5): 0.048238447278857853,
    ("qubit_mub", 0.35): 0.020855384057976854,
    ("qubit_mub", 0.5): 0.043604011980378986,
    ("icosahedron", 0.35): 0.020678123338304631,
    ("icosahedron", 0.5): 0.042812518658688064,
    ("anti_sic:2", 0.35): 0.022414274013900932,
    ("anti_sic:2", 0.5): 0.048238447278857853,
    ("anti_sic:2", 0.6): 0.072460327927143651,
    ("uniform:2", 0.35): 0.020676001278430766,
    ("uniform:2", 0.4): 0.027114255208333747,
    ("uniform:2", 0.5): 0.042791644191678093,
    ("qutrit_sic", 0.25): 0.016416758629342359,
    ("qutrit_mub", 0.5): 0.070428429335183912,
    ("qutrit_mub", 0.6): 0.10521026495527156,
    ("anti_sic:3", 0.5): 0.018748410573302612,
    ("hoggar_sic", 0.7): 0.21959314774009156,
}


def _eta(x: float) -> float:
    return 0.0 if x == 0 else -x * math.log(x)


_A5 = (5 - math.sqrt(5)) / 10
# Capacities at lambda = 1 (acceptance 2; the icosahedron and uniform limits
# follow from the same expressions).
ENDPOINT_AT_1 = {
    "qubit_sic": math.log(4 / 3),
    "qubit_mub": math.log(2) / 3,
    "icosahedron": math.log(2) - 5 * (_eta(_A5) + _eta(1 - _A5)) / 6,
    "qutrit_sic": math.log(3 / 2),
    "qutrit_mub": math.log(3 / 2),
    "hoggar_sic": math.log(16 / 9),
    **{f"anti_sic:{d}": math.log(d * d / (d * d - 1)) for d in (2, 3, 8)},
    **{f"uniform:{d}": math.log(d) + 1 - sum(1 / k for k in range(1, d + 1)) for d in (2, 3, 8)},
}

# Largest t whose C_t column a sweep fills (design strength, capped at 5).
FILLED_UP_TO = {"qubit_sic": 2, "qubit_mub": 3, "icosahedron": 5, "qutrit_sic": 2,
                "qutrit_mub": 2, "hoggar_sic": 2, "anti_sic:2": 2, "anti_sic:3": 2,
                "anti_sic:8": 2, "uniform:2": 5, "uniform:3": 5, "uniform:8": 5}


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and the given keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _spec(token: str, lam: float = 1.0) -> DesignSpec:
    name, _, dim = token.partition(":")
    return DesignSpec(name, lam, 0.0, int(dim) if dim else None)


@dataclass
class Case:
    label: str
    run: Callable[[], object]  # the timed call into the program
    read: Callable[[object], dict]  # its result as the output that is checked
    meta: dict = field(default_factory=dict)


def _oracle_read(raw: dict) -> dict:
    return raw


def _run_cli(argv: list[str], path: str) -> int:
    """One CLI invocation writing to ``path``; a stale file from an earlier round is removed."""
    if os.path.exists(path):
        os.remove(path)
    return cli.main(argv)


# ---------------------------------------------------------------------------

class OracleSweep:
    """Lambda sweeps through the library, as acceptance 4 runs them."""

    name = "oracle_sweep"
    POINTS = ([(tok, lam) for tok in ("qubit_sic", "qubit_mub", "icosahedron", "anti_sic:2",
                                      "uniform:2") for lam in (0.35, 0.5)]
              + [("qutrit_sic", 0.25), ("qutrit_mub", 0.5)])
    GRID_SIZE = {2: 512, 3: 2000}
    PLANTED = [
        ("gap", lambda o: {**o, "oracle": o["oracle"] + 3e-3, "kl": o["kl"] + 3e-3}),
        ("kl", lambda o: {**o, "kl": o["oracle"] - 1e-5}),
    ]

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def setup(self, seed: int) -> None:
        self.grids = {d: oracle.default_grid(d, sub_seed(seed, d), resolution=n)
                      for d, n in self.GRID_SIZE.items()}
        self.bases = {}
        for tok, _ in self.POINTS:
            if tok in self.bases:
                continue
            if tok == "uniform:2":
                self.bases[tok] = oracle.discretized_uniform_povm(2, seed=sub_seed(seed, 2))
            else:
                self.bases[tok] = catalog.build(_spec(tok))

    def cases(self, round_index: int) -> list[Case]:
        return [Case(f"{tok}@{lam}", lambda tok=tok, lam=lam: self._solve(tok, lam), _oracle_read,
                     {"token": tok, "lam": lam}) for tok, lam in self.POINTS]

    def _solve(self, tok: str, lam: float) -> dict:
        eset = catalog.depolarize(self.bases[tok], lam)
        grid = self.grids[eset.dim]
        res = oracle.informational_power(eset, grid, tol=TOL)
        kl, _ = oracle.kl_maximize(eset, grid)
        return {"oracle": res.capacity_estimate, "bracket": res.bracket_width, "kl": kl}

    def check(self, case: Case, out: dict) -> list[str]:
        ref = REFERENCE_CAPACITY[(case.meta["token"], case.meta["lam"])]
        out["gap"] = abs(out["oracle"] - ref)
        out["kl_slack"] = out["kl"] - out["oracle"]
        failed = []
        if not out["gap"] <= GAP_TOL:
            failed.append("gap")
        if not out["oracle"] <= out["kl"] + KL_SLACK:
            failed.append("kl")
        return failed


# ---------------------------------------------------------------------------

class OraclePoints:
    """Independent single capacity queries, each with a fresh grid and catalog build."""

    name = "oracle_points"
    POINTS = [("qubit_sic", 0.3), ("icosahedron", 0.5), ("anti_sic:2", 0.6), ("uniform:2", 0.4),
              ("qutrit_mub", 0.6), ("anti_sic:3", 0.5), ("hoggar_sic", 0.7)]
    # The CLI's fixed 60 000-state d = 8 grid takes about 30 s per query, longer
    # than a run, so the Hoggar point makes the same library calls as
    # `capacity --method both` on a smaller seeded grid.
    HOGGAR_GRID = 4000
    PLANTED = [
        ("exit", lambda o: {**o, "exit": 1}),
        ("gap", lambda o: {**o, "oracle": o["oracle"] + 3e-3,
                           "discrepancy": o["discrepancy"] + 3e-3}),
        ("closed_form", lambda o: {**o, "closed_form": o["closed_form"] + 1e-10}),
    ]

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def setup(self, seed: int) -> None:
        self.seed = seed

    def cases(self, round_index: int) -> list[Case]:
        out = []
        for i, (tok, lam) in enumerate(self.POINTS):
            seed = sub_seed(self.seed, round_index, i)
            meta = {"token": tok, "lam": lam}
            if tok == "hoggar_sic":
                out.append(Case(f"{tok}@{lam}", lambda s=seed, l=lam: self._hoggar(s, l),
                                _oracle_read, meta))
                continue
            path = os.path.join(self.tmp_dir, f"capacity-{i}.json")
            argv = ["capacity", "--family", tok, "--lambda", repr(lam), "--method", "both",
                    "--tol", repr(TOL), "--seed", str(seed), "--out", path]
            out.append(Case(f"{tok}@{lam}", lambda a=argv, p=path: _run_cli(a, p),
                            lambda raw, p=path: self._read(raw, p), meta))
        return out

    @staticmethod
    def _read(code: int, path: str) -> dict:
        if code != 0:
            return {"exit": code}
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)["result"]
        return {"exit": code, "oracle": res["oracle"], "closed_form": res["closed_form"],
                "discrepancy": res["discrepancy"], "bracket": res["oracle_bracket"]}

    def _hoggar(self, seed: int, lam: float) -> dict:
        eset = catalog.build(DesignSpec("hoggar_sic", lam))
        duals = closedform.optimal_ensemble("hoggar_sic").ops
        extra = np.array([np.linalg.eigh(p)[1][:, -1] for p in duals])
        grid = oracle.default_grid(8, seed, extra_states=extra, resolution=self.HOGGAR_GRID)
        res = oracle.informational_power(eset, grid, tol=TOL)
        closed = closedform.capacity("hoggar_sic", lam)
        return {"exit": 0, "oracle": res.capacity_estimate, "closed_form": closed,
                "discrepancy": res.capacity_estimate - closed, "bracket": res.bracket_width}

    def check(self, case: Case, out: dict) -> list[str]:
        if out["exit"] != 0:
            return ["exit"]
        ref = REFERENCE_CAPACITY[(case.meta["token"], case.meta["lam"])]
        out["gap"] = abs(out["oracle"] - ref)
        failed = []
        if not (abs(out["discrepancy"]) <= GAP_TOL and out["gap"] <= GAP_TOL):
            failed.append("gap")
        if not abs(out["closed_form"] - ref) <= ENDPOINT_TOL:
            failed.append("closed_form")
        return failed


# ---------------------------------------------------------------------------

CSV_HEADER = ["family", "lambda", "closed_form", "C2", "C3", "C4", "C5", "oracle"]
BOUND_COLUMNS = ("C2", "C3", "C4", "C5")


def _with_row(o: dict, i: int, **values) -> dict:
    o = copy.deepcopy(o)
    o["families"][o["first"]][i].update(values)
    return o


class AnalyticSweep:
    """`tdesigncap sweep` without the oracle over all 12 family tokens (figures 2 and 3)."""

    name = "analytic_sweep"
    GROUPS = ("qubit_sic,qubit_mub,icosahedron,uniform:2,anti_sic:2",
              "qutrit_sic,qutrit_mub,uniform:3,anti_sic:3",
              "hoggar_sic,uniform:8,anti_sic:8")
    STEPS = 31
    PLANTED = [
        ("endpoint", lambda o: _with_row(o, -1, closed_form=o["families"][o["first"]][-1]
                                         ["closed_form"] + 1e-10)),
        ("zero", lambda o: _with_row(o, 0, closed_form=1e-6)),
        ("monotone", lambda o: _with_row(o, 20, C2=o["families"][o["first"]][10]["C2"])),
        ("bound", lambda o: _with_row(o, 15, C2=o["families"][o["first"]][15]["closed_form"]
                                      - 1e-6)),
        ("shape", lambda o: {**o, "header": o["header"][:-1]}),
    ]

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def setup(self, seed: int) -> None:
        self.seed = seed

    def cases(self, round_index: int) -> list[Case]:
        out = []
        for i, group in enumerate(self.GROUPS):
            path = os.path.join(self.tmp_dir, f"sweep-{i}.csv")
            argv = ["sweep", "--families", group, "--steps", str(self.STEPS),
                    "--seed", str(sub_seed(self.seed, round_index, i)), "--out", path]
            out.append(Case(f"sweep:{group}", lambda a=argv, p=path: _run_cli(a, p),
                            lambda raw, p=path: self._read(raw, p), {"group": group}))
        return out

    @staticmethod
    def _read(code: int, path: str) -> dict:
        if code != 0:
            return {"exit": code}
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        families: dict[str, list[dict]] = {}
        for row in reader:
            rec = {k: (float(v) if v != "" else None) for k, v in zip(header[1:], row[1:])}
            families.setdefault(row[0], []).append(rec)
        return {"exit": code, "header": header, "families": families,
                "first": next(iter(families), None)}

    def check(self, case: Case, out: dict) -> list[str]:
        if out["exit"] != 0:
            return ["exit"]
        tokens = case.meta["group"].split(",")
        lams = np.linspace(0.0, 1.0, self.STEPS)
        if out["header"] != CSV_HEADER or sorted(out["families"]) != sorted(tokens):
            return ["shape"]
        failed = set()
        for tok, rows in out["families"].items():
            filled = [f"C{t}" for t in range(2, FILLED_UP_TO[tok] + 1)]
            if (len(rows) != self.STEPS
                    or any(abs(r["lambda"] - l) > 1e-12 for r, l in zip(rows, lams))
                    or any((r[c] is not None) != (c in filled) for r in rows for c in BOUND_COLUMNS)
                    or any(r["oracle"] is not None for r in rows)):
                failed.add("shape")
                continue
            if abs(rows[-1]["closed_form"] - ENDPOINT_AT_1[tok]) > ENDPOINT_TOL:
                failed.add("endpoint")
            if abs(rows[0]["closed_form"]) > 1e-12 or any(abs(rows[0][c]) > 1e-9 for c in filled):
                failed.add("zero")
            for col in ["closed_form"] + filled:
                vals = [r[col] for r in rows]
                if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
                    failed.add("monotone")
            if any(r["closed_form"] > r[c] + 1e-9 for r in rows for c in filled):
                failed.add("bound")
        return sorted(failed)


# ---------------------------------------------------------------------------

class CertifyMatrix:
    """`certify` with 25 spot checks over the acceptance-1 matrix and the larger dense cases."""

    name = "certify_matrix"
    # (family token, fiducial phase, t, expected verdict), at every lambda below
    MATRIX = [("qubit_sic", 0.0, 2, "pass"), ("qubit_sic", 0.0, 3, "fail"),
              ("qubit_mub", 0.0, 3, "pass"), ("qubit_mub", 0.0, 4, "fail"),
              ("icosahedron", 0.0, 5, "pass"),
              ("qutrit_sic", 0.0, 2, "pass"), ("qutrit_sic", 0.7, 2, "pass"),
              ("qutrit_sic", 2.1, 2, "pass"), ("qutrit_mub", 0.0, 2, "pass"),
              ("qutrit_mub", 0.0, 3, "fail"), ("hoggar_sic", 0.0, 2, "pass"),
              ("anti_sic:2", 0.0, 2, "pass"), ("anti_sic:3", 0.0, 2, "pass"),
              ("anti_sic:8", 0.0, 2, "pass")]
    LAMBDAS = (1.0, 0.75, 0.5, 0.25)
    # larger dense cases, at lambda = 1
    DENSE = [("qutrit_sic", 0.0, 3, "fail"), ("qutrit_sic", 0.0, 4, "fail"),
             ("qutrit_sic", 0.0, 5, "fail"), ("hoggar_sic", 0.0, 3, "fail"),
             ("hoggar_sic", 0.0, 4, "fail")]
    SPOTCHECKS = 25
    WARM_MAX_DIM = 512  # first-call warm-up skips only the 4096-dimensional case
    PLANTED = [
        ("verdict", lambda o: {**o, "verdict": "fail" if o["verdict"] == "pass" else "pass"}),
        ("spotcheck", lambda o: {**o, "spot_max": 1e-6}),
    ]

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir

    def setup(self, seed: int) -> None:
        self.seed = seed
        entries = [(tok, phase, t, want, lam) for tok, phase, t, want in self.MATRIX
                   for lam in self.LAMBDAS] + [e + (1.0,) for e in self.DENSE]
        self.entries = []
        for tok, phase, t, want, lam in entries:
            name, _, dim = tok.partition(":")
            eset = catalog.build(DesignSpec(name, lam, phase, int(dim) if dim else None))
            self.entries.append((f"{tok}/{phase}/t{t}@{lam}", eset, t, want))
        warmed = set()
        for _, eset, t, _ in self.entries:
            if (eset.dim, t) not in warmed and eset.dim ** t <= self.WARM_MAX_DIM:
                verify.certify(eset, t, n_spotchecks=0)
                warmed.add((eset.dim, t))

    def cases(self, round_index: int) -> list[Case]:
        return [Case(label, lambda e=eset, t=t, s=sub_seed(self.seed, round_index, i):
                     verify.certify(e, t, n_spotchecks=self.SPOTCHECKS, seed=s),
                     self._read, {"want": want, "t": t})
                for i, (label, eset, t, want) in enumerate(self.entries)]

    @staticmethod
    def _read(cert) -> dict:
        errs = [e for _, _, e in cert.gamma_spotchecks]
        return {"verdict": cert.verdict, "spot_max": max(errs, default=0.0), "n_spot": len(errs)}

    def check(self, case: Case, out: dict) -> list[str]:
        failed = []
        if out["verdict"] != case.meta["want"]:
            failed.append("verdict")
        if case.meta["want"] == "pass" and not (
                out["spot_max"] <= SPOT_TOL
                and out["n_spot"] == self.SPOTCHECKS * min(case.meta["t"], 5)):
            failed.append("spotcheck")
        return failed


WORKLOADS = {w.name: w for w in (OracleSweep, OraclePoints, AnalyticSweep, CertifyMatrix)}
