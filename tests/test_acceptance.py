"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The oracle-backed criteria (4 and 8) dominate the runtime.
"""

import csv
import math
import time

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    InterpolationSpec,
    MomentVector,
    bound_Ct,
    bound_from_set,
    build,
    capacity,
    certify,
    default_grid,
    depolarize,
    discretized_uniform_povm,
    gammas,
    hermite_interpolate,
    informational_power,
    kl_maximize,
    moments,
    moments_of_depolarized,
    optimal_ensemble,
)
from tdesigncap.bounds import PatternError
from tdesigncap.cli import main as cli_main

from reference_bounds import verify_below
from reference_gamma import gamma_empirical, gamma_explicit

SEED = 2016


def _report(num: int, desc: str, failures: list, elapsed: float, budget: float | None = None):
    status = "PASS" if not failures and (budget is None or elapsed <= budget) else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" / budget {budget:.0f}s)" if budget else ")")
    print(f"\n[ACCEPTANCE {num}] {desc}: {status}{extra}")
    assert not failures, f"criterion {num}: {len(failures)} violations, first: {failures[0]}"
    if budget is not None:
        assert elapsed <= budget, f"criterion {num}: runtime {elapsed:.1f}s over {budget}s budget"


def _spec(family, lam=1.0, phase=0.0, dim=None):
    return DesignSpec(family, lam, phase, dim)


def test_acceptance_1_certification_matrix():
    t0 = time.perf_counter()
    matrix = [
        (_spec("qubit_sic"), 2, True),
        (_spec("qubit_sic"), 3, False),
        (_spec("qubit_mub"), 3, True),
        (_spec("qubit_mub"), 4, False),
        (_spec("icosahedron"), 5, True),
        (_spec("qutrit_sic", phase=0.0), 2, True),
        (_spec("qutrit_sic", phase=0.7), 2, True),
        (_spec("qutrit_sic", phase=2.1), 2, True),
        (_spec("qutrit_mub"), 2, True),
        (_spec("qutrit_mub"), 3, False),
        (_spec("hoggar_sic"), 2, True),
        (_spec("anti_sic", dim=2), 2, True),
        (_spec("anti_sic", dim=3), 2, True),
        (_spec("anti_sic", dim=8), 2, True),
    ]
    failures = []
    for spec, t, expected in matrix:
        for lam in (1.0, 0.25, 0.5, 0.75):
            eset = build(DesignSpec(spec.family, lam, spec.fiducial_phase, spec.dim))
            cert = certify(eset, t, n_spotchecks=0)
            if cert.passed != expected:
                failures.append((spec.family, spec.dim, t, lam, cert.verdict))
    _report(1, "design certification matrix, stable under depolarization",
            failures, time.perf_counter() - t0, budget=60.0)


def test_acceptance_2_closed_form_endpoints():
    t0 = time.perf_counter()
    failures = []

    def check(label, got, want):
        if abs(got - want) > 1e-12:
            failures.append((label, got, want))

    check("tetra(1)", capacity("qubit_sic", 1.0), math.log(4 / 3))
    check("octa(1)", capacity("qubit_mub", 1.0), math.log(2) / 3)
    check("3sic(1)", capacity("qutrit_sic", 1.0), math.log(3 / 2))
    check("3mub(1)", capacity("qutrit_mub", 1.0), math.log(3 / 2))
    check("hoggar(1)", capacity("hoggar_sic", 1.0), math.log(16 / 9))
    for d in (2, 3, 8):
        check(f"anti_sic({d},1)", capacity("anti_sic", 1.0, dim=d),
              math.log(d * d / (d * d - 1)))
    for fam, dim in [("qubit_sic", None), ("qubit_mub", None), ("icosahedron", None),
                     ("qutrit_sic", None), ("qutrit_mub", None), ("hoggar_sic", None),
                     ("anti_sic", 2), ("anti_sic", 3), ("anti_sic", 8),
                     ("uniform", 2), ("uniform", 3), ("uniform", 8)]:
        check(f"{fam}:{dim}(0)", capacity(fam, 0.0, dim=dim), 0.0)
    _report(2, "closed-form endpoints within 1e-12", failures, time.perf_counter() - t0)


def test_acceptance_3_bound_tightness():
    t0 = time.perf_counter()
    failures = []
    for fam, dim in [("qubit_sic", None), ("qutrit_sic", None),
                     ("qutrit_mub", None), ("hoggar_sic", None)]:
        eset = build(_spec(fam, dim=dim))
        cert = certify(eset, 2, n_spotchecks=0)
        c2 = bound_from_set(eset, 2, certificate=cert).value
        want = capacity(fam, 1.0, dim=dim)
        if abs(c2 - want) > 1e-12:
            failures.append((fam, c2, want))
    mub = build(_spec("qubit_mub"))
    cert = certify(mub, 3, n_spotchecks=0)
    c3 = bound_from_set(mub, 3, certificate=cert).value
    if abs(c3 - math.log(2) / 3) > 1e-12:
        failures.append(("qubit_mub C3", c3, math.log(2) / 3))
    _report(3, "projective C2 (and octahedron C3) tight at lambda=1 within 1e-12",
            failures, time.perf_counter() - t0)


def test_acceptance_4_oracle_agreement():
    t0 = time.perf_counter()
    failures = []
    lam_grid = [round(0.1 * i, 1) for i in range(11)]

    def run_case(label, eset, grid, lam):
        res = informational_power(eset, grid, tol=1e-5)
        want = CLOSED[label](lam)
        if abs(res.capacity_estimate - want) > 2e-3:
            failures.append((label, lam, res.capacity_estimate, want, "closed-form gap"))
        if not res.diagnostics["bracket_met"] or res.diagnostics["refine_capped"] > 0:
            failures.append((label, lam, res.bracket_width, res.diagnostics, "solve bracket open"))
        kl_val, _ = kl_maximize(eset, grid)
        if res.capacity_estimate > kl_val + 1e-6:
            failures.append((label, lam, res.capacity_estimate, kl_val, "exceeds KL bound"))

    CLOSED = {
        "qubit_sic": lambda l: capacity("qubit_sic", l),
        "qubit_mub": lambda l: capacity("qubit_mub", l),
        "icosahedron": lambda l: capacity("icosahedron", l),
        "anti_sic:2": lambda l: capacity("anti_sic", l, dim=2),
        "uniform:2": lambda l: capacity("uniform", l, dim=2),
        "qutrit_sic": lambda l: capacity("qutrit_sic", l),
        "qutrit_mub": lambda l: capacity("qutrit_mub", l),
        "hoggar_sic": lambda l: capacity("hoggar_sic", l),
    }

    grid2 = default_grid(2, SEED)
    for fam, dim in [("qubit_sic", None), ("qubit_mub", None), ("icosahedron", None),
                     ("anti_sic", 2)]:
        base = build(_spec(fam, dim=dim))
        label = f"{fam}:{dim}" if dim else fam
        for lam in lam_grid:
            run_case(label, depolarize(base, lam), grid2, lam)
    uni2 = discretized_uniform_povm(2, seed=SEED)
    for lam in lam_grid:
        run_case("uniform:2", depolarize(uni2, lam), grid2, lam)

    grid3 = default_grid(3, SEED)
    for fam in ("qutrit_sic", "qutrit_mub"):
        base = build(_spec(fam))
        for lam in lam_grid:
            run_case(fam, depolarize(base, lam), grid3, lam)

    hoggar = build(_spec("hoggar_sic"))
    duals = optimal_ensemble("hoggar_sic")
    dual_amps = np.array([np.linalg.eigh(p)[1][:, -1] for p in duals.ops])
    grid8 = default_grid(8, SEED, extra_states=dual_amps)
    for lam in (0.5, 1.0):
        run_case("hoggar_sic", depolarize(hoggar, lam), grid8, lam)

    _report(4, "oracle within 2e-3 of closed forms, never above the KL value by 1e-6,"
            " every solve bracket closed",
            failures, time.perf_counter() - t0, budget=600.0)


def test_acceptance_5_bound_ordering_icosahedron():
    t0 = time.perf_counter()
    failures = []
    base = build(_spec("icosahedron"))
    mv1 = moments(base, 5)
    for lam in [0.1 * i for i in range(11)]:
        gam = gammas(moments_of_depolarized(mv1, lam))
        chain = [bound_Ct(2, gam, t).value for t in (2, 3, 4, 5)]
        chain.append(capacity("icosahedron", lam))
        for a, b, name in zip(chain, chain[1:], ("C2>=C3", "C3>=C4", "C4>=C5", "C5>=C")):
            if a - b < -1e-10:
                failures.append((lam, name, a, b))
    _report(5, "icosahedron bounds ordered C2 >= C3 >= C4 >= C5 >= capacity",
            failures, time.perf_counter() - t0)


def _random_valid_pattern(rng):
    a = float(rng.uniform(0.0, 0.4))
    b = float(rng.uniform(a + 0.2, 1.0))
    m = int(rng.integers(2, 5))
    pattern_a = bool(rng.integers(0, 2))
    while True:
        interior = np.sort(rng.uniform(a + 1e-3, b - 1e-3, size=m - 2 + (0 if pattern_a else 1)))
        pts = np.concatenate([[a], interior, [b] if pattern_a else []])
        if len(pts) < 2:
            continue
        if np.diff(pts).min() > 5e-3:
            break
    if pattern_a:
        mult = (1,) + (2,) * (len(pts) - 2) + (1,)
    else:
        mult = (1,) + (2,) * (len(pts) - 1)
    return InterpolationSpec(nodes=tuple(float(x) for x in pts),
                             multiplicities=mult, interval=(a, b))


def _mutate_invalid(spec, rng):
    nodes, mult = list(spec.nodes), list(spec.multiplicities)
    a, b = spec.interval
    kind = rng.integers(0, 4)
    if kind == 0 and len(mult) > 2:  # single contact at an interior node
        mult[1] = 1
    elif kind == 1:  # break parity: double the final contact / endpoint abuse
        if nodes[-1] == b and mult[-1] == 1:
            mult[-1] = 2
        else:
            nodes[-1] = b
            mult[-1] = 2
    elif kind == 2:  # first node leaves the left endpoint
        nodes[0] = a + 1e-2 * (b - a)
    else:  # doubled left endpoint
        mult[0] = 2
    return InterpolationSpec(nodes=tuple(nodes), multiplicities=tuple(mult), interval=(a, b))


def test_acceptance_6_interpolation_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for i in range(1000):
        spec = _random_valid_pattern(rng)
        coeffs = hermite_interpolate(spec)
        if not verify_below(coeffs, interval=spec.interval):
            failures.append(("valid pattern not below", spec.nodes, spec.multiplicities))
    rejected = 0
    for i in range(100):
        spec = _mutate_invalid(_random_valid_pattern(rng), rng)
        try:
            spec.validate_pattern()
        except PatternError:
            rejected += 1
            continue
        try:
            coeffs = hermite_interpolate(spec, check_pattern=False)
        except ValueError:
            rejected += 1
            continue
        if verify_below(coeffs, interval=spec.interval):
            failures.append(("invalid pattern accepted and below", spec.nodes,
                             spec.multiplicities))
    _report(6, f"1000 valid patterns below eta; 100 invalid rejected ({rejected})"
               " or not below", failures, time.perf_counter() - t0)


def test_acceptance_7_coincidence_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for _ in range(200):
        d = int(rng.integers(2, 7))
        vals = [1.0]
        for _ in range(4):
            vals.append(vals[-1] * float(rng.uniform(0.15, 1.0)))
        mv = MomentVector(values=tuple(vals), mu0=d)
        for k, g in enumerate(gammas(mv), start=1):
            if abs(g - gamma_explicit(mv, d, k)) > 1e-12:
                failures.append(("bell-vs-explicit", d, vals, k))

    probes = 50
    cases = [(_spec("qubit_sic"), 2), (_spec("qubit_mub"), 3), (_spec("icosahedron"), 5),
             (_spec("qutrit_sic"), 2), (_spec("qutrit_mub"), 2), (_spec("hoggar_sic"), 2),
             (_spec("icosahedron", lam=0.5), 5)]
    for spec, t in cases:
        eset = build(spec)
        predicted = gammas(moments(eset, t))
        from tdesigncap.core import haar_random_states
        for phi in haar_random_states(eset.dim, probes, seed=SEED):
            for k in range(1, t + 1):
                err = abs(gamma_empirical(eset, phi, k) - predicted[k - 1])
                if err > 1e-9:
                    failures.append(("empirical", spec.family, spec.lam, k, err))
    _report(7, "Bell/explicit gamma agreement (1e-12); empirical matches on designs (1e-9)",
            failures, time.perf_counter() - t0)


def test_acceptance_8_figure_shapes(tmp_path):
    t0 = time.perf_counter()
    failures = []

    def sweep(name, families, with_oracle):
        path = tmp_path / f"{name}.csv"
        argv = ["sweep", "--families", families, "--steps", "11",
                "--seed", str(SEED), "--tol", "1e-5", "--out", str(path)]
        if with_oracle:
            argv.insert(1, "--with-oracle")
        assert cli_main(argv) == 0
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        by_family: dict = {}
        for r in rows:
            by_family.setdefault(r["family"], []).append(r)
        for fam in by_family:
            by_family[fam].sort(key=lambda r: float(r["lambda"]))
        return by_family

    def closed(row):
        return float(row["closed_form"])

    def check_order(table, ordering, label):
        fams = list(ordering)
        n = len(table[fams[0]])
        for i in range(n):
            lam = float(table[fams[0]][i]["lambda"])
            if lam == 0.0:
                continue
            vals = [closed(table[f][i]) for f in fams]
            for a, b, fa, fb in zip(vals, vals[1:], fams, fams[1:]):
                if a < b - 1e-12:
                    failures.append((label, lam, f"{fa} < {fb}", a, b))

    def check_columns(table, label):
        for fam, rows in table.items():
            for col in ("closed_form", "C2", "C3", "C4", "C5", "oracle"):
                vals = [float(r[col]) for r in rows if r[col] != ""]
                if not vals:
                    continue
                slack = 2e-4 if col == "oracle" else 1e-12
                for a, b in zip(vals, vals[1:]):
                    if b < a - slack:
                        failures.append((label, fam, col, "not monotone", a, b))
            first = rows[0]
            assert float(first["lambda"]) == 0.0
            if abs(closed(first)) > 1e-12:
                failures.append((label, fam, "closed_form nonzero at lambda=0"))
            for col in ("C2", "C3", "C4", "C5", "oracle"):
                if first[col] != "" and abs(float(first[col])) > 1e-9:
                    failures.append((label, fam, col, "nonzero at lambda=0"))
            for r in rows:
                for col in ("C2", "C3", "C4", "C5"):
                    if r[col] != "" and closed(r) > float(r[col]) + 1e-9:
                        failures.append((label, fam, col, "bound below closed form",
                                         r["lambda"]))

    fig1 = sweep("fig1", "qubit_sic,qubit_mub,icosahedron,uniform:2", with_oracle=True)
    check_order(fig1, ["qubit_sic", "qubit_mub", "icosahedron", "uniform:2"], "fig1")
    check_columns(fig1, "fig1")
    for fam, rows in fig1.items():
        for r in rows:
            if abs(float(r["oracle"]) - closed(r)) > 2e-3:
                failures.append(("fig1 oracle column", fam, r["lambda"]))

    fig2 = sweep("fig2", "qutrit_sic,qutrit_mub,uniform:3,anti_sic:3", with_oracle=False)
    check_order(fig2, ["qutrit_sic", "uniform:3", "anti_sic:3"], "fig2")
    for a, b in zip(fig2["qutrit_sic"], fig2["qutrit_mub"]):
        if closed(a) != closed(b):
            failures.append(("fig2", "SIC and MUB rows differ", a["lambda"]))
    check_columns(fig2, "fig2")

    fig3 = sweep("fig3", "hoggar_sic,uniform:8,anti_sic:8", with_oracle=False)
    check_order(fig3, ["hoggar_sic", "uniform:8", "anti_sic:8"], "fig3")
    check_columns(fig3, "fig3")
    # the projective-2-design dashed bound dominates every solid curve
    for i, row in enumerate(fig3["hoggar_sic"]):
        c2 = float(row["C2"])
        for fam in ("hoggar_sic", "uniform:8", "anti_sic:8"):
            if c2 < closed(fig3[fam][i]) - 1e-9:
                failures.append(("fig3 C2 domination", fam, row["lambda"]))

    _report(8, "figure orderings, monotonicity, zero at lambda=0 (figs 1-3 data)",
            failures, time.perf_counter() - t0, budget=900.0)
