"""Command-line front end: build / verify / bound / capacity / sweep.

Exit codes: 0 success, 1 usage or internal error, 2 verification failure.
All JSON output embeds the artifact version, the seed in effect, and the
tolerances relevant to the command. Sweeps emit CSV with the fixed header
``family,lambda,closed_form,C2,C3,C4,C5,oracle`` (missing values empty,
12 significant digits, LF line endings).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, bounds, catalog, closedform, oracle, verify
from .catalog import AnalyticFamilyError, DesignSpec

DEFAULT_SEED = 2016
LN2 = math.log(2)

_ALIASES = {"hoggar": "hoggar_sic", "tetrahedron": "qubit_sic", "octahedron": "qubit_mub"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract reserves
    # 2 for verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_family(token: str) -> tuple[str, int | None]:
    name, _, dim = token.partition(":")
    name = _ALIASES.get(name, name)
    return name, (int(dim) if dim else None)


def _resolve_spec(args) -> DesignSpec:
    """Flags > JSON spec file > defaults."""
    data: dict = {}
    if getattr(args, "spec", None):
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    family = data.get("family")
    lam = data.get("lambda", 1.0)
    phase = data.get("fiducial_phase") or 0.0
    dim = data.get("dim")
    if getattr(args, "family", None):
        family, flag_dim = _parse_family(args.family)
        if flag_dim is not None:
            dim = flag_dim
    if getattr(args, "lam", None) is not None:
        lam = args.lam
    if getattr(args, "fiducial_phase", None) is not None:
        phase = args.fiducial_phase
    if getattr(args, "dim", None) is not None:
        dim = args.dim
    if family is None:
        raise ValueError("no family given (use --family or --spec)")
    return DesignSpec(family=family, lam=float(lam), fiducial_phase=float(phase), dim=dim)


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TDESIGN_SEED")
    return int(env) if env else DEFAULT_SEED


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _envelope(result: dict, seed: int, tolerances: dict) -> dict:
    return {"artifact_version": __version__, "seed": seed,
            "tolerances": tolerances, "result": result}


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    if spec.family == "uniform":
        result = {"spec": catalog.spec_to_json_dict(spec), "analytic": True,
                  "dim": spec.dimension, "n_elements": None}
        _emit(_envelope(result, seed, {}), args)
        return 0
    eset = catalog.build(spec)
    interval = catalog.admissible_lambda(eset)
    mv = verify.moments(eset, 5)
    result = {
        "spec": catalog.spec_to_json_dict(spec),
        "dim": eset.dim,
        "n_elements": len(eset),
        "admissible_lambda": {"lo": interval.lo, "hi": interval.hi, "clamped": interval.clamped},
        "moments": list(mv.values),
        "design_strength": catalog.design_strength(spec.family),
    }
    _emit(_envelope(result, seed, {}), args)
    return 0


def cmd_verify(args) -> int:
    seed = _seed(args)
    tolerances = {"span_residual": verify.SPAN_RESIDUAL_TOL,
                  "trace_mismatch": verify.TRACE_MISMATCH_TOL,
                  "mu_consistency": verify.MU_CONSISTENCY_TOL}
    family, token_dim = _parse_family(args.family) if args.family else (None, None)
    if family == "uniform" and args.dim is None and token_dim is None:
        # no dimension: admit the lambdas that are admissible in every d
        lam = args.lam if args.lam is not None else 1.0
        if not 0.0 <= lam <= 1.0:
            raise catalog.LambdaRangeError(
                f"lambda={lam} outside [0, 1]; give --dim for [1/(1-d), 1]")
        spec_dict = {"family": "uniform", "lambda": lam, "fiducial_phase": None}
    else:
        spec = _resolve_spec(args)
        spec_dict = catalog.spec_to_json_dict(spec)
    if spec_dict["family"] == "uniform":
        # analytic route, valid at every t and dimension; --dim is optional here
        if args.t < 1:
            raise ValueError(f"t must be >= 1, got {args.t}")
        result = {"spec": spec_dict,
                  "certificate": {"strength_tested": args.t, "verdict": "pass",
                                  "notes": "analytic: the Haar-uniform POVM is a t design"
                                           " for every t"}}
        _emit(_envelope(result, seed, tolerances), args)
        return 0
    cert = verify.certify(catalog.build(spec), args.t, n_spotchecks=args.spotchecks, seed=seed)
    result = {"spec": spec_dict, "certificate": cert.to_json_dict()}
    _emit(_envelope(result, seed, tolerances), args)
    return 0 if cert.passed else 2


def _oracle_inputs(spec: DesignSpec, seed: int):
    """The lambda = 1 element set the oracle depolarizes, and its state grid.

    The uniform POVM is discretized (d <= 8 only). In d = 8 the grid is
    seeded with the states of the closed-form optimal ensemble.
    """
    if spec.family == "uniform":
        if spec.dimension > 8:
            raise ValueError("oracle for the uniform family is limited to d <= 8"
                             " (state-grid blowup)")
        eset = oracle.discretized_uniform_povm(spec.dimension, seed=seed)
    else:
        eset = catalog.build(DesignSpec(spec.family, 1.0, spec.fiducial_phase, spec.dim))
    extra = None
    if spec.dimension == 8 and spec.family != "uniform":
        extra = closedform.optimal_ensemble(spec.family, spec.dim).ops
        extra = np.array([_principal_vector(p) for p in extra])
    return eset, oracle.default_grid(spec.dimension, seed, extra_states=extra)


def _run_oracle(inputs, lam: float, tol: float) -> oracle.OracleResult:
    eset, grid = inputs
    target = catalog.depolarize(eset, lam) if lam != 1.0 else eset
    return oracle.informational_power(target, grid, tol=tol)


def _principal_vector(projector: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(projector)
    return v[:, -1]


def cmd_capacity(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    unit = LN2 if args.bits else 1.0
    result: dict = {"spec": catalog.spec_to_json_dict(spec),
                    "units": "bits" if args.bits else "nats"}
    tolerances = {"oracle_tol": args.tol}
    if args.method in ("closed", "both"):
        result["closed_form"] = closedform.capacity_for(spec) / unit
        result["method"] = "closed-form"
    if args.method in ("oracle", "both"):
        res = _run_oracle(_oracle_inputs(spec, seed), spec.lam, args.tol)
        result["oracle"] = res.capacity_estimate / unit
        result["oracle_tightness"] = res.tightness
        result["oracle_bracket"] = res.bracket_width
        result["method"] = "oracle" if args.method == "oracle" else "both"
    if args.method == "both":
        result["discrepancy"] = result["oracle"] - result["closed_form"]
    _emit(_envelope(result, seed, tolerances), args)
    return 0


def _base_moments(spec: DesignSpec) -> list[float]:
    """mu_0 = d, mu_1..mu_5 of the family at lambda = 1."""
    d = spec.dimension
    if spec.family == "uniform":
        return [float(d)] + [1.0] * 5
    eset = catalog.build(DesignSpec(spec.family, 1.0, spec.fiducial_phase, spec.dim))
    return [float(d)] + list(verify.moments(eset, 5).values)


def _analytic_gammas(base: list[float], lam: float, d: int) -> list[float]:
    """gamma_1..gamma_5 of the family depolarized to lam, from its base moments."""
    mu = catalog.moments_of_depolarized(base, lam, d)
    mv = verify.MomentVector(values=tuple(mu[1:]), mu0=d)
    return [verify.gamma_predicted(mv, d, k) for k in range(1, 6)]


def cmd_bound(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    unit = LN2 if args.bits else 1.0
    t_max = catalog.design_strength(spec.family)
    ts = [args.t] if args.t is not None else list(range(2, min(t_max, 5) + 1))
    for t in ts:
        if t > t_max:
            raise ValueError(f"{spec.family} is only a {t_max}-design; C_{t} does not apply")
    gammas = _analytic_gammas(_base_moments(spec), spec.lam, spec.dimension)
    reports = [bounds.bound_Ct(spec.dimension, gammas, t) for t in ts]
    result = {"spec": catalog.spec_to_json_dict(spec),
              "units": "bits" if args.bits else "nats",
              "bounds": [{**r.to_json_dict(), "value": r.value / unit} for r in reports]}
    _emit(_envelope(result, seed, {"cross_check": bounds.CROSS_CHECK_TOL}), args)
    return 0


def _sweep_row(spec: DesignSpec, base: list[float], oracle_inputs, oracle_tol: float) -> dict:
    row = {"family": _family_token(spec), "lambda": spec.lam}
    row["closed_form"] = closedform.capacity_for(spec)
    t_max = min(catalog.design_strength(spec.family), 5)
    gammas = _analytic_gammas(base, spec.lam, spec.dimension)
    for t in range(2, 6):
        if t <= t_max:
            row[f"C{t}"] = bounds.bound_Ct(spec.dimension, gammas, t).value
        else:
            row[f"C{t}"] = None
    row["oracle"] = (None if oracle_inputs is None
                     else _run_oracle(oracle_inputs, spec.lam, oracle_tol).capacity_estimate)
    return row


def _family_token(spec: DesignSpec) -> str:
    if spec.family in ("anti_sic", "uniform"):
        return f"{spec.family}:{spec.dimension}"
    return spec.family


def cmd_sweep(args) -> int:
    seed = _seed(args)
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    if args.lambda_end < args.lambda_start:
        raise ValueError("lambda-end must be >= lambda-start")
    lams = np.linspace(args.lambda_start, args.lambda_end, args.steps)
    fams = [_parse_family(tok) for tok in args.families.split(",") if tok]
    specs = []
    for name, dim in fams:
        for lam in lams:
            specs.append(DesignSpec(family=name, lam=float(lam),
                                    fiducial_phase=args.fiducial_phase or 0.0, dim=dim))

    # per family token: base moments, and the oracle inputs under --with-oracle
    base_moments: dict = {}
    oracle_inputs: dict = {}
    for i, (name, dim) in enumerate(fams):
        spec1 = DesignSpec(family=name, lam=1.0,
                           fiducial_phase=args.fiducial_phase or 0.0, dim=dim)
        token = _family_token(spec1)
        if token in base_moments:
            continue
        base_moments[token] = _base_moments(spec1)
        if args.with_oracle:
            oracle_inputs[token] = _oracle_inputs(spec1, seed + 7919 * i)

    rows = []
    for spec in specs:
        token = _family_token(spec)
        rows.append(_sweep_row(spec, base_moments[token], oracle_inputs.get(token), args.tol))
    rows.sort(key=lambda r: (r["family"], r["lambda"]))

    def fmt(v):
        return "" if v is None else f"{v:.12g}"

    lines = ["family,lambda,closed_form,C2,C3,C4,C5,oracle"]
    for r in rows:
        lines.append(",".join([r["family"], f"{r['lambda']:.12g}", fmt(r["closed_form"]),
                               fmt(r["C2"]), fmt(r["C3"]), fmt(r["C4"]), fmt(r["C5"]),
                               fmt(r["oracle"])]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family name, optionally with dimension as 'anti_sic:3'")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="depolarizing parameter (default 1.0)")
    p.add_argument("--dim", type=int, default=None, help="dimension for anti_sic/uniform")
    p.add_argument("--fiducial-phase", dest="fiducial_phase", type=float, default=None,
                   help="qutrit SIC fiducial selector (default: Hesse)")
    p.add_argument("--spec", help="JSON design-spec file"
                   " {\"family\":..., \"lambda\":..., \"fiducial_phase\":...}")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: TDESIGN_SEED env or 2016)")
    p.add_argument("--out", help="write JSON/CSV to this file instead of stdout")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdesigncap",
                     description="mixed t-design measurements and their capacity")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[], help="construct a family and print a summary")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="certify the mixed t-design property")
    _add_spec_flags(p)
    p.add_argument("--t", type=int, required=True, help="design strength to test")
    p.add_argument("--spotchecks", type=int, default=25,
                   help="number of Haar probe states for gamma spot checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("capacity", help="closed-form and/or oracle capacity")
    _add_spec_flags(p)
    p.add_argument("--method", choices=["closed", "oracle", "both"], default="closed")
    p.add_argument("--bits", action="store_true", help="report bits instead of nats")
    p.add_argument("--tol", type=float, default=1e-5, help="oracle refinement tolerance")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bound", help="capacity upper bounds C_t")
    _add_spec_flags(p)
    p.add_argument("--t", type=int, default=None, help="specific t (default: every valid t)")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="lambda sweep CSV over families")
    p.add_argument("--families", required=True,
                   help="comma-separated, e.g. qubit_sic,qubit_mub,uniform:2")
    p.add_argument("--lambda-start", dest="lambda_start", type=float, default=0.0)
    p.add_argument("--lambda-end", dest="lambda_end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--with-oracle", dest="with_oracle", action="store_true")
    p.add_argument("--fiducial-phase", dest="fiducial_phase", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-5, help="oracle refinement tolerance")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalyticFamilyError as exc:
        print(f"tdesigncap: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # CLI boundary: anything unexpected is exit 1
        print(f"tdesigncap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
