"""Command-line front end: build / verify / bound / capacity / sweep.

Exit codes: 0 success, 1 usage or internal error, 2 verification failure.
All JSON output embeds the artifact version, the seed in effect, and the
tolerances relevant to the command. Sweeps emit CSV with the fixed header
``family,lambda,closed_form,C2,C3,C4,C5,oracle`` (missing values empty,
12 significant digits, LF line endings).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, bounds, catalog, closedform, oracle, verify
from .catalog import DesignSpec

DEFAULT_SEED = 2016
LN2 = math.log(2)

_ALIASES = {"hoggar": "hoggar_sic", "tetrahedron": "qubit_sic", "octahedron": "qubit_mub"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract reserves
    # 2 for verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _spec_fields(args, token: str | None = None) -> dict:
    """Design-spec fields: flags > family token ('anti_sic:3') > JSON spec file.

    ``token`` stands in for ``--family``; flags the subcommand lacks count as unset.
    """
    data: dict = {}
    if getattr(args, "spec", None):
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    token = token or getattr(args, "family", None)
    if token:
        name, _, dim = token.partition(":")
        data["family"] = _ALIASES.get(name, name)
        if dim:
            data["dim"] = int(dim)
    for key, attr in (("lambda", "lam"), ("fiducial_phase", "fiducial_phase"), ("dim", "dim")):
        if getattr(args, attr, None) is not None:
            data[key] = getattr(args, attr)
    if data.get("family") is None:
        raise ValueError("no family given (use --family or --spec)")
    return data


def _resolve_spec(args) -> DesignSpec:
    return catalog.spec_from_json_dict(_spec_fields(args))


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TDESIGN_SEED")
    return int(env) if env else DEFAULT_SEED


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(result: dict, seed: int, tolerances: dict, args) -> None:
    envelope = {"artifact_version": __version__, "seed": seed, "tolerances": tolerances,
                "result": result}
    _write(json.dumps(envelope, indent=2, sort_keys=True) + "\n", args)


# ---------------------------------------------------------------------------
# subcommands

def _check_oracle(spec: DesignSpec) -> None:
    """Refuse an oracle query on the uniform family above d = 2, where its discretized POVM
    is another measurement, with a rate above the uniform capacity."""
    if spec.family == "uniform" and spec.dimension > 2:
        raise ValueError("oracle for the uniform family is limited to d = 2 (at d >= 3 its"
                         " discretized POVM is a different measurement)")


class _Base:
    """One family token's lambda = 1 inputs, built once and read, never changed, by every
    subcommand.

    ``eset`` is the lambda = 1 element set (None for the analytic uniform family), ``mv`` its
    moments mu_1..mu_MAX_T (mu_0 = d; all 1 for uniform) and, given a seed, ``route3`` the
    oracle's element set and state grid. The constructor checks spec.lam against the
    admissible interval of the lambda = 1 set (a uniform spec checks its own). The uniform
    oracle runs on a discretized POVM (d = 2 only). In d = 8 the grid is seeded with the
    family's capacity-achieving states.
    """

    def __init__(self, spec: DesignSpec, seed: int | None = None):
        self.family, self.dim = spec.family, spec.dimension
        if spec.family == "uniform":
            self.eset = None
            self.mv = verify.MomentVector((1.0,) * bounds.MAX_T, self.dim)
        else:
            self.eset = catalog.build(DesignSpec(spec.family, 1.0, spec.fiducial_phase, spec.dim))
            catalog.admissible_lambda(self.eset).require(spec.lam, spec.family)
            self.mv = verify.moments(self.eset, bounds.MAX_T)
        self.route3 = None
        if seed is not None:
            _check_oracle(spec)
            eset = (oracle.discretized_uniform_povm(self.dim, seed=seed) if self.eset is None
                    else self.eset)
            optimal = catalog.FAMILY[spec.family].optimal
            extra = optimal[1](8, spec.fiducial_phase) if optimal and self.dim == 8 else None
            self.route3 = (eset, oracle.default_grid(self.dim, seed, extra_states=extra))

    def bounds_at(self, lam: float, t: int | None = None) -> list:
        """C_t of the family depolarized at ``lam``: at ``t``, or at every
        t = 2..min(design strength, bounds.MAX_T)."""
        strength = catalog.design_strength(self.family)
        if t is not None and t > strength:
            raise ValueError(f"{self.family} is only a {strength}-design; C_{t} does not apply")
        ts = [t] if t is not None else range(2, min(strength, bounds.MAX_T) + 1)
        gammas = verify.gammas(catalog.moments_of_depolarized(self.mv, lam))
        return [bounds.bound_Ct(self.dim, gammas, k) for k in ts]

    def oracle_at(self, lam: float, tol: float) -> oracle.OracleResult:
        eset, grid = self.route3
        return oracle.informational_power(catalog.depolarize(eset, lam), grid, tol=tol)


def cmd_build(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    base = _Base(spec)
    result = {"spec": catalog.spec_to_json_dict(spec), "dim": spec.dimension}
    if base.eset is None:
        result.update(analytic=True, n_elements=None)
    else:
        eset = catalog.depolarize(base.eset, spec.lam)
        interval = catalog.admissible_lambda(eset)
        result.update(n_elements=len(eset), moments=list(verify.moments(eset, 5).values),
                      admissible_lambda={"lo": interval.lo, "hi": interval.hi,
                                         "clamped": interval.clamped},
                      design_strength=catalog.design_strength(spec.family))
    _emit(result, seed, {}, args)
    return 0


def cmd_verify(args) -> int:
    seed = _seed(args)
    tolerances = {"span_residual": verify.SPAN_RESIDUAL_TOL,
                  "trace_mismatch": verify.TRACE_MISMATCH_TOL,
                  "mu_consistency": verify.MU_CONSISTENCY_TOL}
    fields = _spec_fields(args)
    if fields["family"] == "uniform" and fields.get("dim") is None:
        # no dimension: admit the lambdas that are admissible in every d
        lam = float(fields.get("lambda", 1.0))
        if not 0.0 <= lam <= 1.0:
            raise catalog.LambdaRangeError(
                f"lambda={lam} outside [0, 1]; give --dim for [1/(1-d), 1]")
        spec_dict, eset = {"family": "uniform", "lambda": lam, "fiducial_phase": None}, None
    else:
        spec = catalog.spec_from_json_dict(fields)
        spec_dict = catalog.spec_to_json_dict(spec)
        eset = _Base(spec).eset
    if eset is None:
        # analytic route, valid at every t and dimension; --dim is optional here
        if args.t < 1:
            raise ValueError(f"t must be >= 1, got {args.t}")
        if args.spotchecks < 0:
            raise ValueError(f"n_spotchecks must be >= 0, got {args.spotchecks}")
        certificate, code = {"strength_tested": args.t, "verdict": "pass",
                             "notes": "analytic: the Haar-uniform POVM is a t design"
                                      " for every t"}, 0
    else:
        cert = verify.certify(catalog.depolarize(eset, spec.lam), args.t,
                              n_spotchecks=args.spotchecks, seed=seed)
        certificate, code = cert.to_json_dict(), 0 if cert.passed else 2
    _emit({"spec": spec_dict, "certificate": certificate}, seed, tolerances, args)
    return code


def cmd_capacity(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    unit = LN2 if args.bits else 1.0
    result: dict = {"spec": catalog.spec_to_json_dict(spec),
                    "units": "bits" if args.bits else "nats",
                    "method": "closed-form" if args.method == "closed" else args.method}
    if args.method != "oracle":
        result["closed_form"] = closedform.capacity(spec.family, spec.lam, spec.dim) / unit
    if args.method != "closed":
        res = _Base(spec, seed).oracle_at(spec.lam, args.tol)
        result.update(oracle=res.capacity_estimate / unit, oracle_tightness=res.tightness,
                      oracle_bracket=res.bracket_width)
    if args.method == "both":
        result["discrepancy"] = result["oracle"] - result["closed_form"]
    _emit(result, seed, {"oracle_tol": args.tol}, args)
    return 0


def cmd_bound(args) -> int:
    spec = _resolve_spec(args)
    seed = _seed(args)
    unit = LN2 if args.bits else 1.0
    reports = _Base(spec).bounds_at(spec.lam, args.t)
    result = {"spec": catalog.spec_to_json_dict(spec),
              "units": "bits" if args.bits else "nats",
              "bounds": [{**r.to_json_dict(), "value": r.value / unit} for r in reports]}
    _emit(result, seed, {"cross_check": bounds.CROSS_CHECK_TOL}, args)
    return 0


def _family_token(spec: DesignSpec) -> str:
    one_dim = len(catalog.FAMILY[spec.family].dims) == 1
    return spec.family if one_dim else f"{spec.family}:{spec.dimension}"


def _sweep_rows(token: str, specs: list, seed: int | None, tol: float) -> list:
    """The CSV rows of one family token, one per spec: token, lambda, closed form, C_2..C_5
    and, given a seed, the oracle's rate. They read one lambda = 1 base, dropped on return."""
    first = specs[0]
    base = _Base(DesignSpec(first.family, 1.0, first.fiducial_phase, first.dim), seed)
    rows = []
    for spec in specs:
        closed = closedform.capacity(spec.family, spec.lam, spec.dim)
        cts = [r.value for r in base.bounds_at(spec.lam)]
        cts += [None] * (4 - len(cts))  # the CSV's C2..C5 columns
        rate = None if seed is None else base.oracle_at(spec.lam, tol).capacity_estimate
        rows.append((token, spec.lam, closed, *cts, rate))
    return rows


def cmd_sweep(args) -> int:
    seed = _seed(args)
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    if args.lambda_end < args.lambda_start:
        raise ValueError("lambda-end must be >= lambda-start")
    lams = np.linspace(args.lambda_start, args.lambda_end, args.steps)
    fams = [_spec_fields(args, tok) for tok in args.families.split(",") if tok]
    if not fams:
        raise ValueError("no family given (use --families)")
    specs = [[catalog.spec_from_json_dict({**fields, "lambda": float(lam)}) for lam in lams]
             for fields in fams]
    tokens = [_family_token(family[0]) for family in specs]
    if args.with_oracle:  # refuse before any row is computed
        for family in specs:
            _check_oracle(family[0])

    # each distinct token's rows are computed once, so a sweep holds one grid at a time, and
    # repeated for each occurrence; the i-th family's oracle runs at seed + 7919 i, i the
    # index of the token's first occurrence
    rows = []
    for token in dict.fromkeys(tokens):
        i = tokens.index(token)
        family_seed = seed + 7919 * i if args.with_oracle else None
        rows += _sweep_rows(token, specs[i], family_seed, args.tol) * tokens.count(token)
    rows.sort(key=lambda r: r[:2])

    def fmt(v):
        return "" if v is None else f"{v:.12g}"

    lines = ["family,lambda,closed_form,C2,C3,C4,C5,oracle"]
    lines += [",".join([r[0], *map(fmt, r[1:])]) for r in rows]
    _write("\n".join(lines) + "\n", args)
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


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it unchanged, and
    building it costs more than parsing (each ``add_argument`` makes a help formatter)."""
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
    except Exception as exc:  # CLI boundary: anything unexpected is exit 1
        print(f"tdesigncap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
