"""Hermite-interpolation machinery and the capacity upper bounds C_1..C_5.

A polynomial r that interpolates eta(x) = -x ln x from below on [0, 1] turns
the index-of-coincidence vector (gamma_1..gamma_t) of a t design into the
capacity bound ln d - d sum_i a_i gamma_i. The two admissible node patterns
(single contact at the left endpoint, double contacts inside, optional single
contact at the right endpoint for odd degree) guarantee the below property by
the Hermite remainder (Stoer & Bulirsch, Introduction to Numerical Analysis,
section 2.1.5): with N = sum m_i contact conditions and
omega(x) = x prod_j (x - x_j)^2 (x - 1)^[t odd], every x in [0, 1] has a xi in
(0, 1) with

    eta(x) - r(x) = eta^(N)(xi) / N! * omega(x),

and eta^(k)(x) = (-1)^(k-1) (k-2)! x^(1-k) for k >= 2 has constant sign on
(0, 1]. With n interior double contacts N = 1 + 2n + [t odd], which has the
parity of t + 1. For even t, N is odd, eta^(N) > 0 and omega >= 0; for odd t,
N is even, eta^(N) < 0 and omega <= 0, its factor x - 1 being the only
negative one. Either way eta - r >= 0. The contact at 0 is simple, so Rolle's
argument needs eta only continuous at 0, where it is not differentiable.

The optimal nodes are those of a quadrature rule for the overlap
distribution nu, whose moments are 1, gamma_1..gamma_t: Gauss-Radau with a
node fixed at 0 for even t, Gauss-Lobatto with nodes fixed at 0 and 1 for
odd t. The rule integrates r exactly and r = eta on its nodes, so
C_t = ln d - d sum_j w_j eta(x_j) (Golub & Welsch 1969 give the
construction). One path computes every t. Each call still builds the
interpolant, and the run-time checks listed at ``bound_Ct`` carry the
remainder argument's hypotheses; the tests check the property numerically
on every interpolant of the figure sweeps.

For t = 4 the discriminant of the node polynomial is

    Delta4 = (g1 g4 - g2 g3)^2 - 4 (g1 g3 - g2^2)(g2 g4 - g3^2),

whose expansion carries a -6 g1 g2 g3 g4 cross term. An alternative variant
with gamma_5 in that cross term appears in some derivations; it is
dimensionally inhomogeneous and inconsistent with the nodes, so it is only
evaluated as a diagnostic (see BoundReport.diagnostics), never used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import eta, eta_array
from .verify import DesignCertificate, gammas, moments

MAX_T = 5  # largest t at which bound_Ct computes C_t
NODE_MIN_SEPARATION = 1e-9
DEFINING_RESIDUAL_TOL = 1e-11
CROSS_CHECK_TOL = 1e-10
HANKEL_RANK_TOL = 1e-12


class PatternError(ValueError):
    """Node/multiplicity layout violates both admissible interpolation patterns."""


class IllConditionedError(ValueError):
    pass


class FormulaDomainError(ArithmeticError):
    """The coincidence vector has no valid quadrature rule (a moment Hankel
    matrix that is not positive definite, nodes outside (0, 1), non-positive
    weights)."""


class GammaConsistencyError(ValueError):
    pass


@dataclass(frozen=True)
class InterpolationSpec:
    """Hermite interpolation data: contact nodes, multiplicities, interval."""

    nodes: tuple[float, ...]
    multiplicities: tuple[int, ...]
    interval: tuple[float, float] = (0.0, 1.0)

    def validate_pattern(self) -> None:
        """Check the invariants that make interpolation-from-below provable.

        Requires x_0 = a with multiplicity 1, strictly increasing nodes, and
        one of: (a) x_last = b with multiplicity 1 and doubled interior nodes,
        or (b) x_last < b with every non-first node doubled.
        """
        a, b = self.interval
        nodes, mult = self.nodes, self.multiplicities
        if len(nodes) != len(mult) or len(nodes) < 2:
            raise PatternError("need at least two nodes with matching multiplicities")
        if not (0.0 <= a < b <= 1.0):
            raise PatternError(f"interval [{a}, {b}] must be a subinterval of [0, 1]")
        if any(m < 1 for m in mult):
            raise PatternError("multiplicities must be positive")
        if any(nodes[i] >= nodes[i + 1] for i in range(len(nodes) - 1)):
            raise PatternError("nodes must be strictly increasing")
        if nodes[0] != a or mult[0] != 1:
            raise PatternError("first node must be the left endpoint with multiplicity 1")
        if nodes[-1] < a or nodes[-1] > b:
            raise PatternError("nodes must lie inside the interval")
        pattern_a = (nodes[-1] == b and mult[-1] == 1
                     and all(m == 2 for m in mult[1:-1]))
        pattern_b = (nodes[-1] < b and all(m == 2 for m in mult[1:]))
        if not (pattern_a or pattern_b):
            raise PatternError(
                f"nodes {nodes} multiplicities {mult} fit neither admissible pattern")


def _eta_derivative(x: float, k: int) -> float:
    if k == 0:
        return eta(x)
    if x <= 0.0:
        raise ValueError("eta derivatives are singular at 0")
    if k == 1:
        return float(-np.log(x) - 1.0)
    return (-1.0) ** (k - 1) * math.factorial(k - 2) * x ** (1 - k)


def hermite_interpolate(spec: InterpolationSpec, check_pattern: bool = True) -> np.ndarray:
    """Coefficients (ascending monomial order) of the Hermite interpolant of eta.

    The polynomial of degree sum(j_i) - 1 matches eta and its derivatives up
    to order j_i - 1 at each node. Solved as a confluent Vandermonde system;
    the defining equations are re-checked to 1e-11 after the solve.
    """
    if check_pattern:
        spec.validate_pattern()
    nodes, mult = spec.nodes, spec.multiplicities
    if min(abs(nodes[i + 1] - nodes[i]) for i in range(len(nodes) - 1)) < NODE_MIN_SEPARATION:
        raise IllConditionedError(f"nodes closer than {NODE_MIN_SEPARATION:g}: {nodes}")
    t = sum(mult) - 1
    rows, rhs = [], []
    for x, j in zip(nodes, mult):
        for k in range(j):
            row = np.zeros(t + 1)
            for i in range(k, t + 1):
                row[i] = math.perm(i, k) * x ** (i - k)
            rows.append(row)
            rhs.append(_eta_derivative(x, k))
    try:
        coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"singular interpolation system: {exc}") from exc
    residual = float(np.abs(np.array(rows) @ coeffs - np.array(rhs)).max())
    if residual > DEFINING_RESIDUAL_TOL:
        raise IllConditionedError(f"interpolation residual {residual:.3e} > 1e-11")
    return coeffs


@dataclass(frozen=True)
class BoundReport:
    """Capacity upper bound C_t with the interpolation nodes that produced it."""

    t: int
    value: float
    nodes: tuple[float, ...]
    gammas: tuple[float, ...]
    delta: float | None = None
    degenerate: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"t": self.t, "value_nats": self.value, "nodes": list(self.nodes),
                "gammas": list(self.gammas), "delta": self.delta,
                "degenerate": self.degenerate, "diagnostics": dict(self.diagnostics)}


def _check_gammas(d: int, gammas: np.ndarray, t: int) -> None:
    if len(gammas) < t:
        raise GammaConsistencyError(f"need gamma_1..gamma_{t}, got {len(gammas)}")
    if np.any(gammas[:t] <= 0):
        raise GammaConsistencyError("indices of coincidence must be positive")
    if np.any(np.diff(gammas[:t]) > 1e-12):
        raise GammaConsistencyError(f"gammas must be non-increasing: {gammas[:t]}")
    if abs(d * gammas[0] - 1.0) > 1e-9:
        raise GammaConsistencyError(
            f"gamma_1 = {gammas[0]!r} != 1/d; rescaled coincidence vectors are rejected")


def _hankel(m: np.ndarray, n: int) -> np.ndarray:
    r = np.arange(n)
    return m[np.add.outer(r, r)]


def _gauss_rule(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the moments m_0..m_{2n-1}.

    Golub-Welsch on the moments: with H = L L^T the Hankel matrix of
    m_0..m_{2n-2} and H1 that of m_1..m_{2n-1}, the nodes are the eigenvalues
    of the Jacobi matrix L^{-1} H1 L^{-T}, and each weight is (m . u)^2 for
    the H-normalised eigenvector u = L^{-T} z. A Hankel matrix that is not
    positive definite belongs to no measure with n or more support points.
    """
    try:
        L = np.linalg.cholesky(_hankel(m, n))
    except np.linalg.LinAlgError as exc:
        raise FormulaDomainError(
            f"moment Hankel matrix of {m[:2 * n - 1]} is not positive definite") from exc
    Li = np.linalg.inv(L)
    x, z = np.linalg.eigh(Li @ _hankel(m[1:], n) @ Li.T)
    return x, (m[:n] @ Li.T @ z) ** 2


def bound_Ct(d: int, gammas, t: int) -> BoundReport:
    """Capacity upper bound C_t from (gamma_1..gamma_t), for t in [1, MAX_T].

    C_t = ln d - d sum_j w_j eta(x_j) for the quadrature rule (x_j, w_j) of
    the overlap distribution nu with moments 1, gamma_1..gamma_t that fixes
    a node at 0 (Gauss-Radau, even t) or at 0 and 1 (Gauss-Lobatto, odd t).
    Its t // 2 free nodes are the Gauss nodes of q dnu, with q(x) = x or
    x (1 - x), which vanishes on the fixed nodes; eta vanishes there too, so
    only the free nodes enter the value. The Hermite interpolant of eta at
    the same nodes is built (it lies below eta by the remainder argument of
    the module docstring, so no numeric scan runs), and its assembly
    ln d - d sum_i a_i gamma_i must agree with the quadrature value to 1e-10;
    it is recorded as diagnostics["assembled"]. The remainder argument's
    hypotheses are checked at run time: ``hermite_interpolate`` validates the
    pattern (simple contact at 0, double contacts inside, simple contact at 1
    for odd t), the node separation ``NODE_MIN_SEPARATION`` and the defining
    residual ``DEFINING_RESIDUAL_TOL``; the free nodes must lie in (0, 1) and
    the assembly must match the quadrature to ``CROSS_CHECK_TOL``.

    A numerically singular Hankel matrix (a one-point coincidence vector,
    e.g. full depolarization) drops the rule to fewer free nodes and marks
    the report degenerate; the value is then the exact limit (0 at full
    depolarization, up to rounding and never below it). For t = 4, when gamma_5
    is supplied the dimensionally inhomogeneous gamma_5 variant of Delta_4 is
    evaluated into diagnostics. A capacity is nonnegative, so a value that rounds
    below 0 is reported as 0, after the cross-check; "assembled" stays raw.
    """
    gam = np.asarray(gammas, dtype=float)
    if not 1 <= t <= MAX_T:
        raise ValueError(f"C_t is computed for t in [1, {MAX_T}], got t = {t}")
    _check_gammas(d, gam, t)
    odd = t % 2
    q = np.array([0.0, 1.0, -1.0])[:2 + odd]  # x, or x (1 - x) = x - x^2
    n = t // 2
    g = np.concatenate(([1.0], gam[:t]))
    m = np.array([q @ g[k:k + len(q)] for k in range(2 * n)])  # moments of q dnu
    H = _hankel(m, n)
    while n > 0 and abs(np.linalg.det(H)) <= HANKEL_RANK_TOL * np.prod(np.abs(np.diag(H))):
        n -= 1
        H = _hankel(m, n)
    x, v = _gauss_rule(m, n)
    if any(not 0.0 < xj < 1.0 for xj in x):
        raise FormulaDomainError(f"quadrature nodes {x} outside (0, 1)")
    w = v / np.polynomial.polynomial.polyval(x, q)
    if any(wj <= 0.0 for wj in w):
        raise FormulaDomainError(f"quadrature weights {w} are not positive")
    value = math.log(d) - d * float(w @ eta_array(x))

    nodes = (0.0, *map(float, x), *(1.0,) * odd)
    coeffs = hermite_interpolate(InterpolationSpec(nodes, (1, *(2,) * n, *(1,) * odd)))
    assembled = math.log(d) - d * float(coeffs[1:] @ gam[:len(coeffs) - 1])
    if abs(assembled - value) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"C_{t} quadrature {value!r} and Hermite assembly {assembled!r} disagree")
    if value <= 0.0:  # rounding below 0 (and -0.0) reads 0; nan stays nan
        value = 0.0
    delta = None
    if n >= 2:  # det(H)^2 prod (x_i - x_j)^2, the discriminant of the node polynomial
        delta = float(np.linalg.det(H) ** 2
                      * np.prod([(a - b) ** 2 for a, b in combinations(x, 2)]))
    diagnostics: dict = {"assembled": assembled}
    if t == 4 and len(gam) >= 5:
        g1, g2, g3, g4, g5 = gam[:5]
        variant = (-3 * g2 ** 2 * g3 ** 2 + 4 * g1 * g3 ** 3 + 4 * g2 ** 3 * g4
                   - 6 * g1 * g2 * g3 * g5 + g1 ** 2 * g4 ** 2)
        diagnostics["delta4_gamma5_variant"] = float(variant)
        if delta is not None:
            diagnostics["delta4_variant_discrepancy"] = float(variant) - delta
    return BoundReport(t=t, value=value, nodes=nodes, gammas=tuple(gam[:t]), delta=delta,
                       degenerate=n < t // 2, diagnostics=diagnostics)


def bound_from_set(eset, t: int, certificate: DesignCertificate | None = None) -> BoundReport:
    """C_t for a finite element set, with gammas derived from measured moments.

    The bound is only guaranteed for genuine t designs, so a missing or
    insufficient certificate raises a warning rather than an error.
    """
    if certificate is None:
        warnings.warn("bound_from_set: no design certificate supplied; the bound is only"
                      f" valid if the set is a genuine {t}-design", stacklevel=2)
    elif certificate.strength_tested < t or not certificate.passed:
        warnings.warn(f"bound_from_set: certificate ({certificate.verdict} at"
                      f" t={certificate.strength_tested}) does not cover t={t}", stacklevel=2)
    return bound_Ct(eset.dim, gammas(moments(eset, MAX_T)), t)
