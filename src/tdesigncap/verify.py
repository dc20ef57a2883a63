"""Moments, indices of coincidence, and exact t-design certification.

The certificate test is algebraic: the t-fold average M_t of a genuine
t design must (a) lie in the span of the permutation operators W_sigma on
(C^d)^{ot t} -- the commutant of U^{ot t} -- and (b) have trace inner
products Tr[M_t W_sigma] equal to the product of moments over the cycles
of sigma. Both conditions together pin M_t to the Haar average, so the
verdict is exact up to the stated numerical thresholds.

Both are decided from scalars, never from the d^t x d^t matrix M_t: the
cycle-product traces sum_x p_x prod_l Tr[chi_x^l], the frame potential
||M_t||^2 = sum_xy p_x p_y (Tr[chi_x chi_y])^t, and the exact integer Gram
matrix of the conjugacy-class sums of S_t. The kernels are evaluated in
extended precision (np.longdouble) and the residual's last subtraction in
exact rationals. The cost grows with the number of elements and with t!,
not with d^t; certify admits 1 <= t <= MAX_T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations

import numpy as np

from .core import WeightedElementSet, haar_random_state

SPAN_RESIDUAL_TOL = 1e-8
TRACE_MISMATCH_TOL = 1e-8
MU_CONSISTENCY_TOL = 1e-9
MAX_T = 7  # the class Gram matrix costs p(t) * t! permutation products: ~0.3 s at t = 7, ~3 s at 8


class ResourceGuardError(ValueError):
    pass


@dataclass(frozen=True)
class MomentVector:
    """Moments mu_1..mu_t of a weighted element set, plus mu_0 = d."""

    values: tuple[float, ...]
    mu0: int

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least mu_1")
        if abs(self.values[0] - 1.0) > 1e-10:
            raise ValueError(f"mu_1 = {self.values[0]!r}, expected 1 (unit traces)")
        for k in range(len(self.values) - 1):
            if self.values[k + 1] > self.values[k] + 1e-10:
                raise ValueError(f"moments must be non-increasing, got mu_{k+1}={self.values[k]}"
                                 f" < mu_{k+2}={self.values[k+1]}")

    def __getitem__(self, k: int) -> float:
        """mu_k with mu_0 = d."""
        if k == 0:
            return float(self.mu0)
        return self.values[k - 1]

    def __len__(self) -> int:
        return len(self.values)


def moments(eset: WeightedElementSet, k_max: int) -> MomentVector:
    """mu_k = sum_x p_x Tr[chi_x^k] for k = 1..k_max, via element eigenvalues."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    eigs = np.linalg.eigvalsh(eset.ops)  # (n, d), ascending, real
    vals = []
    for k in range(1, k_max + 1):
        vals.append(float(eset.weights @ (eigs ** k).sum(axis=1)))
    return MomentVector(values=tuple(vals), mu0=eset.dim)


# ---------------------------------------------------------------------------
# Bell polynomials and indices of coincidence

def bell_polynomial(x: list[float]) -> float:
    """Complete exponential Bell polynomial B_k(x_1..x_k) for k <= 5.

    Evaluated by the recurrence B_0 = 1,
    B_{n+1} = sum_{j=0}^{n} C(n, j) x_{j+1} B_{n-j}.
    """
    k = len(x)
    if k > 5:
        raise ValueError("bell_polynomial supports k <= 5")
    b = [1.0]
    for n in range(k):
        b.append(sum(math.comb(n, j) * x[j] * b[n - j] for j in range(n + 1)))
    return b[k]


def gamma_from_bell(mv: MomentVector, d: int, k: int) -> float:
    """gamma_k through the Bell-polynomial form with x_i = (i-1)! mu_i."""
    xs = [math.factorial(i - 1) * mv[i] for i in range(1, k + 1)]
    return math.factorial(d - 1) / math.factorial(d + k - 1) * bell_polynomial(xs)


def gamma_predicted(mv: MomentVector, d: int, k: int) -> float:
    """The closed-form index of coincidence gamma_k, k <= 5.

    Cross-checked against the Bell-polynomial form to 1e-12; a mismatch is an
    internal inconsistency and raises.
    """
    if k < 1 or k > 5:
        raise ValueError("gamma_predicted supports k in [1, 5]")
    if k > len(mv):
        raise ValueError(f"need moments up to {k}, have {len(mv)}")
    mu2 = mv[2] if k >= 2 else 0.0
    mu3 = mv[3] if k >= 3 else 0.0
    mu4 = mv[4] if k >= 4 else 0.0
    mu5 = mv[5] if k >= 5 else 0.0
    if k == 1:
        val = 1.0 / d
    elif k == 2:
        val = (1.0 + mu2) / (d * (d + 1))
    elif k == 3:
        val = (1.0 + 3 * mu2 + 2 * mu3) / (d * (d + 1) * (d + 2))
    elif k == 4:
        val = (1.0 + 6 * mu2 + 3 * mu2 ** 2 + 8 * mu3 + 6 * mu4) / (d * (d + 1) * (d + 2) * (d + 3))
    else:
        val = (1.0 + 10 * mu2 + 15 * mu2 ** 2 + 20 * mu3 + 30 * mu4 + 20 * mu2 * mu3 + 24 * mu5) / (
            d * (d + 1) * (d + 2) * (d + 3) * (d + 4))
    alt = gamma_from_bell(mv, d, k)
    if abs(val - alt) > 1e-12:
        raise ArithmeticError(
            f"gamma_{k} closed form ({val!r}) disagrees with Bell form ({alt!r})")
    return val


def gamma_empirical(eset: WeightedElementSet, phi: np.ndarray, k: int) -> float:
    """gamma_k(chi, phi) = sum_x p_x <phi|chi_x|phi>^k for a pure probe state."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.shape[0] != eset.dim:
        raise ValueError(f"probe state dim {phi.shape[0]} != set dim {eset.dim}")
    ov = np.einsum("i,xij,j->x", phi.conj(), eset.ops, phi).real
    return float(eset.weights @ ov ** k)


# ---------------------------------------------------------------------------
# conjugacy classes of S_t and the exact Gram matrix of their class sums

def _compose(s1, s2):
    return tuple(s1[s2[i]] for i in range(len(s1)))


def _cycle_type(sigma) -> tuple[int, ...]:
    t = len(sigma)
    seen = [False] * t
    lengths = []
    for i in range(t):
        if seen[i]:
            continue
        l, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            l += 1
        lengths.append(l)
    return tuple(sorted(lengths))


def _rref(rows):
    """Reduced row echelon form over the rationals, and its pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for j in range(len(rows[0])):
        i = len(pivots)
        if i == len(rows):
            break
        r = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if r is None:
            continue
        rows[i], rows[r] = rows[r], rows[i]
        rows[i] = [v / rows[i][j] for v in rows[i]]
        for k in range(len(rows)):
            if k != i and rows[k][j]:
                f = rows[k][j]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
        pivots.append(j)
    return rows, pivots


@dataclass(frozen=True)
class _ClassGram:
    """The class sums C_lambda = sum_{sigma in lambda} W_sigma on (C^d)^{ot t}.

    ``gram[a][b] = Tr[C_a^dag C_b]`` exactly; ``pivots`` index a maximal
    independent set S of class sums, and the integers ``quad`` and ``quad_den``
    give |S_i| |S_j| (H_S^-1)_ij = quad[i][j] / quad_den, so that
    beta^T H_S^-1 beta = sum_ij T_i T_j quad[i][j] / quad_den for beta_a = |a| T_a.
    """

    classes: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    quad: tuple[tuple[int, ...], ...]
    quad_den: int


@cache
def _class_gram(d: int, t: int) -> _ClassGram:
    # Tr[W_sigma^dag W_tau] = d^{cycles(sigma^-1 tau)}. The sum over tau in a
    # class depends only on the class of sigma^-1, which is that of sigma, so
    # the sum over sigma in a class is |class| times that for one member.
    perms = list(permutations(range(t)))
    types = [_cycle_type(s) for s in perms]
    classes = tuple(sorted(set(types)))
    col = {ct: j for j, ct in enumerate(classes)}
    sizes = [types.count(ct) for ct in classes]
    gram = []
    for ct, size in zip(classes, sizes):
        rep = perms[types.index(ct)]
        row = [0] * len(classes)
        for tau, ct_tau in zip(perms, types):
            row[col[ct_tau]] += d ** len(_cycle_type(_compose(rep, tau)))
        gram.append(tuple(size * h for h in row))
    pivots = tuple(_rref(gram)[1])
    s = len(pivots)
    augmented = [[gram[a][b] for b in pivots] + [int(i == j) for j in range(s)]
                 for i, a in enumerate(pivots)]
    inverse = [row[s:] for row in _rref(augmented)[0]]
    den = math.lcm(*(v.denominator for row in inverse for v in row))
    quad = tuple(tuple(int(sizes[a] * sizes[b] * inverse[i][j] * den)
                       for j, b in enumerate(pivots)) for i, a in enumerate(pivots))
    return _ClassGram(classes, tuple(gram), pivots, quad, den)


def _power_traces(ops: np.ndarray, t: int) -> np.ndarray:
    """(n, t + 1) array of Tr[chi_x^l], l = 0..t, in extended precision.

    Tr[chi^(a+b)] = sum_ij (chi^a)_ij conj((chi^b)_ij) for Hermitian powers, so
    powers up to ceil(t/2) suffice.
    """
    n, d, _ = ops.shape
    chi = ops.astype(np.clongdouble)
    powers = [None, chi]
    for _ in range((t + 1) // 2 - 1):
        powers.append(powers[-1] @ chi)
    out = np.empty((n, t + 1), dtype=np.longdouble)
    out[:, 0] = d
    out[:, 1] = np.einsum("xii->x", chi).real
    for l in range(2, t + 1):
        a, b = powers[(l + 1) // 2], powers[l // 2]
        out[:, l] = (a.real * b.real + a.imag * b.imag).sum(axis=(1, 2))
    return out


def _frame_potential(ops: np.ndarray, weights: np.ndarray, t: int) -> np.longdouble:
    """||M_t||^2 = sum_xy p_x p_y (Tr[chi_x chi_y])^t in extended precision.

    K_xy = Tr[chi_x chi_y] is the Gram matrix of the rows a_x = (Re chi_x,
    Im chi_x). A longdouble matmul is slow, so each row is split exactly as
    hi + lo with hi rounded to b = (53 - log2 m) / 2 bits below the row's
    largest entry: hi @ hi.T is then exact in float64, and the rest is about
    2^-b of K, so its float64 rounding lies below longdouble resolution.
    """
    n = ops.shape[0]
    a = np.concatenate([ops.real.reshape(n, -1), ops.imag.reshape(n, -1)], axis=1)
    bits = (53 - math.ceil(math.log2(a.shape[1]))) // 2
    unit = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=1, keepdims=True))[1] - bits)
    hi = np.round(a / unit) * unit
    lo = a - hi
    k = (hi @ hi.T).astype(np.longdouble) + (hi @ lo.T + lo @ a.T)
    kt = k.copy()
    for _ in range(t - 1):
        kt *= k
    w = weights.astype(np.longdouble)
    return w @ kt @ w


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of the exact design test at strength t."""

    strength_tested: int
    span_residual: float
    trace_mismatches: dict[tuple[int, ...], float]
    verdict: str  # "pass" | "fail"
    gamma_spotchecks: list[tuple[int, int, float]] = field(default_factory=list)
    moments: MomentVector | None = None
    mu_spread: float = 0.0
    mu_consistent: bool = True
    seed: int = 0
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "strength_tested": self.strength_tested,
            "span_residual": self.span_residual,
            "trace_mismatches": {"+".join(map(str, ct)): v
                                 for ct, v in sorted(self.trace_mismatches.items())},
            "verdict": self.verdict,
            "mu_spread": self.mu_spread,
            "mu_consistent": self.mu_consistent,
            "moments": None if self.moments is None else list(self.moments.values),
            "gamma_spotchecks": [{"seed": s, "k": k, "abs_error": e}
                                 for s, k, e in self.gamma_spotchecks],
            "seed": self.seed,
            "notes": self.notes,
        }


def certify(eset: WeightedElementSet, t: int, n_spotchecks: int = 25,
            seed: int = 0) -> DesignCertificate:
    """Exact mixed t-design certificate for a finite weighted element set.

    Works from scalars of M_t = sum_x p_x chi_x^{ot t}; no d^t-sized array is
    formed. T_lambda = sum_x p_x prod_{l in lambda} Tr[chi_x^l] equals
    Tr[M_t W_sigma] for every sigma of cycle type lambda. The certificate checks
    (a) membership in the permutation span: M_t commutes with every W_pi, so
    its projection lies in the span of the class sums C_lambda, and the squared
    residual is ||M_t||^2 - beta^T H_S^-1 beta, with ||M_t||^2 = sum_xy p_x p_y
    (Tr[chi_x chi_y])^t, beta_lambda = |lambda| T_lambda and H_S the exact
    integer Gram matrix of a maximal independent set S of class sums; and
    (b) the cycle-product identities T_lambda = prod_{l in lambda} mu_l.
    The kernels are formed in extended precision (np.longdouble) and the
    subtraction in exact rationals: in float64 the cancellation alone reaches
    the 1e-8 threshold on genuine designs. ``mu_spread`` is the largest
    difference between the power-trace moments and the eigenvalue moments of
    :func:`moments`. Admits 1 <= t <= MAX_T.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > MAX_T:
        raise ResourceGuardError(
            f"t = {t} is outside the admitted range 1 <= t <= {MAX_T}: the class Gram"
            f" matrix enumerates {math.factorial(t)} permutation products per cycle type")
    d = eset.dim
    cg = _class_gram(d, t)
    w = eset.weights.astype(np.longdouble)
    tr = _power_traces(eset.ops, t)
    T = [w @ np.prod(tr[:, list(ct)], axis=1) for ct in cg.classes]

    mu_traces = [float(w @ tr[:, k]) for k in range(1, t + 1)]
    # mu_1 = 1 is guaranteed by the element-set type (unit traces).
    mus = dict(enumerate([1.0] + mu_traces[1:], start=1))
    mismatches = {ct: abs(float(T_ct) - math.prod(mus[l] for l in ct))
                  for ct, T_ct in zip(cg.classes, T)}
    spread = max(abs(a - b) for a, b in zip(mu_traces, moments(eset, t).values))
    mu_consistent = spread <= MU_CONSISTENCY_TOL

    # r^2 = ||M_t||^2 - beta^T H_S^-1 beta, subtracted exactly: every T_a is a
    # dyadic rational, brought here to the common denominator `scale`.
    nums, dens = zip(*(T[a].as_integer_ratio() for a in cg.pivots))
    scale = max(dens)
    b = [n * (scale // q) for n, q in zip(nums, dens)]
    proj = sum(bi * q * bj for bi, row in zip(b, cg.quad) for q, bj in zip(row, b))
    r2 = (Fraction(*_frame_potential(eset.ops, eset.weights, t).as_integer_ratio())
          - Fraction(proj, cg.quad_den * scale * scale))
    span_residual = math.sqrt(abs(r2))

    verdict = "pass" if (span_residual <= SPAN_RESIDUAL_TOL
                         and max(mismatches.values()) <= TRACE_MISMATCH_TOL
                         and mu_consistent) else "fail"
    notes = "" if mu_consistent else (
        f"power-trace and eigenvalue moments disagree by {spread:.3e}"
        f" (> {MU_CONSISTENCY_TOL:.0e})")

    try:
        mv = MomentVector(values=tuple(mus[k] for k in range(1, t + 1)), mu0=d)
    except ValueError:
        mv = None  # non-designs can yield invalid moment vectors

    spotchecks: list[tuple[int, int, float]] = []
    if n_spotchecks > 0 and mv is not None:
        rng = np.random.default_rng(seed)
        probe_seeds = [int(s) for s in rng.integers(0, 2 ** 63 - 1, size=n_spotchecks)]
        phis = np.array([haar_random_state(d, s) for s in probe_seeds])
        # <phi|chi_x|phi> = sum_ij conj(phi_i) chi_ij phi_j, one matmul for all probes
        outer = (phis.conj()[:, :, None] * phis[:, None, :]).reshape(len(phis), d * d)
        ov = (outer @ eset.ops.reshape(len(eset), d * d).T).real
        ks = range(1, min(t, 5) + 1)
        predicted = np.array([gamma_predicted(mv, d, k) for k in ks])
        ov_powers = [ov]
        for _ in ks[1:]:
            ov_powers.append(ov_powers[-1] * ov)
        errors = np.abs(np.array(ov_powers) @ eset.weights - predicted[:, None])  # (k, probe)
        spotchecks = [(s, k, float(errors[k - 1, i]))
                      for i, s in enumerate(probe_seeds) for k in ks]

    return DesignCertificate(strength_tested=t, span_residual=span_residual,
                             trace_mismatches=mismatches, verdict=verdict,
                             gamma_spotchecks=spotchecks, moments=mv,
                             mu_spread=spread, mu_consistent=mu_consistent,
                             seed=seed, notes=notes)
