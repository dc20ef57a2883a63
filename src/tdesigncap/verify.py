"""Moments, indices of coincidence, and exact t-design certification.

The certificate test is algebraic: the t-fold average M_t of a genuine
t design must (a) lie in the span of the permutation operators W_sigma on
(C^d)^{ot t} -- the commutant of U^{ot t} -- and (b) have trace inner
products Tr[M_t W_sigma] equal to the product of moments over the cycles
of sigma. Both conditions together pin M_t to the Haar average, so the
verdict is exact up to the stated numerical thresholds.

Both are decided from scalars, never from the d^t x d^t matrix M_t: the
cycle-product traces sum_x p_x prod_l Tr[chi_x^l], the frame potential
||M_t||^2 = sum_xy p_x p_y (Tr[chi_x chi_y])^t, and the characters of S_t,
which give the projection onto the conjugacy-class sums as a sum over
mutually orthogonal isotypic components. The kernels are evaluated in
extended precision (np.longdouble) and the residual's last subtraction in
exact rationals. The cost grows with the number of elements and with the
number of partitions of t, not with d^t or t!; certify admits
1 <= t <= MAX_T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .core import WeightedElementSet, haar_random_states, overlaps

SPAN_RESIDUAL_TOL = 1e-8
TRACE_MISMATCH_TOL = 1e-8
MU_CONSISTENCY_TOL = 1e-9
MAX_T = 7  # the cancellation floor of passing designs is measured only up to t = 7


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
    """mu_k = sum_x p_x Tr[chi_x^k] for k = 1..k_max, from the set's spectrum.

    The set diagonalises its elements on the first read of its spectrum and
    keeps the eigenvalues, so this shares them with :func:`admissible_lambda`
    and :func:`certify`.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    vals = []
    for k in range(1, k_max + 1):
        vals.append(float(eset.weights @ (eset.spectrum ** k).sum(axis=1)))
    return MomentVector(values=tuple(vals), mu0=eset.dim)


# ---------------------------------------------------------------------------
# indices of coincidence

def gammas(mv: MomentVector) -> tuple[float, ...]:
    """The indices of coincidence gamma_1..gamma_k of a mixed k design, k = len(mv).

    gamma_k = B_k(x_1..x_k) / (d (d+1) ... (d+k-1)) with d = mu_0, the complete
    Bell polynomial of x_i = (i-1)! mu_i. Every B_k comes from one pass of the
    recurrence B_0 = 1, B_{n+1} = sum_{j=0}^{n} C(n, j) x_{j+1} B_{n-j}.
    """
    x = [math.factorial(i) * mu for i, mu in enumerate(mv.values)]
    b = [1.0]
    for n in range(len(x)):
        b.append(sum(math.comb(n, j) * x[j] * b[n - j] for j in range(n + 1)))
    return tuple(b[k] / math.prod(range(mv.mu0, mv.mu0 + k)) for k in range(1, len(b)))


# ---------------------------------------------------------------------------
# characters of S_t and the isotypic components of (C^d)^{ot t}

def _partitions(n: int, most: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n into parts <= most, as descending tuples."""
    most = n if most is None else most
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, most), 0, -1) for rest in _partitions(n - p, p)]


@cache
def _character(beta: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """chi^mu(lambda) by Murnaghan-Nakayama on the beta-set of mu.

    Removing a border strip of length r moves a bead from b to a free b - r,
    with sign (-1)^(beads in between).
    """
    if not parts:
        return 1
    r = parts[-1]
    return sum((-1) ** sum(b - r < c < b for c in beta)
               * _character(tuple(sorted(c if c != b else b - r for c in beta)), parts[:-1])
               for b in beta if b >= r and b - r not in beta)


@dataclass(frozen=True)
class _CharacterTable:
    """chi^mu(lambda) for mu |- t with at most d parts, and its integer form.

    coef = chi^mu(lambda) lcm(z) / z_lambda, weight = f^mu lcm(s) / s_mu(1^d)
    and den = lcm(s) lcm(z)^2.
    """

    classes: tuple[tuple[int, ...], ...]  # lambda |- t, ascending parts, sorted
    z: tuple[int, ...]  # centraliser orders z_lambda
    chi: tuple[tuple[int, ...], ...]
    f: tuple[int, ...]  # f^mu from hook lengths
    s: tuple[int, ...]  # s_mu(1^d) from hook lengths and contents
    coef: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]
    den: int


@cache
def _character_table(d: int, t: int) -> _CharacterTable:
    classes = tuple(sorted(lam[::-1] for lam in _partitions(t)))
    z = tuple(math.prod(l ** lam.count(l) * math.factorial(lam.count(l)) for l in set(lam))
              for lam in classes)
    chi, f, s = [], [], []
    for mu in _partitions(t):
        if len(mu) > d:
            continue
        beta = tuple(sorted(m + len(mu) - 1 - i for i, m in enumerate(mu)))
        chi.append(tuple(_character(beta, lam) for lam in classes))
        cells = [(i, j) for i, m in enumerate(mu) for j in range(m)]
        hooks = math.prod(mu[i] - j + sum(n > j for n in mu[i + 1:]) for i, j in cells)
        f.append(math.factorial(t) // hooks)
        s.append(math.prod(d + j - i for i, j in cells) // hooks)
    zl, sl = math.lcm(*z), math.lcm(*s)
    return _CharacterTable(classes, z, tuple(chi), tuple(f), tuple(s),
                           tuple(tuple(c * (zl // zi) for c, zi in zip(row, z)) for row in chi),
                           tuple(fi * (sl // si) for fi, si in zip(f, s)), sl * zl * zl)


def _projection_norm2(table: _CharacterTable, T) -> Fraction:
    """sum_mu f^mu (sum_lambda chi^mu(lambda) T_lambda / z_lambda)^2 / s_mu(1^d), exactly."""
    nums, dens = zip(*(x.as_integer_ratio() for x in T))
    scale = math.lcm(*dens)
    n = [a * (scale // q) for a, q in zip(nums, dens)]
    proj = sum(w * sum(c * x for c, x in zip(row, n)) ** 2
               for w, row in zip(table.weight, table.coef))
    return Fraction(proj, table.den * scale * scale)


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
    # (probe, k, abs_error); probe i is row i of haar_random_states(d, n, seed)
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
            "gamma_spotchecks": [{"probe": i, "k": k, "abs_error": e}
                                 for i, k, e in self.gamma_spotchecks],
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
    its projection lies in the span of the class sums, which is that of the
    isotypic projectors P_mu (mu |- t, at most d parts), and the squared
    residual is ||M_t||^2 - sum_mu f^mu (sum_lambda chi^mu(lambda) T_lambda /
    z_lambda)^2 / s_mu(1^d), with ||M_t||^2 = sum_xy p_x p_y
    (Tr[chi_x chi_y])^t; and
    (b) the cycle-product identities T_lambda = prod_{l in lambda} mu_l.
    The kernels are formed in extended precision (np.longdouble) and the
    subtraction in exact rationals: in float64 the cancellation alone reaches
    the 1e-8 threshold on genuine designs. ``mu_spread`` is the largest
    difference between the power-trace moments and the eigenvalue moments of
    :func:`moments`. Admits 1 <= t <= MAX_T.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n_spotchecks < 0:
        raise ValueError(f"n_spotchecks must be >= 0, got {n_spotchecks!r}")
    if t > MAX_T:
        raise ResourceGuardError(
            f"t = {t} is outside the admitted range 1 <= t <= {MAX_T}: the cancellation"
            f" floor of passing designs is measured only up to t = {MAX_T}")
    d = eset.dim
    table = _character_table(d, t)
    w = eset.weights.astype(np.longdouble)
    tr = _power_traces(eset.ops, t)
    T = [w @ np.prod(tr[:, list(ct)], axis=1) for ct in table.classes]

    mu_traces = [float(w @ tr[:, k]) for k in range(1, t + 1)]
    # mu_1 = 1 is guaranteed by the element-set type (unit traces).
    mus = dict(enumerate([1.0] + mu_traces[1:], start=1))
    mismatches = {ct: abs(float(T_ct) - math.prod(mus[l] for l in ct))
                  for ct, T_ct in zip(table.classes, T)}
    spread = max(abs(a - b) for a, b in zip(mu_traces, moments(eset, t).values))
    mu_consistent = spread <= MU_CONSISTENCY_TOL

    r2 = (Fraction(*_frame_potential(eset.ops, eset.weights, t).as_integer_ratio())
          - _projection_norm2(table, T))
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
        phis = haar_random_states(d, n_spotchecks, seed)
        ov = overlaps(phis, eset.ops)  # (probe, element)
        ks = range(1, t + 1)
        predicted = np.array(gammas(mv))
        ov_powers = [ov]
        for _ in ks[1:]:
            ov_powers.append(ov_powers[-1] * ov)
        errors = np.abs(np.array(ov_powers) @ eset.weights - predicted[:, None])  # (k, probe)
        spotchecks = [(i, k, float(errors[k - 1, i]))
                      for i in range(n_spotchecks) for k in ks]

    return DesignCertificate(strength_tested=t, span_residual=span_residual,
                             trace_mismatches=mismatches, verdict=verdict,
                             gamma_spotchecks=spotchecks, moments=mv,
                             mu_spread=spread, mu_consistent=mu_consistent,
                             seed=seed, notes=notes)
