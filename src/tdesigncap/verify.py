"""Moments, indices of coincidence, and exact t-design certification.

The certificate test is algebraic: the t-fold average M_t of a genuine
t design must (a) lie in the span of the permutation operators W_sigma on
(C^d)^{ot t} -- the commutant of U^{ot t} -- and (b) have trace inner
products Tr[M_t W_sigma] equal to the product of moments over the cycles
of sigma. Both conditions together pin M_t to the Haar average, so the
verdict is exact up to the stated numerical thresholds.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import WeightedElementSet, haar_random_state

SPAN_RESIDUAL_TOL = 1e-8
TRACE_MISMATCH_TOL = 1e-8
MU_CONSISTENCY_TOL = 1e-9
RESOURCE_GUARD = 4096  # max d**t; covers d=2 t<=5, d=3 t<=5, d=8 t<=4


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
# permutation operator machinery (cached per (d, t))

class _PermutationBasis:
    def __init__(self, d: int, t: int):
        self.d = d
        self.t = t
        self.perms = list(permutations(range(t)))
        dims = (d,) * t
        J = np.array(np.unravel_index(np.arange(d ** t), dims))  # (t, d^t)
        self.index_maps = []
        for sigma in self.perms:
            inv = _invert(sigma)
            # W_sigma |j_1..j_t> = |j_{sigma^{-1}(1)} ... j_{sigma^{-1}(t)}>
            self.index_maps.append(np.ravel_multi_index(tuple(J[list(inv), :]), dims))
        self.cycle_types = [_cycle_type(s) for s in self.perms]
        n = len(self.perms)
        self.gram = np.empty((n, n))
        for i, s in enumerate(self.perms):
            si = _invert(s)
            for j, tau in enumerate(self.perms):
                self.gram[i, j] = float(d) ** len(_cycle_type(_compose(si, tau)))
        self.inverse_pos = [self.perms.index(_invert(s)) for s in self.perms]


def _invert(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


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


_BASIS_CACHE: dict[tuple[int, int], _PermutationBasis] = {}
_BASIS_LOCK = threading.Lock()


def _permutation_basis(d: int, t: int) -> _PermutationBasis:
    key = (d, t)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        with _BASIS_LOCK:
            basis = _BASIS_CACHE.get(key)
            if basis is None:
                basis = _PermutationBasis(d, t)
                _BASIS_CACHE[key] = basis
    return basis


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

    Builds M_t = sum_x p_x chi_x^{ot t} and checks (a) membership in the
    permutation-operator span (least squares through the Gram matrix, with a
    pseudo-inverse fallback when the W_sigma are dependent) and (b) the
    cycle-product trace identities, with the moments mu_k read off the
    single-k-cycle traces themselves. Traces of permutations sharing a cycle
    type must agree to 1e-9; a spread beyond that fails the certificate
    outright instead of being averaged away.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    d = eset.dim
    if d ** t > RESOURCE_GUARD:
        raise ResourceGuardError(f"d^t = {d ** t} exceeds the guard {RESOURCE_GUARD}")
    basis = _permutation_basis(d, t)
    D = d ** t

    M = np.zeros((D, D), dtype=complex)
    for w, op in zip(eset.weights, eset.ops):
        K = op
        for _ in range(t - 1):
            K = np.kron(K, op)
        M += w * K

    cols = np.arange(D)
    traces = np.array([M[cols, idx].sum() for idx in basis.index_maps])

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, ct in enumerate(basis.cycle_types):
        groups.setdefault(ct, []).append(i)
    spread = 0.0
    for ct, idxs in groups.items():
        vals = traces[idxs]
        spread = max(spread, float(np.abs(vals - vals[0]).max()))
    mu_consistent = spread <= MU_CONSISTENCY_TOL

    # mu_1 = 1 is guaranteed by the element-set type (unit traces); higher
    # moments come from the single-k-cycle traces.
    mus = {1: 1.0}
    for k in range(2, t + 1):
        ct = tuple(sorted([k] + [1] * (t - k)))
        mus[k] = float(np.mean(traces[groups[ct]].real))
    mismatches = {}
    for ct, idxs in groups.items():
        predicted = 1.0
        for l in ct:
            predicted *= mus[l]
        mismatches[ct] = float(np.abs(traces[idxs] - predicted).max())

    # span membership: least squares against the Gram matrix, then an
    # explicit residual matrix (avoids the cancellation of the normal-equation
    # residual formula).
    b = np.array([traces[basis.inverse_pos[i]] for i in range(len(basis.perms))])
    try:
        coeffs = np.linalg.solve(basis.gram, b)
    except np.linalg.LinAlgError:
        coeffs, *_ = np.linalg.lstsq(basis.gram, b, rcond=None)
    R = M.copy()
    for idx, c in zip(basis.index_maps, coeffs):
        R[idx, cols] -= c
    span_residual = float(np.linalg.norm(R))

    verdict = "pass" if (span_residual <= SPAN_RESIDUAL_TOL
                         and max(mismatches.values()) <= TRACE_MISMATCH_TOL
                         and mu_consistent) else "fail"
    notes = "" if mu_consistent else (
        f"same-cycle-type traces disagree by {spread:.3e} (> {MU_CONSISTENCY_TOL:.0e})")

    try:
        mv = MomentVector(values=tuple(mus[k] for k in range(1, t + 1)), mu0=d)
    except ValueError:
        mv = None  # non-designs can yield invalid moment vectors

    spotchecks: list[tuple[int, int, float]] = []
    if n_spotchecks > 0 and mv is not None:
        rng = np.random.default_rng(seed)
        probe_seeds = rng.integers(0, 2 ** 63 - 1, size=n_spotchecks)
        for ps in probe_seeds:
            phi = haar_random_state(d, int(ps))
            for k in range(1, min(t, 5) + 1):
                err = abs(gamma_empirical(eset, phi, k) - gamma_predicted(mv, d, k))
                spotchecks.append((int(ps), k, float(err)))

    return DesignCertificate(strength_tested=t, span_residual=span_residual,
                             trace_mismatches=mismatches, verdict=verdict,
                             gamma_spotchecks=spotchecks, moments=mv,
                             mu_spread=spread, mu_consistent=mu_consistent,
                             seed=seed, notes=notes)


def symmetric_projector(d: int, t: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^d)^{ot t}."""
    basis = _permutation_basis(d, t)
    D = d ** t
    P = np.zeros((D, D))
    cols = np.arange(D)
    for idx in basis.index_maps:
        P[idx, cols] += 1.0
    return P / math.factorial(t)
