"""Dense operator utilities and the entropic primitives used across the package.

All information quantities are in nats. Probability-like inputs are validated
against the package-wide tolerances below; entries within a tolerance band of
an exact value (0 or 1) are clamped rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
WEIGHT_TOL = 1e-10
TRACE_TOL = 1e-10
POVM_COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-12
ZERO_PROB = 1e-15

Role = Literal["ensemble", "povm", "design"]


class SupportViolationError(ValueError):
    """p puts mass where q vanishes, so D(p||q) is infinite."""


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} > {tol:.1e}")


def check_positive(m: np.ndarray, tol: float = POSITIVITY_TOL) -> None:
    """Require min eigenvalue >= -tol (Hermitian input assumed)."""
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -tol:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")


def check_probability_vector(p: np.ndarray, tol: float = WEIGHT_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.min() < -tol:
        raise ValueError(f"negative probability entry {p.min():.3e}")
    s = float(p.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"probabilities sum to {s!r}, not 1")
    return np.clip(p, 0.0, None)


def eta(x: float) -> float:
    """eta(x) = -x ln x on [0, 1], with eta(0) = eta(1) = 0.

    Arguments within 1e-12 outside [0, 1] are clamped; anything further out
    is a domain error.
    """
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"eta is defined on [0, 1], got {x!r}")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0:
        return 0.0
    return float(-x * np.log(x))


def eta_array(x: np.ndarray) -> np.ndarray:
    """Vectorized eta with the 0 ln 0 := 0 convention (no domain check)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = -x[mask] * np.log(x[mask])
    return out


def relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence D(p||q) = sum p ln(p/q) in nats.

    Entries of p below 1e-15 are treated as exact zeros (0 ln 0 := 0).
    Raises SupportViolationError if p has mass where q vanishes.
    """
    p = check_probability_vector(np.asarray(p, dtype=float).ravel())
    q = check_probability_vector(np.asarray(q, dtype=float).ravel())
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    bad = (p > 1e-12) & (q < ZERO_PROB)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SupportViolationError(f"p[{i}]={p[i]:.3e} but q[{i}]={q[i]:.3e}")
    mask = p > ZERO_PROB
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) = D(p_XY || p_X p_Y) in nats for a joint probability matrix."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint distribution must be a matrix")
    if joint.min() < -WEIGHT_TOL:
        raise ValueError(f"negative joint entry {joint.min():.3e}")
    total = float(joint.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"joint distribution sums to {total!r}, not 1")
    joint = np.clip(joint, 0.0, None)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return relative_entropy(joint.ravel(), np.outer(px, py).ravel())


def haar_random_state(dim: int, seed: int) -> np.ndarray:
    """A pure state drawn from the unitarily invariant measure; deterministic in seed."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_random_states(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) array of independent Haar states from one seeded stream."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def overlaps(states: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """<phi_x|chi_y|phi_x> for every state row and operator, (n, m) real.

    With A_ij = phi_i conj(phi_j) this is Re sum_ij conj(A_ij) chi_ij, one real
    matmul of the interleaved (re, im) views: no complex (n, m) temporary.
    """
    states = np.asarray(states, dtype=complex)
    n, d = states.shape
    a = np.ascontiguousarray((states[:, :, None] * states.conj()[:, None, :]).reshape(n, d * d))
    b = np.ascontiguousarray(np.reshape(ops, (-1, d * d)), dtype=complex)
    return a.view(float) @ b.view(float).T


@dataclass(frozen=True)
class WeightedElementSet:
    """A finite weighted family of unit-trace positive operators.

    ``ops[x]`` is the unit-trace operator chi_x and ``weights[x]`` the
    probability p_x; a POVM-role set additionally satisfies
    d * sum_x p_x chi_x = identity, i.e. the effects are d * p_x * chi_x.
    ``nu`` is the overall normalization carried alongside (d for POVMs).
    """

    dim: int
    weights: np.ndarray
    ops: np.ndarray
    role: Role = "design"
    nu: float = 1.0
    label: str = field(default="", compare=False)

    def __post_init__(self):
        weights = check_probability_vector(np.asarray(self.weights, dtype=float))
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"ops must have shape (n, {self.dim}, {self.dim}), got {ops.shape}")
        if ops.shape[0] != weights.shape[0]:
            raise ValueError("weights and ops length mismatch")
        if self.role not in ("ensemble", "povm", "design"):
            raise ValueError(f"unknown role {self.role!r}")
        for x, op in enumerate(ops):
            check_hermitian(op)
            tr = complex(np.trace(op))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"element {x} has trace {tr!r}, expected 1")
            check_positive(op)
        if self.role == "povm":
            avg = np.einsum("x,xij->ij", weights, ops)
            dev = np.abs(self.dim * avg - np.eye(self.dim)).max()
            if dev > POVM_COMPLETENESS_TOL:
                raise ValueError(f"POVM completeness violated: |d avg - 1| = {dev:.3e}")
        weights.setflags(write=False)
        ops.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return self.ops.shape[0]

    @property
    def effects(self) -> np.ndarray:
        """POVM effects d * p_x * chi_x (only meaningful for role='povm')."""
        return self.dim * self.weights[:, None, None] * self.ops

    def average(self) -> np.ndarray:
        return np.einsum("x,xij->ij", self.weights, self.ops)

    def transposed(self) -> "WeightedElementSet":
        return WeightedElementSet(self.dim, self.weights, np.transpose(self.ops, (0, 2, 1)),
                                  self.role, self.nu, self.label)


def pure_ensemble(dim: int, amplitudes: np.ndarray, weights: np.ndarray | None = None,
                  role: Role = "ensemble", label: str = "") -> WeightedElementSet:
    """Build a WeightedElementSet of rank-one elements from state amplitudes (n, dim)."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n = amplitudes.shape[0]
    nrm = np.linalg.norm(amplitudes, axis=1)
    if np.abs(nrm - 1.0).max() > NORM_TOL:
        raise ValueError("state vectors must be normalized")
    ops = np.einsum("xi,xj->xij", amplitudes, amplitudes.conj())
    if weights is None:
        weights = np.full(n, 1.0 / n)
    nu = float(dim) if role == "povm" else 1.0
    return WeightedElementSet(dim, weights, ops, role, nu, label)


def pair_probability(ensemble: WeightedElementSet, povm: WeightedElementSet) -> np.ndarray:
    """Joint outcome distribution p[x, y] = p_x * d q_y Tr[rho_x pi_y].

    Rows sum to the ensemble prior p_x; the total is 1 for any valid pair.
    """
    if ensemble.dim != povm.dim:
        raise ValueError(f"dimension mismatch: {ensemble.dim} vs {povm.dim}")
    if povm.role != "povm":
        raise ValueError("second argument must have role 'povm'")
    d = povm.dim
    cond = d * np.einsum("y,xij,yji->xy", povm.weights, ensemble.ops, povm.ops).real
    return ensemble.weights[:, None] * cond
