"""Dense operator utilities and the entropic primitives used across the package.

All information quantities are in nats. Probability-like inputs are validated
against the package-wide tolerances below; entries within a tolerance band of
an exact value (0 or 1) are clamped rather than rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Literal

import numpy as np

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
WEIGHT_TOL = 1e-10
TRACE_TOL = 1e-10
POVM_COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-12
GRID_BLOCK = 1 << 16  # float entries per row block of the grid kernels (512 KiB, cache-sized)

Role = Literal["ensemble", "povm"]


def check_probability_vector(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        raise ValueError(f"non-finite probability entry {float(p[bad[0]])!r} at index {bad[0]}")
    if p.min() < -WEIGHT_TOL:
        raise ValueError(f"negative probability entry {p.min():.3e}")
    s = float(p.sum())
    if abs(s - 1.0) > WEIGHT_TOL:
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


def masked_log(x: np.ndarray) -> np.ndarray:
    """ln x where x > 0, and 0 elsewhere: the 0 ln 0 := 0 convention of every entropy sum."""
    return np.log(x, out=np.zeros_like(x), where=x > 0)


def eta_array(x: np.ndarray) -> np.ndarray:
    """Vectorized eta with the 0 ln 0 := 0 convention (no domain check)."""
    x = np.asarray(x, dtype=float)
    out = masked_log(x)
    out *= x
    return np.negative(out, out=out)


def haar_random_states(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) array of independent Haar states from one seeded stream.

    A seed gives the same states across versions, bit for bit: ``TestGridKernels`` in
    ``tests/test_core.py`` pins them against the former formula.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    v = np.empty((count, dim), dtype=complex)
    v.real = rng.standard_normal((count, dim))
    v.imag = rng.standard_normal((count, dim))
    flat = v.view(float)
    flat *= (1.0 / np.linalg.norm(v, axis=1))[:, None]
    return v


def bloch_states(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Qubit amplitudes (cos theta/2, e^{i phi} sin theta/2) of Bloch angles, (n, 2)."""
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)


def dedupe_states(states, tol: float = 1e-8) -> np.ndarray:
    """The states in order, each dropped if |<kept|phi>|^2 > 1 - tol for an earlier kept one.

    One Gram matrix of the (a few hundred) inputs decides every pair; the walk
    keeps the first of each cluster and retires the rest of its row.
    """
    states = np.asarray(states)
    if len(states) == 0:
        return np.array([])
    close = np.abs(states @ states.conj().T) ** 2 > 1 - tol
    alive = np.ones(len(states), dtype=bool)
    keep = np.zeros(len(states), dtype=bool)
    for i in range(len(states)):
        if alive[i]:
            keep[i] = True
            alive &= ~close[i]
    return states[keep]


def projector_view(states: np.ndarray) -> np.ndarray:
    """The interleaved (re, im) view of A_ij = phi_i conj(phi_j) per state row, (n, 2 d^2)."""
    states = np.asarray(states, dtype=complex)
    n, d = states.shape
    a = (states[:, :, None] * states.conj()[:, None, :]).reshape(n, d * d)
    return np.ascontiguousarray(a).view(float)


@functools.lru_cache(maxsize=None)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices i d + j of the entries i <= j of a d x d matrix, row by row, and each
    entry's factor in the compact layout: 1 on the diagonal, 2 off it. Read-only."""
    i, j = np.triu_indices(d)
    flat, factor = i * d + j, np.where(i == j, 1.0, 2.0)
    for arr in (flat, factor):
        arr.setflags(write=False)
    return flat, factor


def compact_projector_view(states: np.ndarray) -> np.ndarray:
    """The compact Hermitian layout of A = phi phi^dag per state row, (n, d (d + 1)) real.

    Each row holds the interleaved (re, im) parts of A_ij = phi_i conj(phi_j) for i <= j,
    row by row: a Hermitian A is fixed by its upper triangle. With the operators in
    :func:`compact_operator_view`, view @ twin^T = <phi|chi|phi>, as :func:`overlaps`.
    It is built one column pair at a time, in row blocks of about ``GRID_BLOCK`` floats.
    """
    states = np.asarray(states, dtype=complex)
    n, d = states.shape
    conj = states.conj()
    pairs = list(zip(*np.triu_indices(d)))
    out = np.empty((n, len(pairs)), dtype=complex)
    rows = max(1, GRID_BLOCK // (2 * len(pairs)))
    for lo in range(0, n, rows):
        s, c, o = states[lo:lo + rows], conj[lo:lo + rows], out[lo:lo + rows]
        for k, (i, j) in enumerate(pairs):
            np.multiply(s[:, i], c[:, j], out=o[:, k])
    return out.view(float)


def compact_operator_view(ops: np.ndarray) -> np.ndarray:
    """The twin of :func:`compact_projector_view` for Hermitian operators, (m, d (d + 1)) real.

    Each row holds the (re, im) parts of chi_ij for i <= j with the off-diagonal entries
    doubled: <phi|chi|phi> = sum_ij Re conj(A_ij) chi_ij, whose (i, j) and (j, i) terms
    are equal for Hermitian A and chi.
    """
    ops = np.asarray(ops, dtype=complex)
    m, d = ops.shape[0], ops.shape[-1]
    flat, factor = _upper_triangle(d)
    return (ops.reshape(m, d * d).take(flat, axis=1) * factor).view(float)


def overlaps(states: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """<phi_x|chi_y|phi_x> for every state row and operator, (n, m) real.

    With A_ij = phi_i conj(phi_j) this is Re sum_ij conj(A_ij) chi_ij, one real
    matmul of the interleaved (re, im) views: no complex (n, m) temporary.
    """
    d = np.shape(states)[1]
    b = np.ascontiguousarray(np.reshape(ops, (-1, d * d)), dtype=complex)
    return projector_view(states) @ b.view(float).T


@dataclass(frozen=True, eq=False)
class WeightedElementSet:
    """A finite weighted family of unit-trace positive operators.

    ``ops[x]`` is the unit-trace operator chi_x and ``weights[x]`` the probability p_x; a
    POVM-role set additionally satisfies d * sum_x p_x chi_x = identity, i.e. the effects
    are d * p_x * chi_x. Validation is batched over the elements and names the first
    offender; positivity is one batched Cholesky factorisation of chi_x + tol * 1, and only
    a set it refuses is diagonalised, to name the element. Only ``_derived`` skips it, for
    ``catalog.depolarize`` at 0 <= lam <= 1, whose ops (valid elements mixed with 1/d) pass
    every check.

    ``spectrum`` is the read-only (n, d) array of each element's eigenvalues in ascending
    order, the batched ``eigvalsh`` of ``ops`` made on its first read and kept. It is
    measured, never passed: every construction, including ``dataclasses.replace``,
    diagonalises its own ops at most once, and a set whose spectrum is never read (a
    depolarized set that only the oracle uses) is not diagonalised at all. The moments and
    admissible interval read it from here.

    Two sets are equal when their ``dim``, ``role``, ``weights`` and ``ops``
    are; the label is left out. A set is not hashable.
    """

    dim: int
    weights: np.ndarray
    ops: np.ndarray
    role: Role = "ensemble"
    label: str = ""

    def __post_init__(self):
        weights = check_probability_vector(np.asarray(self.weights, dtype=float))
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"ops must have shape (n, {self.dim}, {self.dim}), got {ops.shape}")
        if ops.shape[0] != weights.shape[0]:
            raise ValueError("weights and ops length mismatch")
        if self.role not in ("ensemble", "povm"):
            raise ValueError(f"unknown role {self.role!r}")
        finite = np.isfinite(ops).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"element {int(np.argmin(finite))} has a non-finite entry")
        herm = np.abs(ops - ops.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        if herm.max() > HERMITICITY_TOL:
            x = int(np.argmax(herm > HERMITICITY_TOL))
            raise ValueError(f"element {x} is not Hermitian: max |M - M^dag| = {herm[x]:.3e}")
        tr = np.einsum("xii->x", ops)
        if np.abs(tr - 1.0).max() > TRACE_TOL:
            x = int(np.argmax(np.abs(tr - 1.0) > TRACE_TOL))
            raise ValueError(f"element {x} has trace {complex(tr[x])!r}, expected 1")
        try:
            np.linalg.cholesky(ops + POSITIVITY_TOL * np.eye(self.dim))
        except np.linalg.LinAlgError:
            # The two tests disagree only within rounding of the threshold:
            # an element the eigenvalues put above it is accepted.
            lo = np.linalg.eigvalsh(ops)[:, 0]
            if lo.min() < -POSITIVITY_TOL:
                x = int(np.argmax(lo < -POSITIVITY_TOL))
                raise ValueError(f"element {x} is not positive semidefinite:"
                                 f" min eigenvalue {lo[x]:.3e}") from None
        if self.role == "povm":
            avg = np.einsum("x,xij->ij", weights, ops)
            dev = np.abs(self.dim * avg - np.eye(self.dim)).max()
            if dev > POVM_COMPLETENESS_TOL:
                raise ValueError(f"POVM completeness violated: |d avg - 1| = {dev:.3e}")
        weights.setflags(write=False)
        ops.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ops", ops)

    @classmethod
    def _derived(cls, source: WeightedElementSet, ops: np.ndarray) -> WeightedElementSet:
        """``source`` with the complex ``ops`` in place of its own, made read-only, unchecked."""
        ops.setflags(write=False)
        out = object.__new__(cls)
        vars(out).update({f.name: getattr(source, f.name) for f in fields(cls)}, ops=ops)
        return out

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim == other.dim and self.role == other.role
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.ops, other.ops))

    def __len__(self) -> int:
        return self.ops.shape[0]

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        spectrum = np.linalg.eigvalsh(self.ops)
        spectrum.setflags(write=False)
        return spectrum


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
    return WeightedElementSet(dim, weights, ops, role, label)
