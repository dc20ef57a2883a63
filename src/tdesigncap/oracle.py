"""Brute-force capacity route: Blahut-Arimoto over discretized pure-state
ensembles, with local refinement, plus the KL upper-bound objective and its
tightness certificate.

The oracle lower-bounds capacity by construction (it exhibits an achievable
ensemble); the KL route upper-bounds it. Together they bracket the closed
forms they are meant to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .closedform import ConvergenceError
from .core import WeightedElementSet, eta_array, haar_random_states, overlaps

DEFAULT_GRID_SIZES = {2: 4096, 3: 20000, 8: 60000}
TIGHTNESS_RESIDUAL_TOL = 1e-6
REFINE_MAX_ITER = 500_000  # iteration cap of each refinement Blahut-Arimoto run


@dataclass(frozen=True)
class StateGrid:
    """A finite set of pure probe states standing in for the continuum.

    ``seeded`` counts candidate-optimizer states prepended to the sampled
    grid (used in d = 8, where blind sampling is too coarse to find the
    optimizers on its own).
    """

    dim: int
    states: np.ndarray  # (n, dim) unit amplitudes
    provenance: str  # "fibonacci-sphere" | "haar-sample"
    resolution: int
    seeded: int = 0

    def __post_init__(self):
        if self.resolution < 100:
            raise ValueError("state grids need at least 100 points")
        if self.states.shape != (self.resolution + self.seeded, self.dim):
            raise ValueError("states array shape mismatch")


def fibonacci_bloch_states(count: int) -> np.ndarray:
    """Qubit amplitudes on a Fibonacci spiral covering the Bloch sphere."""
    i = np.arange(count) + 0.5
    golden = math.pi * (1 + math.sqrt(5))
    z = 1 - 2 * i / count
    theta = np.arccos(np.clip(z, -1, 1))
    phi = golden * i
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)


def default_grid(dim: int, seed: int, extra_states: np.ndarray | None = None,
                 resolution: int | None = None) -> StateGrid:
    """The grid sizes the package is calibrated for: 4096 Fibonacci points in
    d=2, 20000 Haar samples in d=3, 60000 in d=8 (plus seeded candidates)."""
    n = resolution if resolution is not None else DEFAULT_GRID_SIZES.get(dim, 20000)
    if dim == 2:
        sampled = fibonacci_bloch_states(n)
        provenance = "fibonacci-sphere"
    else:
        sampled = haar_random_states(dim, n, seed)
        provenance = "haar-sample"
    if extra_states is not None and len(extra_states):
        extra = np.asarray(extra_states, dtype=complex)
        states = np.vstack([extra, sampled])
        return StateGrid(dim, states, provenance, n, seeded=extra.shape[0])
    return StateGrid(dim, sampled, provenance, n)


def povm_channel(eset: WeightedElementSet, states: np.ndarray) -> np.ndarray:
    """Conditional distribution p(y|x) = d q_y <phi_x|chi_y|phi_x>; rows sum to 1.

    The overlaps come from one :func:`core.overlaps` matmul.
    """
    ov = overlaps(states, eset.ops)
    return np.clip(eset.dim * eset.weights[None, :] * ov, 0.0, None)


@dataclass(frozen=True)
class BAResult:
    capacity: float
    prior: np.ndarray
    iterations: int
    bracket_width: float


def blahut_arimoto(channel: np.ndarray, tol: float = 1e-6, max_iter: int = 200_000,
                   strict: bool = True) -> BAResult:
    """Classical channel capacity by alternating maximization, in nats.

    Iterates until the (monotone, best-so-far) Arimoto bracket between the
    achievable rate sum_x r_x D(p(.|x)||out) and the bound max_x D(p(.|x)||out)
    is narrower than ``tol``. Inputs whose prior collapses are pruned from the
    iteration for speed; both bracket sides stay valid for the full channel.
    Raises ConvergenceError if the bracket does not close (unless strict=False,
    in which case the last iterate is returned).
    """
    P = np.asarray(channel, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("channel must be a 2-d array of conditionals")
    if P.min() < -1e-12:
        raise ValueError(f"negative conditional probability {P.min():.3e}")
    row_sums = P.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise ValueError("channel rows must be probability vectors")
    P = np.clip(P, 0.0, None)

    m = P.shape[0]
    full_P = P
    full_lnP = _masked_log(full_P)
    active = np.arange(m)
    r = np.full(m, 1.0 / m)
    lnP = full_lnP
    best_lower = 0.0
    best_upper = math.inf
    check_every = 25
    it = 0
    while it < max_iter:
        out = r @ P
        lnout = _masked_log(out[None, :])[0]
        D = np.einsum("xy,xy->x", P, lnP - lnout[None, :])
        best_lower = max(best_lower, float(r @ D))
        if it % check_every == 0:
            if len(active) < m:
                D_full = np.einsum("xy,xy->x", full_P, full_lnP - lnout[None, :])
                best_upper = min(best_upper, float(D_full.max()))
            else:
                best_upper = min(best_upper, float(D.max()))
            if best_upper - best_lower < tol:
                break
            if len(active) > 2:
                keep = r > 1e-14 * r.max()
                if keep.sum() < len(r):
                    active = active[keep]
                    r = r[keep]
                    r /= r.sum()
                    P = full_P[active]
                    lnP = full_lnP[active]
                    continue
        r = r * np.exp(D - D.max())
        r /= r.sum()
        it += 1
    width = best_upper - best_lower
    if width >= tol and strict:
        raise ConvergenceError(
            f"Blahut-Arimoto bracket {width:.3e} did not reach tol={tol:g}"
            f" within {max_iter} iterations")
    prior = np.zeros(m)
    prior[active] = r
    return BAResult(capacity=best_lower, prior=prior, iterations=it,
                    bracket_width=float(width))


def _masked_log(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    mask = a > 0
    out[mask] = np.log(a[mask])
    return out


# ---------------------------------------------------------------------------
# KL upper-bound objective and its maximizer search

def kl_objective(eset: WeightedElementSet, phi: np.ndarray) -> float:
    """ln d - d sum_y q_y eta(<phi|chi_y|phi>), the KL form of the capacity bound."""
    phi = np.asarray(phi, dtype=complex).ravel()
    ov = np.einsum("i,yij,j->y", phi.conj(), eset.ops, phi).real
    return math.log(eset.dim) - eset.dim * float(eset.weights @ eta_array(ov))


def _coordinate_ascent(objective, phi: np.ndarray, max_iter: int = 200,
                       h0: float = 0.25, min_step: float = 1e-9):
    """Maximize a pure-state objective with step-halving coordinate ascent.

    The state is parametrized on the affine chart fixing its largest-modulus
    amplitude, i.e. d-1 free complex coordinates.
    """
    d = phi.shape[0]
    best = objective(phi)
    h = h0
    it = 0
    while it < max_iter and h > min_step:
        pivot = int(np.argmax(np.abs(phi)))
        base = phi / phi[pivot]
        improved = False
        for i in range(d):
            if i == pivot:
                continue
            for dz in (h, -h, 1j * h, -1j * h):
                cand = base.copy()
                cand[i] += dz
                cand /= np.linalg.norm(cand)
                val = objective(cand)
                if val > best + 1e-15:
                    best, phi, improved = val, cand, True
                    base = phi / phi[pivot] if abs(phi[pivot]) > 0 else phi
        if not improved:
            h *= 0.5
        it += 1
    return phi, best, it


def kl_maximize(eset: WeightedElementSet, grid: StateGrid) -> tuple[float, np.ndarray]:
    """Grid search (one :func:`core.overlaps` matmul) plus local refinement of
    kl_objective.

    Returns the refined maximum and every refined candidate within 1e-8 of
    it (deduplicated by projector overlap); those states feed the convex
    tightness check of the oracle.
    """
    if eset.dim != grid.dim:
        raise ValueError("grid and element set dimensions differ")
    ov = overlaps(grid.states, eset.ops)
    vals = math.log(eset.dim) - eset.dim * (eta_array(ov) @ eset.weights)
    order = np.argsort(vals)[::-1]
    n_cand = min(64, len(order))
    cutoff = vals[order[0]] - max(1e-3, 1e-6)
    cand_idx = [i for i in order[:n_cand] if vals[i] >= cutoff] or [order[0]]

    refined = []
    for i in cand_idx:
        phi, val, _ = _coordinate_ascent(lambda p: kl_objective(eset, p), grid.states[i])
        refined.append((val, phi))
    best_val = max(v for v, _ in refined)
    near = [phi for val, phi in refined if val >= best_val - 1e-8]
    return float(best_val), _dedupe_states(near, 1e-6)


# ---------------------------------------------------------------------------
# informational power (oracle)

@dataclass(frozen=True)
class OracleResult:
    capacity_estimate: float
    optimizer_states: np.ndarray
    optimizer_weights: np.ndarray
    average_state: np.ndarray
    tightness: bool
    tightness_residual: float
    refinement_rounds: int
    bracket_width: float
    diagnostics: dict = field(default_factory=dict)


def informational_power(eset: WeightedElementSet, grid: StateGrid,
                        tol: float = 1e-6) -> OracleResult:
    """Maximize mutual information over the grid, then refine off-grid.

    Stage 1 runs Blahut-Arimoto over the whole grid, whose channel is one
    :func:`povm_channel` matmul; the surviving support is then improved by
    coordinate ascent of D(p(.|phi) || out) against the last output marginal,
    re-running BA on the refined support, until one round gains less than
    ``tol``. The returned estimate is achievable, hence a lower bound on the
    true informational power.

    ``diagnostics["bracket_met"]`` says whether the reported bracket is within
    ``tol``; ``diagnostics["refine_capped"]`` counts the refinement BA runs
    that stopped at their iteration cap instead of closing their bracket.
    """
    if eset.role != "povm":
        raise ValueError("informational_power expects a POVM-role set")
    if eset.dim != grid.dim:
        raise ValueError("grid and element set dimensions differ")
    d = eset.dim
    states = grid.states
    channel = povm_channel(eset, states)
    coarse = blahut_arimoto(channel, tol=max(tol, 1e-4), max_iter=4000, strict=False)

    order = np.argsort(coarse.prior)[::-1]
    cap = max(32, 4 * d * d)
    cand_idx = [i for i in order[:cap] if coarse.prior[i] > 1e-6 * coarse.prior[order[0]]]
    cands = states[cand_idx]
    out = coarse.prior @ channel

    best = coarse.capacity
    best_states = cands
    best_prior = coarse.prior[cand_idx]
    bracket = coarse.bracket_width
    rounds = 0
    refine_capped = 0
    weights = eset.weights
    ops = eset.ops
    for _ in range(8):
        lnout = _masked_log(out[None, :])[0]

        def relent_vs_out(phi):
            p = d * weights * np.einsum("i,yij,j->y", phi.conj(), ops, phi).real
            mask = p > 0
            return float(np.sum(p[mask] * (np.log(p[mask]) - lnout[mask])))

        cands = np.array([_coordinate_ascent(relent_vs_out, c)[0] for c in cands])
        cands = _dedupe_states(cands)
        sub = povm_channel(eset, cands)
        res = blahut_arimoto(sub, tol=min(tol, 1e-9), max_iter=REFINE_MAX_ITER, strict=False)
        rounds += 1
        refine_capped += res.iterations >= REFINE_MAX_ITER
        out = res.prior @ sub
        if res.capacity > best:
            best, best_states, best_prior = res.capacity, cands, res.prior
            bracket = res.bracket_width
        if res.capacity < best + tol:
            break
        keep = res.prior > 1e-9
        cands = cands[keep]

    support = best_prior > 1e-8
    opt_states = best_states[support]
    opt_weights = best_prior[support] / best_prior[support].sum()
    sigma = np.einsum("x,xi,xj->ij", opt_weights, opt_states, opt_states.conj())
    tight_res = _identity_hull_residual(opt_states, d)

    if best > math.log(d) + 1e-9:
        raise ArithmeticError(f"oracle capacity {best!r} exceeds ln d = {math.log(d)!r}")
    return OracleResult(capacity_estimate=float(best), optimizer_states=opt_states,
                        optimizer_weights=opt_weights, average_state=sigma,
                        tightness=tight_res <= TIGHTNESS_RESIDUAL_TOL,
                        tightness_residual=float(tight_res), refinement_rounds=rounds,
                        bracket_width=float(bracket),
                        diagnostics={"grid": grid.provenance, "grid_points": grid.resolution,
                                     "seeded": grid.seeded, "bracket_met": bool(bracket <= tol),
                                     "refine_capped": refine_capped})


def _dedupe_states(states, tol: float = 1e-8) -> np.ndarray:
    kept: list[np.ndarray] = []
    for phi in states:
        if not any(abs(np.vdot(phi, other)) ** 2 > 1 - tol for other in kept):
            kept.append(phi)
    return np.array(kept)


def _identity_hull_residual(states: np.ndarray, d: int) -> float:
    """Distance of 1/d from the convex hull of the state projectors.

    Solved as a nonnegative least squares in the real embedding of Hermitian
    matrices; the simplex constraint is implied because every projector has
    unit trace.
    """
    projs = np.einsum("xi,xj->xij", states, states.conj())
    cols = [np.concatenate([p.real.ravel(), p.imag.ravel()]) for p in projs]
    a = np.array(cols).T
    target = np.concatenate([(np.eye(d) / d).ravel(), np.zeros(d * d)])
    _, resid = nnls(a, target)
    return float(resid)


def discretized_uniform_povm(dim: int, n_effects: int | None = None,
                             seed: int = 0) -> WeightedElementSet:
    """An exact finite POVM approximating the uniform rank-one POVM.

    Sampled directions (Fibonacci for qubits, Haar otherwise) are tightened
    into an exact resolution of the identity: with S = (d/M) sum |psi><psi|,
    the states S^{-1/2}|psi> with weights |S^{-1/2}psi|^2 / M form a rank-one
    POVM whose capacity converges to the uniform one as M grows.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    m = n_effects if n_effects is not None else max(2048, 32 * dim * dim)
    raw = fibonacci_bloch_states(m) if dim == 2 else haar_random_states(dim, m, seed)
    s = (dim / m) * np.einsum("mi,mj->ij", raw, raw.conj())
    w, v = np.linalg.eigh(s)
    s_inv_half = (v * (w ** -0.5)) @ v.conj().T
    tightened = raw @ s_inv_half.T
    norms2 = np.einsum("mi,mi->m", tightened, tightened.conj()).real
    weights = norms2 / m
    states = tightened / np.sqrt(norms2)[:, None]
    ops = np.einsum("xi,xj->xij", states, states.conj())
    return WeightedElementSet(dim, weights, ops, role="povm", nu=float(dim),
                              label=f"uniform_d{dim}_M{m}")
