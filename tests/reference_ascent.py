"""Reference local searches for the oracle's ascents.

`tdesigncap.oracle` refines its grid candidates with one L-BFGS ascent over
the whole stack of starts, with an analytic gradient. The tests keep the two
searches it replaced, so that each can be compared with it on the same grid
and starts: the step-halving coordinate ascent, which uses objective values
only, and one L-BFGS ascent per start. They also keep the one-pass form of
the ascent's objective, which the oracle now evaluates in row blocks, the
ascent's objective as one solver callback, which the oracle now forms inside
its stacked solve, and the KL objective of one state, which the oracle now reads
off the first pricing round's climb.
"""

import math

import numpy as np

from tdesigncap import oracle
from tdesigncap.core import dedupe_states, eta_array, overlaps


def kl_objective(eset, phi: np.ndarray) -> float:
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


def kl_maximize_reference(eset, grid) -> tuple[float, np.ndarray]:
    """`oracle.kl_maximize` with its starts refined by coordinate ascent.

    The starts are the oracle's: the grid states of the top max(32, d^2) KL
    values. Every climb is scored. The ascent runs until its step falls below
    ``min_step`` (at most 10 000 sweeps). At the default cap of 200 sweeps it
    can stop short: 3.1e-5 below the maximum for anti_sic:3 at lambda = 1 on
    ``default_grid(3, 2016, resolution=256)``.
    """
    ov = overlaps(grid.states, eset.ops)
    vals = math.log(eset.dim) - eset.dim * (eta_array(ov) @ eset.weights)
    starts = np.argsort(vals)[::-1][:max(32, eset.dim ** 2)]
    refined = [_coordinate_ascent(lambda p: kl_objective(eset, p), grid.states[i],
                                  max_iter=10_000)[:2][::-1] for i in starts]
    best_val = max(v for v, _ in refined)
    near = [phi for val, phi in refined if val >= best_val - 1e-8]
    return float(best_val), dedupe_states(near, 1e-6)


def ascent_objective(v: np.ndarray, ops: np.ndarray, a: np.ndarray, b: np.ndarray):
    """-sum_k F(phi_k) and its gradient at the interleaved (re, im) view v of a (K, d) stack,
    as `oracle._ascend` hands them to its solver."""
    z = v.view(complex).reshape(-1, ops.shape[-1])
    vals, grad = oracle._AscentTerms(ops, a, b, len(z))(z)
    return -float(vals.sum()), -grad.view(float).ravel()


def ascend_per_start(ops, a, b, phis):
    """`oracle._ascend` with one L-BFGS solve per start, each with its own stopping rules.

    Each solve keeps gtol = 1e-12, below the gradient's rounding floor, so only
    its ftol test or a failed line search stops it. Returns the (K, d)
    normalized maximizers, F at each and whether each start stopped at
    ``oracle.ASCENT_MAX_ITER``.
    """
    from scipy.optimize import minimize

    states, values, capped = [], [], []
    for phi in phis:
        v0 = np.ascontiguousarray(phi, dtype=complex).view(float)
        res = minimize(ascent_objective, v0, args=(ops, a, b), jac=True,
                       method="L-BFGS-B", options={"maxiter": oracle.ASCENT_MAX_ITER,
                                                   "gtol": 1e-12, "ftol": 1e-15})
        states.append(res.x.view(complex) / np.linalg.norm(res.x))
        values.append(-float(res.fun))
        capped.append(res.status == 1)
    return np.array(states), np.array(values), np.array(capped)


def ascent_terms_one_pass(z: np.ndarray, ops: np.ndarray, a: np.ndarray, b: np.ndarray):
    """`oracle._AscentTerms` as it was before it was built once per climb: every (K, m)
    temporary of the stack formed whole, x divided by |phi|^2 and F summed from x ln x."""
    k, d = z.shape
    norm2 = np.einsum("ki,ki->k", z, z.conj()).real
    x = overlaps(z, ops)  # (K, m)
    x /= norm2[:, None]
    np.maximum(x, np.finfo(float).tiny, out=x)
    g = np.log(x)
    vals = (x * g) @ a + x @ b
    g += 1.0
    g *= a
    g += b  # g = a (ln x + 1) + b
    bk = (g @ np.ascontiguousarray(ops).reshape(len(a), -1).view(float)).view(complex)
    bz = np.einsum("kij,kj->ki", bk.reshape(k, d, d), z)
    grad = (2.0 / norm2)[:, None] * (bz - np.einsum("ky,ky->k", g, x)[:, None] * z)
    return vals, grad
