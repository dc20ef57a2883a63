"""Reference channel solver: Blahut-Arimoto alternating maximization.

`tdesigncap.oracle` solves each support's capacity by a small convex solve
and prices the grid by column generation, so nothing in the package runs
Blahut-Arimoto. The tests keep the paper-standard solver, which works on any
channel matrix, to check the oracle against an independent grid rate.
"""

import math

import numpy as np

from tdesigncap.closedform import ConvergenceError
from tdesigncap.core import masked_log
from tdesigncap.oracle import BAResult


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
    # D_x = sum_y P log P - P . log out: the row term once, one matvec per iteration
    full_H = np.einsum("xy,xy->x", P, masked_log(P))
    active = np.arange(m)
    r = np.full(m, 1.0 / m)
    H = full_H
    best_lower = 0.0
    best_upper = math.inf
    check_every = 25
    it = 0
    while it < max_iter:
        out = r @ P
        lnout = masked_log(out[None, :])[0]
        D = H - np.einsum("xy,y->x", P, lnout)
        best_lower = max(best_lower, float(r @ D))
        if it % check_every == 0:
            if len(active) < m:
                D_full = full_H - np.einsum("xy,y->x", full_P, lnout)
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
                    H = full_H[active]
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
