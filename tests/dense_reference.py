"""Dense reference for the t-design certificate: M_t as a d^t x d^t matrix.

`tdesigncap.verify.certify` never forms M_t = sum_x p_x chi_x^{ot t}. The
tests keep the direct construction for small d^t so that the two routes can
be compared: the permutation operators W_sigma as index maps, their t! x t!
Gram matrix, the symmetric projector, and the span residual of M_t as the
norm of an explicit residual matrix.
"""

import math
from functools import cache, reduce
from itertools import permutations

import numpy as np

from tdesigncap.verify import (
    MU_CONSISTENCY_TOL,
    SPAN_RESIDUAL_TOL,
    TRACE_MISMATCH_TOL,
    _compose,
    _cycle_type,
)


def _invert(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


class PermutationBasis:
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


@cache
def permutation_basis(d: int, t: int) -> PermutationBasis:
    return PermutationBasis(d, t)


def dense_m_t(eset, t: int) -> np.ndarray:
    """M_t = sum_x p_x chi_x^{ot t}."""
    return sum(w * reduce(np.kron, [op] * t) for w, op in zip(eset.weights, eset.ops))


def symmetric_projector(d: int, t: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^d)^{ot t}."""
    basis = permutation_basis(d, t)
    D = d ** t
    P = np.zeros((D, D))
    cols = np.arange(D)
    for idx in basis.index_maps:
        P[idx, cols] += 1.0
    return P / math.factorial(t)


def dense_certificate(eset, t: int) -> tuple[float, float, str]:
    """(span residual, largest trace mismatch, verdict) from the dense M_t.

    The residual is the Frobenius norm of M_t minus its least-squares
    projection onto span{W_sigma}; the traces Tr[M_t W_sigma] are read off
    M_t, and traces of one cycle type must agree to MU_CONSISTENCY_TOL.
    """
    basis = permutation_basis(eset.dim, t)
    M = dense_m_t(eset, t)
    cols = np.arange(eset.dim ** t)
    traces = np.array([M[cols, idx].sum() for idx in basis.index_maps])

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, ct in enumerate(basis.cycle_types):
        groups.setdefault(ct, []).append(i)
    spread = max(float(np.abs(traces[idxs] - traces[idxs[0]]).max())
                 for idxs in groups.values())
    mus = {1: 1.0}
    for k in range(2, t + 1):
        mus[k] = float(np.mean(traces[groups[tuple(sorted([k] + [1] * (t - k)))]].real))
    mismatch = max(float(np.abs(traces[idxs] - math.prod(mus[l] for l in ct)).max())
                   for ct, idxs in groups.items())

    b = traces[basis.inverse_pos]
    coeffs = np.linalg.lstsq(basis.gram, b, rcond=None)[0]
    R = M.copy()
    for idx, c in zip(basis.index_maps, coeffs):
        R[idx, cols] -= c
    residual = float(np.linalg.norm(R))
    passed = (residual <= SPAN_RESIDUAL_TOL and mismatch <= TRACE_MISMATCH_TOL
              and spread <= MU_CONSISTENCY_TOL)
    return residual, mismatch, "pass" if passed else "fail"
