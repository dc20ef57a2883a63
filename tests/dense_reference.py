"""Dense reference for the t-design certificate: M_t as a d^t x d^t matrix.

`tdesigncap.verify.certify` never forms M_t = sum_x p_x chi_x^{ot t}. The
tests keep the direct construction for small d^t so that the two routes can
be compared: the permutation operators W_sigma as index maps, their t! x t!
Gram matrix, the symmetric projector, and the span residual of M_t as the
norm of an explicit residual matrix. It also keeps the exact class-sum Gram
matrix built by enumerating S_t, and its inverse by rational row reduction,
as the reference for the character-table projection of `certify`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations

import numpy as np

from tdesigncap.verify import MU_CONSISTENCY_TOL, SPAN_RESIDUAL_TOL, TRACE_MISMATCH_TOL


def _compose(s1, s2):
    return tuple(s1[s2[i]] for i in range(len(s1)))


def cycle_type(sigma) -> tuple[int, ...]:
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
def class_gram(d: int, t: int) -> _ClassGram:
    # Tr[W_sigma^dag W_tau] = d^{cycles(sigma^-1 tau)}. The sum over tau in a
    # class depends only on the class of sigma^-1, which is that of sigma, so
    # the sum over sigma in a class is |class| times that for one member.
    perms = list(permutations(range(t)))
    types = [cycle_type(s) for s in perms]
    classes = tuple(sorted(set(types)))
    col = {ct: j for j, ct in enumerate(classes)}
    sizes = [types.count(ct) for ct in classes]
    gram = []
    for ct, size in zip(classes, sizes):
        rep = perms[types.index(ct)]
        row = [0] * len(classes)
        for tau, ct_tau in zip(perms, types):
            row[col[ct_tau]] += d ** len(cycle_type(_compose(rep, tau)))
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


def class_gram_projection(d: int, t: int, T) -> Fraction:
    """beta^T H_S^-1 beta for beta_a = |a| T_a, T in the class order of class_gram."""
    cg = class_gram(d, t)
    return sum(Fraction(T[a]) * Fraction(T[b]) * cg.quad[i][j]
               for i, a in enumerate(cg.pivots)
               for j, b in enumerate(cg.pivots)) / cg.quad_den


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
        self.cycle_types = [cycle_type(s) for s in self.perms]
        n = len(self.perms)
        self.gram = np.empty((n, n))
        for i, s in enumerate(self.perms):
            si = _invert(s)
            for j, tau in enumerate(self.perms):
                self.gram[i, j] = float(d) ** len(cycle_type(_compose(si, tau)))
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
