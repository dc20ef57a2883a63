"""Reference information quantities of a finite ensemble-POVM pair, and three set helpers.

`tdesigncap` evaluates capacity from its closed forms, its bounds and its
oracle, and none of them reads a joint distribution. The tests keep the
direct quantities, so that a capacity-achieving ensemble's rate can be
checked from its joint outcome distribution: the relative entropy, the
mutual information of a joint probability matrix and the joint distribution
of an ensemble measured by a POVM. They also keep three views of an element
set: its POVM effects, its average element and its elementwise transpose.
"""

import numpy as np

from tdesigncap.core import WEIGHT_TOL, WeightedElementSet, check_probability_vector

ZERO_PROB = 1e-15


class SupportViolationError(ValueError):
    """p puts mass where q vanishes, so D(p||q) is infinite."""


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


def effects(eset: WeightedElementSet) -> np.ndarray:
    """POVM effects d * p_x * chi_x (only meaningful for role='povm')."""
    return eset.dim * eset.weights[:, None, None] * eset.ops


def average(eset: WeightedElementSet) -> np.ndarray:
    """The weighted average sum_x p_x chi_x of the elements."""
    return np.einsum("x,xij->ij", eset.weights, eset.ops)


def transposed(eset: WeightedElementSet) -> WeightedElementSet:
    """The set of the transposed elements chi_x^T, with the same weights, role and label."""
    return WeightedElementSet(eset.dim, eset.weights, np.transpose(eset.ops, (0, 2, 1)),
                              eset.role, eset.label)
