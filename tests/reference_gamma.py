"""Reference indices of coincidence: the explicit k <= 5 closed forms and the probe sums.

`tdesigncap.verify.gammas` computes gamma_k from the complete Bell polynomial
of x_i = (i-1)! mu_i. The tests keep the expanded polynomials in the moments
it replaced, so that the two forms can be compared, and the empirical index
sum_x p_x <phi|chi_x|phi>^k of one probe state, which a design must match.
"""

import numpy as np


def gamma_explicit(mv, d: int, k: int) -> float:
    """gamma_k of a mixed k design from its moments, written out for k in [1, 5]."""
    mu2 = mv[2] if k >= 2 else 0.0
    mu3 = mv[3] if k >= 3 else 0.0
    mu4 = mv[4] if k >= 4 else 0.0
    mu5 = mv[5] if k >= 5 else 0.0
    if k == 1:
        return 1.0 / d
    if k == 2:
        return (1.0 + mu2) / (d * (d + 1))
    if k == 3:
        return (1.0 + 3 * mu2 + 2 * mu3) / (d * (d + 1) * (d + 2))
    if k == 4:
        return (1.0 + 6 * mu2 + 3 * mu2 ** 2 + 8 * mu3 + 6 * mu4) / (
            d * (d + 1) * (d + 2) * (d + 3))
    if k == 5:
        return (1.0 + 10 * mu2 + 15 * mu2 ** 2 + 20 * mu3 + 30 * mu4 + 20 * mu2 * mu3
                + 24 * mu5) / (d * (d + 1) * (d + 2) * (d + 3) * (d + 4))
    raise ValueError("gamma_explicit supports k in [1, 5]")


def gamma_empirical(eset, phi, k: int) -> float:
    """gamma_k(chi, phi) = sum_x p_x <phi|chi_x|phi>^k for a pure probe state."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.shape[0] != eset.dim:
        raise ValueError(f"probe state dim {phi.shape[0]} != set dim {eset.dim}")
    ov = np.einsum("i,xij,j->x", phi.conj(), eset.ops, phi).real
    return float(eset.weights @ ov ** k)
