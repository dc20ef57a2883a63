"""A numerical check that an interpolant lies below eta.

`tdesigncap.bounds` proves eta - r >= 0 by the Hermite remainder and runs no
such check; the tests run this one on the interpolants the package builds.
"""

import numpy as np
from scipy.optimize import brentq

from tdesigncap.core import eta, eta_array

BELOW_TOL = 1e-10


def verify_below(coeffs: np.ndarray, interval: tuple[float, float] = (0.0, 1.0),
                 n_grid: int = 512) -> bool:
    """True iff eta - r >= -1e-10 on the interval.

    Checks a uniform grid plus every critical point of eta - r located by
    root-finding on the derivative (sign changes bracketed on a finer grid).
    """
    a, b = interval
    xs = np.linspace(a, b, max(n_grid, 8))
    coeffs = np.asarray(coeffs, dtype=float)
    gap = eta_array(xs) - np.polynomial.polynomial.polyval(xs, coeffs)
    worst = float(gap.min())

    dcoeffs = np.polynomial.polynomial.polyder(coeffs)

    def dgap(x):
        return -np.log(x) - 1.0 - np.polynomial.polynomial.polyval(x, dcoeffs)

    lo = max(a, 1e-12)
    fine = np.linspace(lo, b, max(4 * n_grid, 1024))
    vals = dgap(fine)
    sign_change = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    for i in sign_change:
        root = brentq(dgap, fine[i], fine[i + 1], xtol=1e-14)
        worst = min(worst, eta(root) - float(np.polynomial.polynomial.polyval(root, coeffs)))
    return worst >= -BELOW_TOL
