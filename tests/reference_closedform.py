"""Reference closed forms: each finite family's capacity printed out by hand.

`tdesigncap.closedform.capacity` evaluates every finite family from one
table of overlap spectra. The tests keep the per-family expressions it
replaced, and the defining series of 2F1(1, 1; c; z), so that the two
routes can be compared.
"""

import math

from tdesigncap.core import eta

_SQRT5 = math.sqrt(5.0)


def tetrahedron(lam: float) -> float:
    return math.log(2) - (eta((1 - lam) / 2) + 3 * eta((3 + lam) / 6)) / 2


def octahedron(lam: float) -> float:
    return math.log(2) - (eta((1 - lam) / 2) + 4 * eta(0.5) + eta((1 + lam) / 2)) / 3


def icosahedron(lam: float) -> float:
    return math.log(2) - (eta((1 - lam) / 2)
                          + 5 * eta((5 - _SQRT5 * lam) / 10)
                          + 5 * eta((5 + _SQRT5 * lam) / 10)
                          + eta((1 + lam) / 2)) / 6


def qutrit_sic(lam: float) -> float:
    # identical for the qutrit SIC family and the complete qutrit MUB
    return math.log(3) - eta((1 - lam) / 3) - 2 * eta((2 + lam) / 6)


def hoggar(lam: float) -> float:
    return math.log(8) - (7 * eta((1 - lam) / 8) + 9 * eta((9 + 7 * lam) / 72)) / 2


def anti_sic(d: int, lam: float) -> float:
    n = d * d - 1
    return (math.log(d) - eta((1 - lam) / d) / d
            - n / d * eta((n + lam) / (d * n)))


def capacity_reference(family: str, lam: float, dim: int | None = None) -> float:
    """The printed expression for a finite family (anti_sic needs ``dim``)."""
    if family == "anti_sic":
        return anti_sic(dim, lam)
    return {"qubit_sic": tetrahedron, "qubit_mub": octahedron, "icosahedron": icosahedron,
            "qutrit_sic": qutrit_sic, "qutrit_mub": qutrit_sic, "hoggar_sic": hoggar}[family](lam)


def hyp2f1_11_series(c: float, z: float, max_terms: int = 100000) -> float:
    """Defining series of 2F1(1, 1; c; z); only convergent for |z| < 1.

    An independent cross-check of the Pfaff route of `hyp2f1_11`.
    """
    if abs(z) >= 1:
        raise ValueError("defining series requires |z| < 1")
    total, term, n = 0.0, 1.0, 0
    while abs(term) > 1e-17 * max(abs(total), 1.0) and n < max_terms:
        total += term
        term *= z * (1.0 + n) / (c + n)
        n += 1
    return total
