"""Closed-form depolarized capacities for the catalog families, in nats.

Every finite family is one formula in the depolarizing parameter lambda in
[0, 1], read from the overlap spectrum of its capacity-achieving states
(``overlap_spectrum``); ``optimal_ensemble`` builds those states. Both come
from the family's ``catalog.FAMILY`` row. The uniform rank-one POVM has a
continuous overlap distribution and needs the Gauss hypergeometric value
2F1(1, 1; d+2; z) at non-positive argument, evaluated here via the Pfaff
transformation and a convergent series.
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog
from .catalog import DesignSpec
from .core import WeightedElementSet, eta, pure_ensemble

class ConvergenceError(RuntimeError):
    pass


def hyp2f1_11(c: float, z: float) -> float:
    """2F1(1, 1; c; z) for c > 2 and z <= 0, to ~1e-12 relative accuracy.

    The Pfaff transformation maps the argument to w = z/(z-1) in [0, 1),
    where the series sum_n (c-1)/(c-1+n) w^n converges; terms are added
    until they drop below 1e-16 of the partial sum. The point w = 1 is a
    logarithmic singularity, so for the extreme tail w > 1 - 1e-3 (huge |z|,
    where that series needs >1e4 terms) the standard log-case expansion in
    powers of 1 - w takes over.
    """
    if z > 0:
        raise ValueError("hyp2f1_11 supports z <= 0 only")
    if c <= 2:
        raise ValueError("hyp2f1_11 requires c > 2")
    if z == 0.0:
        return 1.0
    w = z / (z - 1.0)
    if w > 1.0 - 1e-3:
        # 1 - w = 1/(1-z), formed from z directly to dodge cancellation
        return _hyp_log_series(c, 1.0 / (1.0 - z)) / (1.0 - z)
    total = 0.0
    term = 1.0
    n = 0
    while term > 1e-16 * max(total, 1.0):
        total += term
        term *= w * (c - 1.0 + n) / (c + n)
        n += 1
        if n > 1_000_000:
            raise ConvergenceError(f"2F1 series did not converge at w={w!r}")
    return total / (1.0 - z)


def _hyp_log_series(c: float, eps: float) -> float:
    """2F1(1, c-1; c; 1 - eps) near the eps = 0 singularity.

    With a + b = c the hypergeometric function has a log singularity:
    F = (c-1) sum_n [(c-1)_n / n!] [psi(n+1) - psi(c-1+n) - ln(eps)] eps^n.
    """
    log_eps, poch, power, total = math.log(eps), 1.0, 1.0, 0.0  # poch = (c-1)_n / n!
    psi_gap = -np.euler_gamma - _digamma(c - 1.0)  # psi(n+1) - psi(c-1+n); psi(x+1) = psi(x) + 1/x
    for n in range(500):
        contrib = poch * (psi_gap - log_eps) * power
        total += contrib
        if n > 2 and abs(contrib) < 1e-17 * abs(total):
            break
        poch *= (c - 1 + n) / (n + 1)
        power *= eps
        psi_gap += 1.0 / (n + 1) - 1.0 / (c - 1 + n)
    else:
        raise ConvergenceError(f"log-case 2F1 series did not converge at eps={eps!r}")
    return (c - 1.0) * total


def _digamma(x: float) -> float:
    """psi(x), x > 0: psi(x) = psi(x+1) - 1/x lifts x to 16 or more, where the asymptotic series
    ln x - 1/(2x) - sum_k B_2k / (2k x^2k) through x^-10 is off by < 691 / (32760 x^12)."""
    shift = 0.0
    while x < 16.0:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 / 132))))
    return shift + math.log(x) - 0.5 / x - series


def uniform_capacity(d: int, lam: float) -> float:
    """Capacity of the depolarized uniform rank-one POVM in dimension d.

    At lam = 1 the printed expression is an indeterminate 0 * inf limit; the
    limiting value ln d + 1 - H_d (H_d the d-th harmonic number) is returned.
    """
    _check_lambda(lam)
    if d < 2:
        raise ValueError("uniform POVM requires d >= 2")
    if lam == 0.0:
        return 0.0
    if lam == 1.0:
        return math.log(d) + 1.0 - sum(1.0 / k for k in range(1, d + 1))
    z = -d * lam / (1.0 - lam)
    f = hyp2f1_11(d + 2, z)
    return math.log1p(-lam) + lam + d * lam ** 2 * f / ((d + 1) * (1.0 - lam))


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"closed forms cover the depolarizing regime lambda in [0, 1], got {lam}")


def overlap_spectrum(family: str, dim: int | None = None) -> tuple:
    """(d, ((c_k, a_k), ...)) of a finite family, from its ``catalog.FAMILY`` row.

    ``dim`` is checked as ``DesignSpec`` checks it, except that the anti-SIC's
    spectrum holds in every d: one element at overlap 0 and d^2 - 1 at
    d/(d^2 - 1) with its SIC states.
    """
    row = catalog.FAMILY.get(family)
    if row is None or row.spectrum is None:
        raise catalog.UnsupportedFamilyError(family)
    if dim is None or len(row.dims) == 1:
        dim = DesignSpec(family, 1.0, 0.0, dim).dimension
    return dim, row.spectrum(dim)


def capacity(family: str, lam: float, dim: int | None = None) -> float:
    """Closed-form capacity of the depolarized family, in nats."""
    _check_lambda(lam)
    if family == "uniform":
        return uniform_capacity(DesignSpec(family, 1.0, 0.0, dim).dimension, lam)
    d, spectrum = overlap_spectrum(family, dim)
    return math.log(d) - sum(c * eta(lam * a + (1.0 - lam) / d) for c, a in spectrum)


def optimal_ensemble(family: str, dim: int | None = None,
                     fiducial_phase: float = 0.0) -> WeightedElementSet:
    """The capacity-achieving pure ensemble of the (depolarized) family.

    Optimal ensembles do not depend on lambda, are uniformly weighted, and
    average to the maximally mixed state. The anti-SIC's are its SIC states.
    The uniform POVM has a continuous optimizer set and is not supported here.
    """
    d = DesignSpec(family, 1.0, fiducial_phase, dim).dimension
    optimal = catalog.FAMILY[family].optimal
    if optimal is None:
        raise catalog.UnsupportedFamilyError(
            f"the {family} POVM's optimizer set is continuous; no finite ensemble exists")
    label, states = optimal
    return pure_ensemble(d, states(d, fiducial_phase), label=label)
