"""Construction of the named measurement families and the depolarizing map.

Every finite family is built as a POVM-role WeightedElementSet whose stored
operators are the unit-trace elements chi_x (effects are d * p_x * chi_x).
The uniform rank-one POVM is an analytic marker: it has no finite element
list and build() refuses it; capacity and verification for it are handled
by closed-form code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import WeightedElementSet, pure_ensemble

FINITE_FAMILIES = (
    "qubit_sic", "qubit_mub", "icosahedron",
    "qutrit_sic", "qutrit_mub", "hoggar_sic", "anti_sic",
)
FAMILIES = FINITE_FAMILIES + ("uniform",)

_FAMILY_DIM = {"qubit_sic": 2, "qubit_mub": 2, "icosahedron": 2,
               "qutrit_sic": 3, "qutrit_mub": 3, "hoggar_sic": 8}

# Largest t for which the (undepolarized) family is a mixed t design.
_DESIGN_STRENGTH = {"qubit_sic": 2, "qubit_mub": 3, "icosahedron": 5,
                    "qutrit_sic": 2, "qutrit_mub": 2, "hoggar_sic": 2,
                    "anti_sic": 2}
UNIFORM_STRENGTH_CAP = 5  # uniform is an infinity-design; bounds stop at t=5


class UnsupportedFamilyError(ValueError):
    pass


class LambdaRangeError(ValueError):
    pass


class FiducialVerificationError(RuntimeError):
    """A constructed orbit failed its SIC overlap self-check."""


class AnalyticFamilyError(ValueError):
    """Raised when a finite element list is requested for the uniform POVM."""


@dataclass(frozen=True)
class DesignSpec:
    """CLI/JSON-facing description of a catalog measurement.

    ``dim`` is required for the dimension-generic families (anti_sic, uniform)
    and ignored otherwise. ``fiducial_phase`` selects a member of the qutrit
    SIC fiducial family (0, 1, -e^{i theta})/sqrt(2); the default 0 is the
    Hesse fiducial. The uniform family has no element list to check ``lam``
    against at build time, so its [1/(1 - d), 1] is checked here.
    """

    family: str
    lam: float = 1.0
    fiducial_phase: float = 0.0
    dim: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.family in ("anti_sic", "uniform"):
            if self.dim is None:
                raise UnsupportedFamilyError(f"{self.family} requires an explicit dim")
            if self.family == "anti_sic" and self.dim not in (2, 3, 8):
                raise UnsupportedFamilyError("anti_sic is cataloged for dim in {2, 3, 8}")
            if self.family == "uniform":
                if self.dim < 2:
                    raise UnsupportedFamilyError("uniform requires dim >= 2")
                interval = AdmissibleInterval(1.0 / (1 - self.dim), 1.0)
                if not interval.contains(self.lam):
                    raise LambdaRangeError(f"lambda={self.lam} outside admissible interval"
                                           f" [{interval.lo:.6g}, 1] for uniform")

    @property
    def dimension(self) -> int:
        return self.dim if self.dim is not None else _FAMILY_DIM[self.family]


@dataclass(frozen=True)
class AdmissibleInterval:
    """Depolarizing parameters keeping every element positive: [lo, hi].

    ``clamped`` marks the degenerate all-maximally-mixed case where both
    endpoints diverge and are clamped to +-1e12.
    """

    lo: float
    hi: float
    clamped: bool = False

    def contains(self, lam: float, tol: float = 1e-12) -> bool:
        return self.lo - tol <= lam <= self.hi + tol


def design_strength(family: str) -> int:
    """Largest t (capped at 5 for uniform) at which the family is a t design."""
    if family == "uniform":
        return UNIFORM_STRENGTH_CAP
    return _DESIGN_STRENGTH[family]


# ---------------------------------------------------------------------------
# concrete constructions

_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
_OCTAHEDRON = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                       dtype=float)

_GOLDEN = (1 + math.sqrt(5)) / 2
_ICOSAHEDRON = np.array(
    [v for s1 in (1, -1) for s2 in (1, -1)
     for v in ((0, s1, s2 * _GOLDEN), (s1, s2 * _GOLDEN, 0), (s2 * _GOLDEN, 0, s1))],
    dtype=float) / math.sqrt(1 + _GOLDEN ** 2)


def _weyl_heisenberg_orbit(fiducial: np.ndarray) -> np.ndarray:
    """Orbit X^a Z^b |f> over a, b in Z_d for the shift/clock pair in dim d."""
    d = fiducial.shape[0]
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    shift[np.arange(d), (np.arange(d) - 1) % d] = 1.0
    clock = np.diag(omega ** np.arange(d))
    orbit = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            orbit.append(xa @ zb @ fiducial)
            zb = clock @ zb
        xa = shift @ xa
    return np.array(orbit)


def _check_sic_orbit(states: np.ndarray, what: str) -> None:
    d = states.shape[1]
    gram = np.abs(states @ states.conj().T) ** 2
    target = np.full_like(gram, 1.0 / (d + 1))
    np.fill_diagonal(target, 1.0)
    dev = np.abs(gram - target).max()
    if dev > 1e-10:
        raise FiducialVerificationError(
            f"{what}: SIC overlap condition violated, max deviation {dev:.3e}")


def qutrit_sic_states(fiducial_phase: float = 0.0) -> np.ndarray:
    f = np.array([0.0, 1.0, -np.exp(1j * fiducial_phase)], dtype=complex) / math.sqrt(2)
    states = _weyl_heisenberg_orbit(f)
    _check_sic_orbit(states, f"qutrit SIC (phase {fiducial_phase})")
    return states


def qutrit_mub_states() -> np.ndarray:
    """Computational basis plus the three quadratic-phase Fourier bases (12 states)."""
    omega = np.exp(2j * np.pi / 3)
    vecs = [np.eye(3, dtype=complex)[i] for i in range(3)]
    x = np.arange(3)
    for a in range(3):
        for b in range(3):
            vecs.append(omega ** ((a * x * x + b * x) % 3) / math.sqrt(3))
    return np.array(vecs)


# Literature-standard Hoggar fiducial candidate; its SIC property is verified
# at every build, so a transcription error cannot pass silently.
HOGGAR_FIDUCIAL = np.array([-1 + 2j, 1, 1, 1, 1, 1, 1, 1], dtype=complex) / math.sqrt(12)


def _three_qubit_displacements() -> list[np.ndarray]:
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    singles = {(a, b): np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
               for a in (0, 1) for b in (0, 1)}
    ops = []
    for key in product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=3):
        ops.append(np.kron(np.kron(singles[key[0]], singles[key[1]]), singles[key[2]]))
    return ops


def hoggar_states(fiducial: np.ndarray = HOGGAR_FIDUCIAL) -> np.ndarray:
    states = np.array([D @ fiducial for D in _three_qubit_displacements()])
    _check_sic_orbit(states, "Hoggar SIC")
    return states


def hoggar_dual_states() -> np.ndarray:
    """The twin Hoggar lines: the displacement orbit of the conjugate fiducial.

    Each twin state is orthogonal to 28 Hoggar lines and has squared overlap
    2/9 with the remaining 36; this is verified on construction.
    """
    duals = np.array([D @ HOGGAR_FIDUCIAL.conj() for D in _three_qubit_displacements()])
    ov = np.abs(duals[0] @ hoggar_states().conj().T) ** 2
    n0 = int(np.sum(ov < 1e-10))
    n1 = int(np.sum(np.abs(ov - 2 / 9) < 1e-10))
    if (n0, n1) != (28, 36):
        raise FiducialVerificationError(
            f"twin Hoggar overlap pattern is ({n0}, {n1}), expected (28, 36)")
    return duals


def _base_povm(family: str, dim: int | None, fiducial_phase: float) -> WeightedElementSet:
    if family == "qubit_sic":
        return pure_ensemble(2, _bloch_amplitudes(_TETRAHEDRON), role="povm", label=family)
    if family == "qubit_mub":
        return pure_ensemble(2, _bloch_amplitudes(_OCTAHEDRON), role="povm", label=family)
    if family == "icosahedron":
        return pure_ensemble(2, _bloch_amplitudes(_ICOSAHEDRON), role="povm", label=family)
    if family == "qutrit_sic":
        return pure_ensemble(3, qutrit_sic_states(fiducial_phase), role="povm", label=family)
    if family == "qutrit_mub":
        return pure_ensemble(3, qutrit_mub_states(), role="povm", label=family)
    if family == "hoggar_sic":
        return pure_ensemble(8, hoggar_states(), role="povm", label=family)
    if family == "anti_sic":
        sic = {2: lambda: pure_ensemble(2, _bloch_amplitudes(_TETRAHEDRON), role="povm"),
               3: lambda: pure_ensemble(3, qutrit_sic_states(fiducial_phase), role="povm"),
               8: lambda: pure_ensemble(8, hoggar_states(), role="povm")}[dim]()
        out = anti_design(sic)
        return WeightedElementSet(out.dim, out.weights, out.ops, "povm", float(out.dim),
                                  label=f"anti_sic_{dim}")
    raise UnsupportedFamilyError(family)


def _bloch_amplitudes(vectors: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(vectors[:, 2], -1.0, 1.0))
    phi = np.arctan2(vectors[:, 1], vectors[:, 0])
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)


def build(spec: DesignSpec) -> WeightedElementSet:
    """Construct the family named by ``spec`` and depolarize at spec.lam.

    The uniform family has no finite representation; requesting it raises
    AnalyticFamilyError so callers can route to closed-form paths.
    """
    if spec.family == "uniform":
        raise AnalyticFamilyError(
            "the uniform POVM is handled analytically; no element list exists")
    base = _base_povm(spec.family, spec.dim, spec.fiducial_phase)
    interval = admissible_lambda(base)
    if not interval.contains(spec.lam):
        raise LambdaRangeError(
            f"lambda={spec.lam} outside admissible interval [{interval.lo:.6g}, {interval.hi:.6g}]"
            f" for {spec.family}")
    if spec.lam == 1.0:
        return base
    return depolarize(base, spec.lam)


def depolarize(eset: WeightedElementSet, lam: float) -> WeightedElementSet:
    """Apply chi -> lam chi + (1 - lam) 1/d to every unit-trace element.

    Weights (and POVM completeness) are unchanged; lam must lie in the
    admissible interval of the set or positivity fails.
    """
    interval = admissible_lambda(eset)
    if not interval.contains(lam):
        raise LambdaRangeError(
            f"lambda={lam} outside admissible interval [{interval.lo:.6g}, {interval.hi:.6g}]")
    d = eset.dim
    ops = lam * eset.ops + (1.0 - lam) * np.eye(d) / d
    return WeightedElementSet(d, eset.weights, ops, eset.role, eset.nu, eset.label)


def admissible_lambda(eset: WeightedElementSet) -> AdmissibleInterval:
    """[1/(1 - d a_max), 1/(1 - d a_min)] from the extreme element eigenvalues.

    a_min below 1e-12 is treated as an exact 0, making the upper endpoint 1.
    If every element is already 1/d both denominators vanish; the interval is
    clamped to +-1e12 and flagged.
    """
    d = eset.dim
    eigs = np.linalg.eigvalsh(eset.ops)
    a_max = float(eigs.max())
    a_min = float(eigs.min())
    if a_min < 1e-12:
        a_min = 0.0
    big = 1e12
    den_lo = 1.0 - d * a_max
    den_hi = 1.0 - d * a_min
    clamped = abs(den_lo) < 1e-12 or abs(den_hi) < 1e-12
    lo = -big if abs(den_lo) < 1e-12 else 1.0 / den_lo
    hi = big if abs(den_hi) < 1e-12 else 1.0 / den_hi
    if clamped:
        lo, hi = max(lo, -big), min(hi, big)
    return AdmissibleInterval(lo=lo, hi=hi, clamped=clamped)


def anti_design(eset: WeightedElementSet) -> WeightedElementSet:
    """Depolarize at the extreme negative endpoint 1/(1 - d a_max).

    For rank-one input every output element is (1 - chi)/(d - 1).
    """
    d = eset.dim
    a_max = float(np.linalg.eigvalsh(eset.ops).max())
    if 1.0 - d * a_max > -1e-12:
        raise LambdaRangeError(
            f"anti-design undefined: max element eigenvalue {a_max:.6g} <= 1/d")
    return depolarize(eset, 1.0 / (1.0 - d * a_max))


def moments_of_depolarized(moments: list[float], lam: float, d: int) -> list[float]:
    """Push moments mu_0..mu_k through the depolarizing map.

    mu_k(D_lam(chi)) = sum_n C(k, n) lam^n ((1-lam)/d)^(k-n) mu_n(chi);
    the zeroth moment mu_0 = Tr[chi^0] = d must be supplied explicitly.
    """
    if len(moments) < 1:
        raise ValueError("need at least mu_0")
    if abs(moments[0] - d) > 1e-9:
        raise ValueError(f"mu_0 must equal d={d}, got {moments[0]!r}")
    out = [float(d)]
    for k in range(1, len(moments)):
        acc = 0.0
        for n in range(k + 1):
            acc += math.comb(k, n) * lam ** n * ((1.0 - lam) / d) ** (k - n) * moments[n]
        out.append(acc)
    return out


def spec_to_json_dict(spec: DesignSpec) -> dict:
    out = {"family": spec.family, "lambda": spec.lam,
           "fiducial_phase": spec.fiducial_phase if spec.family == "qutrit_sic" else None}
    if spec.dim is not None:
        out["dim"] = spec.dim
    return out


def spec_from_json_dict(data: dict) -> DesignSpec:
    phase = data.get("fiducial_phase")
    return DesignSpec(family=data["family"], lam=float(data.get("lambda", 1.0)),
                      fiducial_phase=0.0 if phase is None else float(phase),
                      dim=data.get("dim"))
