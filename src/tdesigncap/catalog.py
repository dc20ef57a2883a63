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
            if self.family == "anti_sic" and self.dim not in SIC_STATES:
                raise UnsupportedFamilyError(
                    f"anti_sic is cataloged for dim in {sorted(SIC_STATES)}")
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


def design_strength(family: str) -> int | float:
    """Largest t at which the family is a t design; math.inf for uniform."""
    if family == "uniform":
        return math.inf
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


def _three_qubit_displacements() -> np.ndarray:
    """The 64 Kronecker products of three single-qubit X^a Z^b, (64, 8, 8).

    The first qubit's (a, b) varies slowest; every entry is 0 or +-1.
    """
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    singles = np.array([np.eye(2), Z, X, X @ Z], dtype=complex)
    return np.einsum("aij,bkl,cmn->abcikmjln", singles, singles, singles).reshape(64, 8, 8)


def hoggar_states(fiducial: np.ndarray = HOGGAR_FIDUCIAL) -> np.ndarray:
    states = _three_qubit_displacements() @ fiducial
    _check_sic_orbit(states, "Hoggar SIC")
    return states


def hoggar_dual_states() -> np.ndarray:
    """The twin Hoggar lines: the displacement orbit of the conjugate fiducial.

    Each twin state is orthogonal to 28 Hoggar lines and has squared overlap
    2/9 with the remaining 36; this is verified on construction.
    """
    duals = _three_qubit_displacements() @ HOGGAR_FIDUCIAL.conj()
    ov = np.abs(duals[0] @ hoggar_states().conj().T) ** 2
    n0 = int(np.sum(ov < 1e-10))
    n1 = int(np.sum(np.abs(ov - 2 / 9) < 1e-10))
    if (n0, n1) != (28, 36):
        raise FiducialVerificationError(
            f"twin Hoggar overlap pattern is ({n0}, {n1}), expected (28, 36)")
    return duals


# The SIC states of each cataloged dimension, by fiducial phase (only the
# qutrit SIC has a fiducial family); anti_sic is their anti-design.
SIC_STATES = {2: lambda fiducial_phase: _bloch_amplitudes(_TETRAHEDRON),
              3: qutrit_sic_states,
              8: lambda fiducial_phase: hoggar_states()}

_POVM_STATES = {"qubit_sic": SIC_STATES[2],
                "qubit_mub": lambda fiducial_phase: _bloch_amplitudes(_OCTAHEDRON),
                "icosahedron": lambda fiducial_phase: _bloch_amplitudes(_ICOSAHEDRON),
                "qutrit_sic": SIC_STATES[3],
                "qutrit_mub": lambda fiducial_phase: qutrit_mub_states(),
                "hoggar_sic": SIC_STATES[8]}


def _base_povm(family: str, dim: int | None, fiducial_phase: float) -> WeightedElementSet:
    if family == "anti_sic":
        sic = pure_ensemble(dim, SIC_STATES[dim](fiducial_phase), role="povm")
        return anti_design(sic, label=f"anti_sic_{dim}")
    if family not in _POVM_STATES:
        raise UnsupportedFamilyError(family)
    states = _POVM_STATES[family](fiducial_phase)
    return pure_ensemble(states.shape[1], states, role="povm", label=family)


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


def depolarize(eset: WeightedElementSet, lam: float,
               label: str | None = None) -> WeightedElementSet:
    """Apply chi -> lam chi + (1 - lam) 1/d to every unit-trace element.

    Weights (and POVM completeness) are unchanged; lam must lie in the
    admissible interval of the set or positivity fails. The output keeps the
    input's label unless ``label`` is given. The interval comes
    from the input's stored spectrum, so the one diagonalisation is the
    output's own validation: its spectrum is measured, not derived.
    """
    interval = admissible_lambda(eset)
    if not interval.contains(lam):
        raise LambdaRangeError(
            f"lambda={lam} outside admissible interval [{interval.lo:.6g}, {interval.hi:.6g}]")
    d = eset.dim
    ops = lam * eset.ops + (1.0 - lam) * np.eye(d) / d
    return WeightedElementSet(d, eset.weights, ops, eset.role,
                              eset.label if label is None else label)


def admissible_lambda(eset: WeightedElementSet) -> AdmissibleInterval:
    """[1/(1 - d a_max), 1/(1 - d a_min)] from the extreme element eigenvalues.

    a_min and a_max are read from the set's stored spectrum. a_min below
    1e-12 is treated as an exact 0, making the upper endpoint 1. If every
    element is already 1/d both denominators vanish; the interval is
    clamped to +-1e12 and flagged.
    """
    d = eset.dim
    a_max = float(eset.spectrum[:, -1].max())
    a_min = float(eset.spectrum[:, 0].min())
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


def anti_design(eset: WeightedElementSet, label: str | None = None) -> WeightedElementSet:
    """Depolarize at the extreme negative endpoint 1/(1 - d a_max).

    a_max is read from the set's stored spectrum. For rank-one input every
    output element is (1 - chi)/(d - 1). ``label`` names the output (default:
    the input's), so relabelling needs no second validation.
    """
    d = eset.dim
    a_max = float(eset.spectrum[:, -1].max())
    if 1.0 - d * a_max > -1e-12:
        raise LambdaRangeError(
            f"anti-design undefined: max element eigenvalue {a_max:.6g} <= 1/d")
    return depolarize(eset, 1.0 / (1.0 - d * a_max), label)


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
