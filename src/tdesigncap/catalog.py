"""Construction of the named measurement families and the depolarizing map.

Everything the package knows about a family is one ``Family`` row of ``FAMILY``: its
cataloged dimensions, design strength, lambda = 1 POVM, capacity-achieving states and
closed-form overlap spectrum. Rows hold constructors, so nothing is built at import; a new
family costs its state constructor and one row.

Every finite family is built as a POVM-role WeightedElementSet whose stored operators are
the unit-trace elements chi_x (effects are d * p_x * chi_x). The uniform rank-one POVM is an
analytic marker: it has no finite element list and build() refuses it; capacity and
verification for it are handled by closed-form code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import WeightedElementSet, bloch_states, dedupe_states, pure_ensemble
from .verify import MomentVector


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

    ``dim`` must be an int (not a bool) among the family's cataloged dims; it
    may be omitted where there is only one. ``fiducial_phase`` selects a member of the qutrit
    SIC fiducial family (0, 1, -e^{i theta})/sqrt(2); the default 0 is the
    Hesse fiducial. The uniform family has no element list to check ``lam``
    against at build time, so its [1/(1 - d), 1] is checked here.
    """

    family: str
    lam: float = 1.0
    fiducial_phase: float = 0.0
    dim: int | None = None

    def __post_init__(self):
        row = _family(self.family)
        if self.dim is not None and (isinstance(self.dim, bool) or not isinstance(self.dim, int)):
            raise UnsupportedFamilyError(f"dim must be an integer, got {self.dim!r}")
        if self.dim is None:
            if len(row.dims) != 1:
                raise UnsupportedFamilyError(f"{self.family} requires an explicit dimension")
        elif row.dims and self.dim not in row.dims:
            raise UnsupportedFamilyError(f"{self.family} is cataloged for dim in"
                                         f" {list(row.dims)}, not {self.dim}")
        elif self.dim < 2:
            raise UnsupportedFamilyError(f"{self.family} requires dim >= 2")
        if row.povm is None:
            AdmissibleInterval(1.0 / (1 - self.dim), 1.0).require(self.lam, self.family)

    @property
    def dimension(self) -> int:
        return self.dim if self.dim is not None else FAMILY[self.family].dims[0]


@dataclass(frozen=True)
class AdmissibleInterval:
    """Depolarizing parameters keeping every element positive: [lo, hi].

    ``clamped`` marks the degenerate all-maximally-mixed case where both
    endpoints diverge and are clamped to +-1e12.
    """

    lo: float
    hi: float
    clamped: bool = False

    def require(self, lam: float, family: str = "") -> None:
        """Refuse ``lam`` more than 1e-12 outside the interval (nan too), naming ``family`` if
        one is given."""
        if not self.lo - 1e-12 <= lam <= self.hi + 1e-12:
            raise LambdaRangeError(f"lambda={lam} outside admissible interval"
                                   f" [{self.lo:.6g}, {self.hi:.6g}]"
                                   + (f" for {family}" if family else ""))


def _family(name: str) -> Family:
    row = FAMILY.get(name)
    if row is None:
        raise UnsupportedFamilyError(f"unknown family {name!r}; known: {FAMILIES}")
    return row


def design_strength(family: str) -> int | float:
    """Largest t at which the family is a t design; math.inf for uniform."""
    return _family(family).strength


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


def _weyl_heisenberg(d: int) -> np.ndarray:
    """The d^2 displacements X^a Z^b of the shift/clock pair in dim d, (d^2, d, d), a slowest.

    X|j> = |j + 1 mod d>, so X^a Z^b is Z^b with its rows rolled down by a. Each is a
    monomial matrix, so each entry of an orbit ``group @ fiducial`` is one product.
    """
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    zs = np.array([np.linalg.matrix_power(clock, b) for b in range(d)])
    return np.array([np.roll(zs, a, axis=1) for a in range(d)]).reshape(d * d, d, d)


def _sic_orbit(group: np.ndarray, fiducial: np.ndarray, what: str) -> np.ndarray:
    """The orbit ``group @ fiducial``, checked for the SIC overlaps 1/(d + 1)."""
    states = group @ fiducial
    d = states.shape[1]
    gram = np.abs(states @ states.conj().T) ** 2
    target = np.full_like(gram, 1.0 / (d + 1))
    np.fill_diagonal(target, 1.0)
    dev = np.abs(gram - target).max()
    if dev > 1e-10:
        raise FiducialVerificationError(
            f"{what}: SIC overlap condition violated, max deviation {dev:.3e}")
    return states


def qutrit_sic_states(fiducial_phase: float = 0.0) -> np.ndarray:
    f = np.array([0.0, 1.0, -np.exp(1j * fiducial_phase)], dtype=complex) / math.sqrt(2)
    return _sic_orbit(_weyl_heisenberg(3), f, f"qutrit SIC (phase {fiducial_phase})")


def _qutrit_sic_optimal(fiducial_phase: float) -> np.ndarray:
    """The states orthogonal to 3 SIC elements: null vectors of dependent triples.

    The Hesse-equivalent fiducials admit 12 such states (the complete MUB);
    any other fiducial admits one orthonormal basis of them.
    """
    from itertools import combinations
    svds = [np.linalg.svd(np.array(triple))
            for triple in combinations(qutrit_sic_states(fiducial_phase).conj(), 3)]
    found = dedupe_states([vh[-1].conj() for _, s, vh in svds if s[-1] < 1e-8 * s[0]])
    if len(found) not in (3, 12):
        raise RuntimeError(f"{len(found)} states are orthogonal to 3 SIC elements;"
                           " expected 3 or 12")
    return found


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
    return _sic_orbit(_three_qubit_displacements(), fiducial, "Hoggar SIC")


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


# ---------------------------------------------------------------------------
# the family record

@dataclass(frozen=True)
class Family:
    """One catalog family; ``FAMILY`` holds one row per family."""

    dims: tuple[int, ...]  # the cataloged dimensions; () means any d >= 2
    strength: int | float  # the largest t at which it is a t design
    povm: Callable | None = None  # (d, phase) -> the lambda = 1 POVM; None: analytic
    optimal: tuple | None = None  # (label, (d, phase) -> capacity-achieving states)
    spectrum: Callable | None = None  # d -> ((c_k, a_k), ...) of the closed form
    phased: tuple[int, ...] = ()  # the dimensions whose elements depend on the phase


def _bloch(vectors: np.ndarray) -> Callable:
    """(d, phase) -> the qubit states of the unit Bloch ``vectors``."""
    return lambda d, phase: bloch_states(np.arccos(np.clip(vectors[:, 2], -1.0, 1.0)),
                                         np.arctan2(vectors[:, 1], vectors[:, 0]))


def _rank_one(label: str, states: Callable) -> Callable:
    return lambda d, phase: pure_ensemble(d, states(d, phase), role="povm", label=label)


# The SIC states of each cataloged dimension, by fiducial phase (only the
# qutrit SIC has a fiducial family); the anti-SICs are their anti-designs.
_SIC_STATES = {2: _bloch(_TETRAHEDRON),
               3: lambda d, phase: qutrit_sic_states(phase),
               8: lambda d, phase: hoggar_states()}


def _sic(d: int, phase: float) -> np.ndarray:
    return _SIC_STATES[d](d, phase)


def _anti_sic(d: int, phase: float) -> WeightedElementSet:
    return anti_design(pure_ensemble(d, _sic(d, phase), role="povm", label=f"anti_sic_{d}"))


# Each finite family's closed form is the KL bound of its capacity-achieving
# states phi: C(lambda) = ln d - sum_k c_k eta(lambda a_k + (1 - lambda)/d), where
# a_k is an overlap <phi|chi_y|phi> with the undepolarized elements and c_k is d
# times the total weight q_y of the elements at that overlap (Dall'Arno,
# D'Ariano & Sacchi, PRA 83, 062304, 2011). Every spectrum has sum c_k = d and
# sum c_k a_k = 1. The anti-SIC's holds in every d, cataloged or not.
_SQRT5 = math.sqrt(5.0)
FAMILY = {
    "qubit_sic": Family((2,), 2, _rank_one("qubit_sic", _sic),
                        ("dual_tetrahedron", _bloch(-_TETRAHEDRON)),
                        lambda d: ((1 / 2, 0.0), (3 / 2, 2 / 3))),
    "qubit_mub": Family((2,), 3, _rank_one("qubit_mub", _bloch(_OCTAHEDRON)),
                        ("octahedron", _bloch(_OCTAHEDRON)),
                        lambda d: ((1 / 3, 0.0), (4 / 3, 1 / 2), (1 / 3, 1.0))),
    "icosahedron": Family((2,), 5, _rank_one("icosahedron", _bloch(_ICOSAHEDRON)),
                          ("icosahedron", _bloch(_ICOSAHEDRON)),
                          lambda d: ((1 / 6, 0.0), (5 / 6, (5 - _SQRT5) / 10),
                                     (5 / 6, (5 + _SQRT5) / 10), (1 / 6, 1.0))),
    "qutrit_sic": Family((3,), 2, _rank_one("qutrit_sic", _sic),
                         ("sic_orthogonal_basis", lambda d, phase: _qutrit_sic_optimal(phase)),
                         lambda d: ((1.0, 0.0), (2.0, 1 / 2)), phased=(3,)),
    "qutrit_mub": Family((3,), 2, _rank_one("qutrit_mub", lambda d, phase: qutrit_mub_states()),
                         ("hesse_sic", lambda d, phase: qutrit_sic_states(0.0)),
                         lambda d: ((1.0, 0.0), (2.0, 1 / 2))),
    "hoggar_sic": Family((8,), 2, _rank_one("hoggar_sic", _sic),
                         ("dual_hoggar", lambda d, phase: hoggar_dual_states()),
                         lambda d: ((7 / 2, 0.0), (9 / 2, 2 / 9))),
    "anti_sic": Family(tuple(_SIC_STATES), 2, _anti_sic, ("sic_states", _sic),
                       lambda d: ((1 / d, 0.0), ((d * d - 1) / d, d / (d * d - 1))),
                       phased=(3,)),
    "uniform": Family((), math.inf),
}
FAMILIES = tuple(FAMILY)


def build(spec: DesignSpec) -> WeightedElementSet:
    """Construct the family named by ``spec`` and depolarize at spec.lam.

    The uniform family has no finite representation; requesting it raises
    AnalyticFamilyError so callers can route to closed-form paths.
    """
    povm = FAMILY[spec.family].povm
    if povm is None:
        raise AnalyticFamilyError(
            f"the {spec.family} POVM is handled analytically; no element list exists")
    base = povm(spec.dimension, spec.fiducial_phase)
    admissible_lambda(base).require(spec.lam, spec.family)
    return depolarize(base, spec.lam)


def depolarize(eset: WeightedElementSet, lam: float) -> WeightedElementSet:
    """Apply chi -> lam chi + (1 - lam) 1/d to every unit-trace element.

    Weights (and POVM completeness) are unchanged; lam must lie in the admissible interval
    of the set or positivity fails. The output keeps the input's label; lam = 1 returns the
    input. At 0 <= lam <= 1 the mix keeps every property the input was validated for, so the
    output is built unchecked (``WeightedElementSet._derived``); any other lam (nan too)
    reads the interval from the input's spectrum and is validated in full. A spectrum, if
    read, is measured from the output's ops.
    """
    if lam == 1.0:
        return eset
    convex = 0.0 <= lam <= 1.0
    if not convex:
        admissible_lambda(eset).require(lam)
    ops = lam * eset.ops + (1.0 - lam) * np.eye(eset.dim) / eset.dim
    if convex:
        return WeightedElementSet._derived(eset, ops)
    return WeightedElementSet(eset.dim, eset.weights, ops, eset.role, eset.label)


def admissible_lambda(eset: WeightedElementSet) -> AdmissibleInterval:
    """[1/(1 - d a_max), 1/(1 - d a_min)] from the extreme element eigenvalues.

    a_min and a_max are read from the set's spectrum, which the first read
    diagonalises and later reads share. a_min below 1e-12 is treated as an
    exact 0, making the upper endpoint 1. If every element is already 1/d both
    denominators vanish; the interval is clamped to +-1e12 and flagged.
    """
    d = eset.dim
    a_max = float(eset.spectrum[:, -1].max())
    a_min = float(eset.spectrum[:, 0].min())
    if a_min < 1e-12:
        a_min = 0.0
    den_lo, den_hi = 1.0 - d * a_max, 1.0 - d * a_min
    flat_lo, flat_hi = abs(den_lo) < 1e-12, abs(den_hi) < 1e-12
    lo = -1e12 if flat_lo else 1.0 / den_lo
    hi = 1e12 if flat_hi else 1.0 / den_hi
    return AdmissibleInterval(lo=lo, hi=hi, clamped=flat_lo or flat_hi)


def anti_design(eset: WeightedElementSet) -> WeightedElementSet:
    """Depolarize at the extreme negative endpoint, the ``lo`` of :func:`admissible_lambda`.

    The interval is read from the set's spectrum (shared with the interval check of
    :func:`depolarize`); the output is not diagonalised and keeps the input's label. A set
    whose interval is clamped (every element 1/d) has no anti-design. For rank-one input
    every output element is (1 - chi)/(d - 1).
    """
    interval = admissible_lambda(eset)
    if interval.clamped:
        raise LambdaRangeError("anti-design undefined: the admissible interval is clamped"
                               " (every element is 1/d)")
    return depolarize(eset, interval.lo)


def moments_of_depolarized(mv: MomentVector, lam: float) -> MomentVector:
    """Push the moments mu_1..mu_k of ``mv`` through the depolarizing map.

    mu_k(D_lam(chi)) = sum_n C(k, n) lam^n ((1-lam)/d)^(k-n) mu_n(chi), with
    d = mu_0 = Tr[chi^0] read from ``mv``.
    """
    d = mv.mu0
    out = []
    for k in range(1, len(mv) + 1):
        acc = 0.0
        for n in range(k + 1):
            acc += math.comb(k, n) * lam ** n * ((1.0 - lam) / d) ** (k - n) * mv[n]
        out.append(acc)
    return MomentVector(values=tuple(out), mu0=d)


def spec_to_json_dict(spec: DesignSpec) -> dict:
    phased = spec.dimension in FAMILY[spec.family].phased
    out = {"family": spec.family, "lambda": spec.lam,
           "fiducial_phase": spec.fiducial_phase if phased else None}
    if spec.dim is not None:
        out["dim"] = spec.dim
    return out


def spec_from_json_dict(data: dict) -> DesignSpec:
    phase = data.get("fiducial_phase")
    return DesignSpec(family=data["family"], lam=float(data.get("lambda", 1.0)),
                      fiducial_phase=0.0 if phase is None else float(phase),
                      dim=data.get("dim"))
