import math

import numpy as np
import pytest

from reference_ascent import kl_objective
from reference_closedform import capacity_reference, hyp2f1_11_series
from reference_information import average, mutual_information, pair_probability
from tdesigncap import (
    DesignSpec,
    build,
    capacity,
    depolarize,
    hyp2f1_11,
    optimal_ensemble,
    uniform_capacity,
)
from tdesigncap import catalog, closedform
from tdesigncap.catalog import UnsupportedFamilyError
from tdesigncap.closedform import overlap_spectrum
from tdesigncap.core import overlaps

ALL_FAMILIES = [
    ("qubit_sic", None), ("qubit_mub", None), ("icosahedron", None),
    ("qutrit_sic", None), ("qutrit_mub", None), ("hoggar_sic", None),
    ("anti_sic", 2), ("anti_sic", 3), ("anti_sic", 8),
    ("uniform", 2), ("uniform", 3), ("uniform", 8),
]


class TestCapacityEndpoints:
    def test_tetra(self):
        assert capacity("qubit_sic", 0.0) == pytest.approx(0.0, abs=1e-15)
        assert capacity("qubit_sic", 1.0) == pytest.approx(math.log(4 / 3), abs=1e-15)

    def test_octa(self):
        assert capacity("qubit_mub", 1.0) == pytest.approx(math.log(2) / 3, abs=1e-15)

    def test_anti_sic_d3(self):
        assert capacity("anti_sic", 1.0, dim=3) == pytest.approx(math.log(9 / 8), abs=1e-15)
        assert math.log(9 / 8) == pytest.approx(0.1177830, abs=1e-7)

    def test_hoggar(self):
        assert capacity("hoggar_sic", 1.0) == pytest.approx(math.log(16 / 9), abs=1e-15)

    def test_uniform_zero(self):
        for d in (2, 3, 8):
            assert capacity("uniform", 0.0, dim=d) == 0.0

    def test_all_zero_at_full_depolarization(self):
        for fam, dim in ALL_FAMILIES:
            assert capacity(fam, 0.0, dim=dim) == pytest.approx(0.0, abs=1e-12)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            capacity("qubit_sic", 1.2)
        with pytest.raises(ValueError):
            capacity("qubit_sic", -0.1)

    def test_sic_and_mub_rows_coincide(self):
        for lam in np.linspace(0, 1, 21):
            assert capacity("qutrit_sic", lam) == capacity("qutrit_mub", lam)

    def test_monotone_in_lambda(self):
        grid = np.linspace(0, 1, 41)
        for fam, dim in ALL_FAMILIES:
            vals = [capacity(fam, float(l), dim=dim) for l in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# every (family, d) whose row has a spectrum, read from the family record so that a
# new row is tested as soon as it is added; the dim argument is None where the row
# has only one d
_ROWS = [(name, row, d, None if len(row.dims) == 1 else d)
         for name, row in catalog.FAMILY.items() if row.spectrum for d in row.dims]
FINITE_FAMILIES = [(name, dim) for name, _, _, dim in _ROWS]
# ... and at a second fiducial phase where the elements depend on it
SPECTRUM_CASES = [(name, dim, phase) for name, row, d, dim in _ROWS
                  for phase in ((0.0, 0.9) if d in row.phased else (0.0,))]


class TestOverlapSpectra:
    @pytest.mark.parametrize("fam,dim,phase", SPECTRUM_CASES)
    def test_optimal_states_reproduce_spectrum(self, fam, dim, phase):
        # every optimal state sees the elements at the table's overlaps a_k,
        # with d times their total weight equal to c_k
        d, spectrum = overlap_spectrum(fam, dim)
        povm = build(DesignSpec(fam, 1.0, fiducial_phase=phase, dim=dim))
        ens = optimal_ensemble(fam, dim=dim, fiducial_phase=phase)
        states = np.array([np.linalg.eigh(op)[1][:, -1] for op in ens.ops])
        table = sorted(spectrum, key=lambda ca: ca[1])
        for row in overlaps(states, povm.ops):
            levels = [a for _, a in table]
            nearest = np.abs(row[:, None] - np.array(levels)[None, :]).argmin(axis=1)
            assert np.abs(row - np.array(levels)[nearest]).max() < 1e-12
            c = [d * povm.weights[nearest == k].sum() for k in range(len(table))]
            assert c == pytest.approx([ck for ck, _ in table], abs=1e-12)

    @pytest.mark.parametrize("fam,dim", FINITE_FAMILIES + [("anti_sic", 5)])
    def test_weights_sum_to_d_and_mean_overlap_one(self, fam, dim):
        d, spectrum = overlap_spectrum(fam, dim)
        assert sum(c for c, _ in spectrum) == pytest.approx(d, abs=1e-14)
        assert sum(c * a for c, a in spectrum) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("fam,dim", FINITE_FAMILIES)
    def test_matches_printed_expressions(self, fam, dim):
        for lam in np.linspace(0.0, 1.0, 1001):
            lam = float(lam)
            assert abs(capacity(fam, lam, dim=dim)
                       - capacity_reference(fam, lam, dim)) <= 2e-15

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            capacity("pentagon", 0.5)
        with pytest.raises(ValueError, match="dimension"):
            capacity("anti_sic", 0.5)


class TestHyp2f1:
    def test_empty_series(self):
        assert hyp2f1_11(4, 0.0) == 1.0

    def test_c4_minus_one_range(self):
        v = hyp2f1_11(4, -1.0)
        assert 0.5 < v < 1.0

    def test_against_defining_series(self):
        for z in (-0.05, -0.3, -0.8):
            for c in (4, 5, 10):
                assert hyp2f1_11(c, z) == pytest.approx(hyp2f1_11_series(c, z), abs=1e-12)

    def test_against_euler_integral(self):
        # (c-1) * int_0^1 (1-t)^(c-2) / (1-z t) dt, Gauss-Legendre quadrature
        nodes, weights = np.polynomial.legendre.leggauss(200)
        t = (nodes + 1) / 2
        w = weights / 2
        for c in (4, 5, 10):
            for z in (-0.5, -1.0, -7.5, -40.0):
                quad = (c - 1) * np.sum(w * (1 - t) ** (c - 2) / (1 - z * t))
                assert hyp2f1_11(c, z) == pytest.approx(quad, abs=1e-10)

    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_11(4, 0.1)

    def test_digamma_seed_against_scipy(self):
        from scipy.special import digamma

        for x in (1.0, 1.0001, 1.5, 2.0, 3.0, 4.25, 7.3, 10.0, 15.999, 16.0, 17.5, 100.0, 1e6):
            assert closedform._digamma(x) == pytest.approx(float(digamma(x)), abs=1e-14)

    def test_log_case_against_mpmath(self):
        # z < -999 takes the log-case series in powers of 1/(1 - z)
        mpmath = pytest.importorskip("mpmath")
        for c in (4, 4.5, 5, 10):
            for z in (-1e3, -4e4, -2e7, -1e11):
                with mpmath.workdps(30):
                    ref = float(mpmath.hyp2f1(1, 1, c, z))
                assert hyp2f1_11(c, z) == pytest.approx(ref, rel=1e-13)

    def test_uniform_monotone_and_below_ln_d(self):
        for d in (2, 3, 8):
            vals = [uniform_capacity(d, float(l)) for l in np.linspace(0, 1, 101)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] < math.log(d)

    def test_uniform_limit_at_one(self):
        # the lam -> 1 limit is ln d + 1 - H_d; the formula approaches it
        for d in (2, 3, 8):
            lim = math.log(d) + 1 - sum(1 / k for k in range(1, d + 1))
            assert uniform_capacity(d, 1.0) == pytest.approx(lim, abs=1e-15)
            assert uniform_capacity(d, 1 - 1e-7) == pytest.approx(lim, abs=1e-4)


class TestOptimalEnsembles:
    def test_qubit_sic_dual_tetrahedron(self, qubit_sic):
        ens = optimal_ensemble("qubit_sic")
        assert len(ens) == 4
        # each ensemble state is antipodal to one SIC element
        g = np.einsum("xij,yji->xy", ens.ops, qubit_sic.ops).real
        assert np.allclose(np.sort(g, axis=1)[:, 0], 0.0, atol=1e-12)

    def test_qubit_mub_same_octahedron(self, qubit_mub):
        ens = optimal_ensemble("qubit_mub")
        g = np.einsum("xij,yji->xy", ens.ops, qubit_mub.ops).real
        assert np.allclose(np.sort(g.ravel())[-6:], 1.0, atol=1e-12)

    def test_anti_sic_uses_sic_states(self, qutrit_sic):
        ens = optimal_ensemble("anti_sic", dim=3)
        assert len(ens) == 9
        assert np.abs(ens.ops - qutrit_sic.ops).max() < 1e-12

    def test_all_average_to_maximally_mixed(self):
        for fam, dim in ALL_FAMILIES:
            if fam == "uniform":
                continue
            ens = optimal_ensemble(fam, dim=dim)
            d = ens.dim
            assert np.abs(average(ens) - np.eye(d) / d).max() < 1e-10

    def test_uniform_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            optimal_ensemble("uniform", dim=2)

    @pytest.mark.parametrize("fam,dim", [(f, d) for f, d in ALL_FAMILIES if f != "uniform"])
    def test_attainment_across_lambda(self, fam, dim):
        # the defining property of the claimed optimizers: their mutual
        # information equals the closed form at every lambda
        ens = optimal_ensemble(fam, dim=dim)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            povm = build(DesignSpec(fam, lam, dim=dim))
            mi = mutual_information(pair_probability(ens, povm))
            assert mi == pytest.approx(capacity(fam, lam, dim=dim), abs=1e-9)

    def test_generic_qutrit_fiducial_attains(self):
        phase = 0.9
        ens = optimal_ensemble("qutrit_sic", fiducial_phase=phase)
        assert len(ens) == 3
        for lam in (0.4, 1.0):
            povm = build(DesignSpec("qutrit_sic", lam, fiducial_phase=phase))
            mi = mutual_information(pair_probability(ens, povm))
            assert mi == pytest.approx(capacity("qutrit_sic", lam), abs=1e-9)

    def test_hesse_fiducial_gets_complete_mub(self):
        ens = optimal_ensemble("qutrit_sic", fiducial_phase=0.0)
        assert len(ens) == 12

    def test_icosahedron_all_vertices_attain(self, icosahedron):
        # every vertex state reaches the KL maximum, not just a subset
        for lam in (0.5, 1.0):
            povm = depolarize(icosahedron, lam)
            c = capacity("icosahedron", lam)
            for op in optimal_ensemble("icosahedron").ops:
                w, v = np.linalg.eigh(op)
                assert kl_objective(povm, v[:, -1]) == pytest.approx(c, abs=1e-9)
