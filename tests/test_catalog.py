import json

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    admissible_lambda,
    anti_design,
    build,
    depolarize,
    moments_of_depolarized,
)
from tdesigncap.catalog import (
    AnalyticFamilyError,
    FiducialVerificationError,
    HOGGAR_FIDUCIAL,
    LambdaRangeError,
    UnsupportedFamilyError,
    design_strength,
    hoggar_states,
    qutrit_sic_states,
    spec_from_json_dict,
    spec_to_json_dict,
)

ALL_FINITE_SPECS = [
    DesignSpec("qubit_sic"),
    DesignSpec("qubit_mub"),
    DesignSpec("icosahedron"),
    DesignSpec("qutrit_sic"),
    DesignSpec("qutrit_sic", fiducial_phase=1.1),
    DesignSpec("qutrit_mub"),
    DesignSpec("hoggar_sic"),
    DesignSpec("anti_sic", dim=2),
    DesignSpec("anti_sic", dim=3),
    DesignSpec("anti_sic", dim=8),
]


def _pairwise_state_overlaps(eset):
    """|<chi_x|chi_x'>|^2 for rank-one unit-trace elements, via traces."""
    n = len(eset)
    g = np.einsum("xij,yji->xy", eset.ops, eset.ops).real
    return g


class TestBuild:
    def test_qubit_sic_overlaps(self, qubit_sic):
        g = _pairwise_state_overlaps(qubit_sic)
        off = g[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1 / 3, atol=1e-12)

    def test_qutrit_mub_overlaps(self, qutrit_mub):
        g = _pairwise_state_overlaps(qutrit_mub)
        # within a basis: 0 or 1; across bases: 1/3
        for x in range(12):
            for y in range(12):
                v = g[x, y]
                if x == y:
                    assert v == pytest.approx(1.0, abs=1e-12)
                elif x // 3 == y // 3:
                    assert v == pytest.approx(0.0, abs=1e-12)
                else:
                    assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_qutrit_sic_family_overlaps(self):
        for phase in (0.0, 0.7, 2.1, -1.3):
            states = qutrit_sic_states(phase)
            g = np.abs(states @ states.conj().T) ** 2
            off = g[~np.eye(9, dtype=bool)]
            assert np.allclose(off, 0.25, atol=1e-12)

    def test_full_depolarization_flattens(self):
        for spec in ALL_FINITE_SPECS:
            flat = build(DesignSpec(spec.family, 0.0, spec.fiducial_phase, spec.dim))
            d = flat.dim
            assert np.abs(flat.ops - np.eye(d) / d).max() < 1e-12

    def test_every_family_is_a_povm_at_sampled_lambdas(self):
        for spec in ALL_FINITE_SPECS:
            base = build(spec)
            interval = admissible_lambda(base)
            for lam in (0.0, 0.3, 1.0, interval.lo + 1e-9):
                # construction revalidates all POVM invariants
                build(DesignSpec(spec.family, lam, spec.fiducial_phase, spec.dim))

    def test_uniform_is_analytic(self):
        with pytest.raises(AnalyticFamilyError):
            build(DesignSpec("uniform", dim=2))

    def test_uniform_lambda_interval(self):
        # rank-one elements: [1/(1-d), 1], the anti-design endpoint included
        for d in (2, 3, 8):
            DesignSpec("uniform", 1.0 / (1 - d), dim=d)
            for lam in (1.0 / (1 - d) - 1e-6, 1.0 + 1e-6, 5.0):
                with pytest.raises(LambdaRangeError):
                    DesignSpec("uniform", lam, dim=d)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            DesignSpec("dodecahedron")

    def test_anti_sic_needs_dim(self):
        with pytest.raises(UnsupportedFamilyError):
            DesignSpec("anti_sic")
        with pytest.raises(UnsupportedFamilyError):
            DesignSpec("anti_sic", dim=5)

    def test_lambda_out_of_range(self):
        with pytest.raises(LambdaRangeError):
            build(DesignSpec("qubit_sic", 1.5))

    def test_hoggar_fiducial_self_check(self):
        states = hoggar_states()
        assert states.shape == (64, 8)
        bad = HOGGAR_FIDUCIAL.copy()
        bad[3] = 0.9j * bad[3]
        bad /= np.linalg.norm(bad)
        with pytest.raises(FiducialVerificationError):
            hoggar_states(bad)

    def test_weyl_heisenberg_orbit_spectra_identical(self, qutrit_sic, hoggar):
        for eset in (qutrit_sic, hoggar):
            eigs = np.linalg.eigvalsh(eset.ops)
            assert np.abs(eigs - eigs[0]).max() < 1e-10


class TestDepolarize:
    def test_identity_at_lambda_one(self, qubit_mub):
        out = depolarize(qubit_mub, 1.0)
        assert np.array_equal(out.ops, qubit_mub.ops)

    def test_flat_at_lambda_zero(self, qutrit_sic):
        out = depolarize(qutrit_sic, 0.0)
        assert np.abs(out.ops - np.eye(3) / 3).max() < 1e-15

    def test_rank_one_at_negative_extreme(self, qutrit_sic):
        # lambda = 1/(1-d) sends a pure state to its normalized complement
        d = 3
        out = depolarize(qutrit_sic, 1 / (1 - d))
        expected = (np.eye(d) - qutrit_sic.ops) / (d - 1)
        assert np.abs(out.ops - expected).max() < 1e-12
        assert np.allclose(np.trace(out.ops, axis1=1, axis2=2), 1.0)
        assert np.linalg.matrix_rank(out.ops[0], tol=1e-9) == d - 1

    def test_composition_law(self, icosahedron, rng):
        for _ in range(10):
            l1, l2 = rng.uniform(0, 1, 2)
            once = depolarize(icosahedron, l1 * l2)
            twice = depolarize(depolarize(icosahedron, l1), l2)
            assert np.abs(once.ops - twice.ops).max() < 1e-12

    def test_positivity_violation_outside_interval(self, qubit_sic):
        with pytest.raises(LambdaRangeError):
            depolarize(qubit_sic, -1.2)


class TestAdmissibleLambda:
    def test_projective_d2(self, qubit_sic):
        interval = admissible_lambda(qubit_sic)
        assert interval.lo == pytest.approx(-1.0, abs=1e-9)
        assert interval.hi == pytest.approx(1.0, abs=1e-12)

    def test_projective_d3(self, qutrit_sic):
        interval = admissible_lambda(qutrit_sic)
        assert interval.lo == pytest.approx(-0.5, abs=1e-9)
        assert interval.hi == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_clamped(self, qubit_sic):
        flat = depolarize(qubit_sic, 0.0)
        interval = admissible_lambda(flat)
        assert interval.clamped
        assert interval.lo <= -1e12 and interval.hi >= 1e12

    def test_catalog_intervals_contain_unit_interval(self):
        for spec in ALL_FINITE_SPECS:
            interval = admissible_lambda(build(spec))
            assert interval.lo <= 0.0 <= 1.0 <= interval.hi + 1e-12


class TestAntiDesign:
    def test_qubit_sic_antipodes(self, qubit_sic):
        anti = anti_design(qubit_sic)
        # each output is orthogonal to its input (antipodal on the Bloch sphere)
        for x in range(4):
            assert np.trace(anti.ops[x] @ qubit_sic.ops[x]).real == pytest.approx(0.0, abs=1e-12)
        off = _pairwise_state_overlaps(anti)[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1 / 3, atol=1e-12)

    def test_qutrit_sic_rank_two(self, qutrit_sic):
        anti = anti_design(qutrit_sic)
        expected = (np.eye(3) - qutrit_sic.ops) / 2
        assert np.abs(anti.ops - expected).max() < 1e-12

    def test_involution_in_d2(self, qubit_sic):
        twice = anti_design(anti_design(qubit_sic))
        assert np.abs(twice.ops - qubit_sic.ops).max() < 1e-10

    def test_undefined_for_flat_set(self, qubit_sic):
        with pytest.raises(LambdaRangeError):
            anti_design(depolarize(qubit_sic, 0.0))


class TestMomentsOfDepolarized:
    def test_identity_at_lambda_one(self):
        mus = [2.0, 1.0, 0.8, 0.7]
        assert moments_of_depolarized(mus, 1.0, 2) == pytest.approx(mus, abs=1e-15)

    def test_flat_at_lambda_zero(self):
        out = moments_of_depolarized([3.0, 1.0, 1.0, 1.0], 0.0, 3)
        assert out[1:] == pytest.approx([3.0 ** (1 - k) for k in (1, 2, 3)], abs=1e-15)

    def test_rank_one_half_depolarized(self):
        # eigenvalue oracle: lam psi + (1-lam)/2 has spectrum {3/4, 1/4} at
        # lam = 1/2, so mu_2 = 9/16 + 1/16 = 0.625. The binomial identity must
        # reproduce it (a worked example quoting 0.5625 drops the second term).
        out = moments_of_depolarized([2.0, 1.0, 1.0], 0.5, 2)
        assert out[2] == pytest.approx(0.625, abs=1e-15)

    def test_matches_eigenvalue_oracle_on_random_spectra(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            spec = rng.dirichlet(np.ones(d))
            lam = float(rng.uniform(0, 1))
            mus = [float(d)] + [float((spec ** k).sum()) for k in range(1, 6)]
            pushed = moments_of_depolarized(mus, lam, d)
            dep = lam * spec + (1 - lam) / d
            direct = [float(d)] + [float((dep ** k).sum()) for k in range(1, 6)]
            assert pushed == pytest.approx(direct, abs=1e-13)

    def test_mu0_must_be_d(self):
        with pytest.raises(ValueError):
            moments_of_depolarized([1.0, 1.0], 0.5, 2)


class TestSpecJson:
    def test_round_trip(self):
        spec = DesignSpec("anti_sic", 0.4, dim=3)
        again = spec_from_json_dict(spec_to_json_dict(spec))
        assert again == spec

    def test_json_format_fields(self):
        d = spec_to_json_dict(DesignSpec("qutrit_sic", 0.25, fiducial_phase=0.7))
        assert json.dumps(d)  # serializable
        assert d["family"] == "qutrit_sic"
        assert d["lambda"] == 0.25
        assert d["fiducial_phase"] == 0.7

    def test_design_strengths(self):
        assert design_strength("qubit_sic") == 2
        assert design_strength("qubit_mub") == 3
        assert design_strength("icosahedron") == 5
        assert design_strength("uniform") == 5
