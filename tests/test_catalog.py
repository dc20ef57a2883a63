import json
import math
from itertools import product

import numpy as np
import pytest

from tdesigncap import (
    FAMILIES,
    AdmissibleInterval,
    DesignSpec,
    MomentVector,
    admissible_lambda,
    anti_design,
    build,
    depolarize,
    moments_of_depolarized,
)
from tdesigncap import verify
from tdesigncap.core import WeightedElementSet
from tdesigncap.catalog import (
    FAMILY,
    AnalyticFamilyError,
    FiducialVerificationError,
    HOGGAR_FIDUCIAL,
    LambdaRangeError,
    UnsupportedFamilyError,
    _three_qubit_displacements,
    design_strength,
    hoggar_dual_states,
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


# every cataloged (family, d), read from the family record so that a new row is
# tested as soon as it is added
CATALOGED = [(name, d) for name, row in FAMILY.items() for d in row.dims]


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

    @pytest.mark.parametrize("name", [name for name, row in FAMILY.items() if row.dims])
    def test_dim_outside_the_row_refused(self, name):
        # a qubit_sic spec at dim 3 used to build the d = 2 set and report dim 3
        dims = FAMILY[name].dims
        with pytest.raises(UnsupportedFamilyError,
                           match=rf"{name} is cataloged for dim in \[.*{dims[-1]}\]"):
            DesignSpec(name, dim=dims[-1] + 1)

    @pytest.mark.parametrize("name,dim", [("uniform", 2.5), ("anti_sic", 3.0),
                                          ("uniform", True), ("qubit_sic", "2")])
    def test_dim_that_is_not_an_int_refused(self, name, dim):
        # uniform at dim 2.5 used to give a closed form, and anti_sic at 3.0 was echoed as 3.0
        with pytest.raises(UnsupportedFamilyError, match=rf"dim must be an integer, got {dim!r}"):
            DesignSpec(name, dim=dim)

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


def kron_displacements() -> list[np.ndarray]:
    """The three-qubit displacements by np.kron, one qubit at a time (the reference)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    singles = {(a, b): np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
               for a in (0, 1) for b in (0, 1)}
    return [np.kron(np.kron(singles[k[0]], singles[k[1]]), singles[k[2]])
            for k in product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=3)]


class TestHoggarOrbit:
    def test_displacements_equal_kron_reference(self):
        assert np.array_equal(_three_qubit_displacements(), np.array(kron_displacements()))

    def test_orbits_equal_kron_reference(self):
        ref = kron_displacements()
        assert np.array_equal(hoggar_states(), np.array([D @ HOGGAR_FIDUCIAL for D in ref]))
        assert np.array_equal(hoggar_dual_states(),
                              np.array([D @ HOGGAR_FIDUCIAL.conj() for D in ref]))


class TestDepolarize:
    def test_identity_at_lambda_one(self, qubit_mub):
        out = depolarize(qubit_mub, 1.0)
        assert np.array_equal(out.ops, qubit_mub.ops)

    def test_lambda_one_returns_its_input(self, qubit_mub):
        # build and the CLI's oracle call depolarize at every lambda, 1 included
        assert depolarize(qubit_mub, 1.0) is qubit_mub

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

    @staticmethod
    def _fresh(eset):
        return WeightedElementSet(eset.dim, eset.weights, eset.ops, eset.role, eset.label)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_unit_interval_reads_no_spectrum(self, qutrit_sic, lam):
        fresh = self._fresh(qutrit_sic)
        out = depolarize(fresh, lam)
        assert "spectrum" not in vars(fresh) and "spectrum" not in vars(out)
        assert np.array_equal(out.ops, lam * fresh.ops + (1.0 - lam) * np.eye(3) / 3)

    def test_negative_lambda_reads_the_interval(self, qutrit_sic):
        fresh = self._fresh(qutrit_sic)
        out = depolarize(fresh, -0.25)
        assert "spectrum" in vars(fresh)
        ops = -0.25 * qutrit_sic.ops + 1.25 * np.eye(3) / 3
        assert out == WeightedElementSet(3, qutrit_sic.weights, ops, "povm")
        assert out.label == qutrit_sic.label

    @pytest.mark.parametrize("lam", [-0.6, 1.5, math.nan])
    def test_refusal_names_the_interval(self, qutrit_sic, lam):
        interval = admissible_lambda(qutrit_sic)
        with pytest.raises(LambdaRangeError) as err:
            depolarize(self._fresh(qutrit_sic), lam)
        assert str(err.value) == (f"lambda={lam} outside admissible interval"
                                  f" [{interval.lo:.6g}, {interval.hi:.6g}]")


class TestDerivedDepolarize:
    """At 0 <= lam <= 1 depolarize builds its output from the validated input unchecked; the
    output equals the validated construction, and anything else still validates in full."""

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        calls = []
        for name in ("cholesky", "eigvalsh"):
            def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @staticmethod
    def _validated(eset, lam):
        ops = lam * eset.ops + (1.0 - lam) * np.eye(eset.dim) / eset.dim
        return WeightedElementSet(eset.dim, eset.weights, ops, eset.role, eset.label)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.99])
    @pytest.mark.parametrize("family,dim", [("qubit_sic", None), ("qutrit_sic", None),
                                            ("hoggar_sic", None), ("anti_sic", 3)])
    def test_equals_the_validated_set(self, family, dim, lam, linalg_calls):
        eset = build(DesignSpec(family, dim=dim))
        linalg_calls.clear()
        out = depolarize(eset, lam)
        assert linalg_calls == []  # neither validated nor diagonalised
        ref = self._validated(eset, lam)
        assert out == ref and (out.label, out.role) == (ref.label, ref.role)
        for arr in (out.weights, out.ops):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            out.ops[0, 0, 0] = 0.0
        assert "spectrum" not in vars(out)
        assert np.array_equal(out.spectrum, np.linalg.eigvalsh(out.ops))  # measured on read
        assert out.spectrum is not eset.spectrum
        assert admissible_lambda(out) == admissible_lambda(ref)
        assert verify.certify(out, 2, n_spotchecks=3) == verify.certify(ref, 2, n_spotchecks=3)

    def test_negative_lambda_validates_in_full(self, qutrit_sic, linalg_calls):
        out = depolarize(qutrit_sic, -0.2)
        assert "cholesky" in linalg_calls
        assert out == self._validated(qutrit_sic, -0.2)

    @pytest.mark.parametrize("lam", [1.5, math.nan])
    def test_outside_the_interval_is_refused_before_any_set(self, qutrit_sic, lam,
                                                            linalg_calls, monkeypatch):
        monkeypatch.setattr(WeightedElementSet, "_derived", None)  # a call would fail
        with pytest.raises(LambdaRangeError, match="outside admissible interval"):
            depolarize(qutrit_sic, lam)
        assert "cholesky" not in linalg_calls


class TestLambdaRefusal:
    def test_build_depolarize_and_the_interval_give_one_message(self, qutrit_sic):
        # one AdmissibleInterval.require writes every refusal; a family, if given, is named
        text = "lambda=-0.6 outside admissible interval [-0.5, 1]"
        for refuse, expected in (
                (lambda: AdmissibleInterval(-0.5, 1).require(-0.6, "qutrit_sic"),
                 text + " for qutrit_sic"),
                (lambda: build(DesignSpec("qutrit_sic", -0.6)), text + " for qutrit_sic"),
                (lambda: depolarize(qutrit_sic, -0.6), text)):
            with pytest.raises(LambdaRangeError) as err:
                refuse()
            assert str(err.value) == expected

    def test_require_admits_the_closed_interval(self):
        interval = AdmissibleInterval(-0.5, 1.0)
        for lam in (-0.5 - 1e-12, -0.5, 0.0, 1.0, 1.0 + 1e-12):
            interval.require(lam)
        for lam in (-0.5 - 1e-11, 1.0 + 1e-11, math.nan):
            with pytest.raises(LambdaRangeError):
                interval.require(lam)


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


def _mv(values, d):
    return MomentVector(values=tuple(values), mu0=d)


class TestMomentsOfDepolarized:
    def test_identity_at_lambda_one(self):
        mv = _mv([1.0, 0.8, 0.7], 2)
        assert moments_of_depolarized(mv, 1.0).values == pytest.approx(mv.values, abs=1e-15)

    def test_flat_at_lambda_zero(self):
        out = moments_of_depolarized(_mv([1.0, 1.0, 1.0], 3), 0.0)
        assert out.mu0 == 3
        assert out.values == pytest.approx([3.0 ** (1 - k) for k in (1, 2, 3)], abs=1e-15)

    def test_rank_one_half_depolarized(self):
        # eigenvalue oracle: lam psi + (1-lam)/2 has spectrum {3/4, 1/4} at
        # lam = 1/2, so mu_2 = 9/16 + 1/16 = 0.625. The binomial identity must
        # reproduce it (a worked example quoting 0.5625 drops the second term).
        out = moments_of_depolarized(_mv([1.0, 1.0], 2), 0.5)
        assert out[2] == pytest.approx(0.625, abs=1e-15)

    def test_matches_eigenvalue_oracle_on_random_spectra(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            spec = rng.dirichlet(np.ones(d))
            lam = float(rng.uniform(0, 1))
            pushed = moments_of_depolarized(_mv([(spec ** k).sum() for k in range(1, 6)], d), lam)
            dep = lam * spec + (1 - lam) / d
            assert pushed.values == pytest.approx([(dep ** k).sum() for k in range(1, 6)],
                                                  abs=1e-13)


class TestFamilyRecord:
    @pytest.mark.parametrize("name,d", CATALOGED)
    def test_built_dim_is_the_rows(self, name, d):
        assert build(DesignSpec(name, dim=d)).dim == d
        if len(FAMILY[name].dims) == 1:
            assert DesignSpec(name).dimension == d

    @pytest.mark.parametrize("name,d", CATALOGED)
    def test_certified_at_its_strength_only(self, name, d):
        t = FAMILY[name].strength
        eset = build(DesignSpec(name, dim=d))
        assert verify.certify(eset, t, n_spotchecks=0).passed
        if t + 1 <= verify.MAX_T:
            assert not verify.certify(eset, t + 1, n_spotchecks=0).passed

    def test_families_keep_their_order(self):
        assert FAMILIES == ("qubit_sic", "qubit_mub", "icosahedron", "qutrit_sic",
                            "qutrit_mub", "hoggar_sic", "anti_sic", "uniform")


class TestSpecJson:
    @pytest.mark.parametrize("name,d", CATALOGED)
    def test_round_trip_builds_the_same_set(self, name, d):
        # anti_sic:3's JSON used to drop its fiducial phase and read back as phase 0
        spec = DesignSpec(name, 1.0, 0.7, d)
        again = build(spec_from_json_dict(spec_to_json_dict(spec)))
        assert np.array_equal(again.ops, build(spec).ops)

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
        assert design_strength("uniform") == math.inf

    def test_design_strength_of_an_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError, match=r"unknown family 'x'; known: \('qubit_sic'"):
            design_strength("x")
