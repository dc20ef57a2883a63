import dataclasses
import math

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    WeightedElementSet,
    admissible_lambda,
    anti_design,
    build,
    certify,
    depolarize,
    eta,
    pure_ensemble,
)
from tdesigncap.catalog import qutrit_sic_states
from tdesigncap.core import (GRID_BLOCK, check_probability_vector, compact_operator_view,
                             compact_projector_view, haar_random_states, overlaps)
from tdesigncap.verify import moments

from reference_grid import former_compact_projector_view, former_haar_random_states
from reference_information import (SupportViolationError, effects, mutual_information,
                                   pair_probability, relative_entropy, transposed)


class TestEta:
    def test_endpoints(self):
        assert eta(0.0) == 0.0
        assert eta(1.0) == 0.0

    def test_half(self):
        # independent arithmetic: -0.5 ln 0.5 = ln(2)/2
        assert eta(0.5) == pytest.approx(math.log(2) / 2, abs=1e-15)

    def test_clamping_band(self):
        assert eta(-1e-13) == 0.0
        assert eta(1 + 1e-13) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eta(-0.01)
        with pytest.raises(ValueError):
            eta(1.01)

    def test_concavity(self, rng):
        for _ in range(500):
            x, y = rng.uniform(0, 1, size=2)
            assert eta((x + y) / 2) >= (eta(x) + eta(y)) / 2 - 1e-12


class TestRelativeEntropy:
    def test_identical(self):
        assert relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_single_term(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_term(self):
        # 0.75 ln(1.5) + 0.25 ln(0.5)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert expected == pytest.approx(0.130812, abs=1e-6)
        assert relative_entropy([0.75, 0.25], [0.5, 0.5]) == pytest.approx(expected, abs=1e-15)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            relative_entropy([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy([1.0], [0.5, 0.5])

    def test_gibbs_nonnegative(self, rng):
        for _ in range(300):
            n = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            d = relative_entropy(p, q)
            assert d >= 0.0
            if d < 1e-9:
                assert np.abs(p - q).max() < 1e-3


class TestMutualInformation:
    def test_product_is_zero(self, rng):
        for _ in range(50):
            u = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(4))
            assert mutual_information(np.outer(u, v)) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_bit(self):
        assert mutual_information(np.eye(2) / 2) == pytest.approx(math.log(2), abs=1e-15)

    def test_matches_relative_entropy_by_construction(self):
        joint = np.array([[3 / 8, 1 / 8], [1 / 8, 3 / 8]])
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        expected = relative_entropy(joint.ravel(), np.outer(px, py).ravel())
        assert mutual_information(joint) == expected  # exact, same code path
        assert mutual_information(joint) == pytest.approx(
            relative_entropy([0.75, 0.25], [0.5, 0.5]), abs=1e-15)

    def test_normalization_error(self):
        with pytest.raises(ValueError):
            mutual_information(np.array([[0.5, 0.2], [0.1, 0.1]]))


class TestPairProbability:
    def test_basis_measured_in_own_basis(self):
        d = 3
        basis = pure_ensemble(d, np.eye(d, dtype=complex))
        povm = pure_ensemble(d, np.eye(d, dtype=complex), role="povm")
        joint = pair_probability(basis, povm)
        assert np.allclose(joint, np.eye(d) / d, atol=1e-12)

    def test_uninformative_povm_gives_product(self, qubit_sic):
        flat = depolarize(qubit_sic, 0.0)
        ens = pure_ensemble(2, np.array([[1, 0], [0, 1], [1, 1] / np.sqrt(2)], dtype=complex),
                            weights=np.array([0.5, 0.3, 0.2]))
        joint = pair_probability(ens, flat)
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        assert np.abs(joint - np.outer(px, py)).max() < 1e-12

    def test_sic_probed_with_own_state(self, qubit_sic):
        # one SIC state against the SIC POVM: state overlaps (1, 1/3, 1/3, 1/3),
        # so the row is d * q_y * overlap = (1/2, 1/6, 1/6, 1/6) by direct
        # 2x2 arithmetic; the row sums to 1/|x| = 1.
        state = qubit_sic.ops[0]
        w, v = np.linalg.eigh(state)
        ens = pure_ensemble(2, v[:, -1][None, :])
        joint = pair_probability(ens, qubit_sic)
        row = joint[0]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])
        assert np.allclose(np.sort(row), np.sort(expected), atol=1e-12)

    def test_total_is_one(self, qutrit_mub):
        ens = pure_ensemble(3, haar_random_states(3, 5, seed=7),
                            weights=np.full(5, 0.2))
        joint = pair_probability(ens, qutrit_mub)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self, qubit_sic):
        ens = pure_ensemble(3, np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            pair_probability(ens, qubit_sic)


class TestHaarRandomState:
    def test_deterministic(self):
        a = haar_random_states(2, 1, seed=99)
        b = haar_random_states(2, 1, seed=99)
        assert a.shape == (1, 2)
        assert np.array_equal(a, b)

    def test_normalized(self):
        for d in (2, 3, 8):
            assert np.linalg.norm(haar_random_states(d, 1, seed=d)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_haar_moments(self, d):
        n = 100_000
        states = haar_random_states(d, n, seed=123)
        p = np.abs(states[:, 0]) ** 2
        # first moment 1/d, second moment 2/(d(d+1)); 3 sigma from the sample
        for k, target in ((1, 1 / d), (2, 2 / (d * (d + 1)))):
            samples = p ** k
            err = abs(samples.mean() - target)
            assert err < 3 * samples.std() / math.sqrt(n)

    def test_dim_guard(self):
        for dim in (1, 0, -2):
            with pytest.raises(ValueError, match="dim"):
                haar_random_states(dim, 1, seed=0)

    def test_count_guard(self):
        for count in (0, -1):
            with pytest.raises(ValueError, match="count"):
                haar_random_states(2, count, seed=0)


class TestGridKernels:
    """The Haar sampler and the compact projector view, bit for bit their former formulas."""

    @pytest.mark.parametrize("seed", [0, 5, 2016])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_match_former_formulas(self, d, seed):
        block = GRID_BLOCK // (d * (d + 1))  # rows per block of the view
        for n in (1, 7, block - 1, block, block + 1, 20_001):
            states = haar_random_states(d, n, seed)
            assert states.base is None and states.flags.c_contiguous
            assert np.array_equal(states, former_haar_random_states(d, n, seed))
            assert np.array_equal(compact_projector_view(states),
                                  former_compact_projector_view(states))

    def test_view_of_a_strided_real_input(self):
        states = np.random.default_rng(3).standard_normal((GRID_BLOCK // 6 + 5, 3))
        for arr in (states, states[::3], states.T.copy().T):
            assert np.array_equal(compact_projector_view(arr), former_compact_projector_view(arr))


class TestWeightedElementSet:
    def test_weight_validation(self):
        ops = np.array([np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([0.6, 0.6]), ops)
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([1.2, -0.2]), ops)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([1.0]), np.array([np.eye(2)]))

    def test_hermiticity_validation(self):
        bad = np.array([[0.5, 0.1 + 0.1j], [0.3, 0.5]])
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([1.0]), bad[None])

    def test_positivity_validation(self):
        bad = np.array([[1.5, 0], [0, -0.5]], dtype=complex)
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([1.0]), bad[None])

    def test_validation_names_first_offending_element(self):
        ok = np.eye(2, dtype=complex) / 2
        weights = np.full(4, 0.25)
        nonherm = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="element 1 is not Hermitian"):
            WeightedElementSet(2, weights, np.array([ok, nonherm, ok, nonherm]))
        with pytest.raises(ValueError, match="element 2 has trace"):
            WeightedElementSet(2, weights, np.array([ok, ok, 2 * ok, 2 * ok]))
        indefinite = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="element 3 is not positive semidefinite"):
            WeightedElementSet(2, weights, np.array([ok, ok, ok, indefinite]))

    @staticmethod
    def rotated(lo: float) -> np.ndarray:
        """A qubit element with eigenvalues (1 - lo, lo) and no zero entry, so the
        positivity check's Cholesky factor is dense."""
        u = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
        return u @ np.diag([1.0 - lo, lo]).astype(complex) @ u.conj().T

    def test_positivity_refuses_just_past_tolerance(self):
        ok = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="element 1 is not positive semidefinite:"
                                             " min eigenvalue -2.000e-10"):
            WeightedElementSet(2, np.full(2, 0.5), np.array([ok, self.rotated(-2e-10)]))

    def test_positivity_accepts_within_tolerance(self):
        eset = WeightedElementSet(2, np.array([1.0]), self.rotated(-5e-11)[None])
        assert eset.spectrum[0, 0] == pytest.approx(-5e-11, abs=1e-15)

    def test_positivity_names_last_of_a_large_stack(self):
        n = 2048
        states = haar_random_states(2, n, seed=5)
        ops = np.einsum("xi,xj->xij", states, states.conj())
        ops[-1] = self.rotated(-0.5)
        with pytest.raises(ValueError, match="element 2047 is not positive semidefinite"):
            WeightedElementSet(2, np.full(n, 1.0 / n), ops)

    def test_cholesky_refusal_within_rounding_is_accepted(self, monkeypatch):
        # the two positivity tests can disagree only within rounding of the tolerance;
        # there the eigenvalues decide, and a set none of whose elements is below it passes
        def refuse(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        eset = WeightedElementSet(2, np.array([1.0]), self.rotated(-5e-11)[None])
        assert len(eset) == 1
        with pytest.raises(ValueError, match="element 0 is not positive semidefinite"):
            WeightedElementSet(2, np.array([1.0]), self.rotated(-2e-10)[None])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(ValueError, match=f"non-finite probability entry {bad!r} at index 1"):
            check_probability_vector(np.array([1.0, bad]))
        ops = np.array([np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValueError, match="non-finite probability entry"):
            WeightedElementSet(2, np.array([bad, 0.5]), ops)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ops_refused(self, bad):
        ok = np.eye(2, dtype=complex) / 2
        broken = ok.copy()
        broken[0, 1] = complex(0.0, bad)
        with pytest.raises(ValueError, match="element 1 has a non-finite entry"):
            WeightedElementSet(2, np.full(2, 0.5), np.array([ok, broken]))

    def test_povm_completeness_validation(self):
        # two copies of the same projector do not resolve the identity
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([0.5, 0.5]), np.array([proj, proj]), role="povm")

    def test_effects_resolve_identity(self, qubit_mub):
        total = effects(qubit_mub).sum(axis=0)
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_immutability(self, qubit_sic):
        with pytest.raises(ValueError):
            qubit_sic.ops[0, 0, 0] = 5.0

    def test_equality(self, qubit_sic):
        # distinct sets compare their contents; the array fields once made == raise
        rebuilt = build(DesignSpec("qubit_sic", 1.0))
        assert rebuilt is not qubit_sic
        assert (rebuilt == qubit_sic) is True
        assert (dataclasses.replace(qubit_sic, label="relabelled") == qubit_sic) is True
        assert (depolarize(qubit_sic, 0.5) == qubit_sic) is False
        assert (depolarize(qubit_sic, 0.5) != qubit_sic) is True
        assert (qubit_sic == "qubit_sic") is False
        with pytest.raises(TypeError):
            hash(qubit_sic)

    def test_certified_pair_total(self, qutrit_sic):
        # pair_probability output total = 1 for certified POVM/ensemble pairs
        spec = DesignSpec("qutrit_sic", 0.6)
        povm = build(spec)
        ens = pure_ensemble(3, haar_random_states(3, 4, seed=3), weights=np.full(4, 0.25))
        assert pair_probability(ens, povm).sum() == pytest.approx(1.0, abs=1e-9)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The argument shape of each np.linalg.eigvalsh call since the fixture was set up."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestSpectrum:
    """An element set is diagonalised on the first read of its spectrum, and only then."""

    def test_construction_diagonalises_once(self, eigvalsh_calls):
        eset = pure_ensemble(3, qutrit_sic_states(), role="povm")
        WeightedElementSet(3, eset.weights, eset.ops, "povm")
        assert eigvalsh_calls == []  # validation factorises, it does not diagonalise
        spectrum = eset.spectrum
        assert eigvalsh_calls == [(9, 3, 3)]
        assert eset.spectrum is spectrum
        assert len(eigvalsh_calls) == 1
        for dim in (2, 3, 8):  # the SIC's, read by the anti-design and by build's interval check
            eigvalsh_calls.clear()
            assert build(DesignSpec("anti_sic", dim=dim)).label == f"anti_sic_{dim}"
            assert len(eigvalsh_calls) == 2

    def test_spectrum_is_validations_eigvalsh(self, hoggar):
        eset = depolarize(hoggar, 0.5)
        for s in (hoggar, eset, transposed(eset)):
            assert s.spectrum.shape == (len(s), s.dim)
            assert np.array_equal(s.spectrum, np.linalg.eigvalsh(s.ops))
            with pytest.raises(ValueError):
                s.spectrum[0, 0] = 0.0

    def test_spectrum_is_not_an_argument(self, qubit_sic):
        with pytest.raises(TypeError):
            WeightedElementSet(2, qubit_sic.weights, qubit_sic.ops, "povm",
                               spectrum=qubit_sic.spectrum)

    def test_spectrum_is_not_a_field(self, qubit_sic):
        qubit_sic.spectrum  # once read, it is kept out of the fields and the repr too
        assert "spectrum" not in {f.name for f in dataclasses.fields(qubit_sic)}
        assert "spectrum" not in repr(qubit_sic)

    @pytest.mark.parametrize("family,dim", [("qubit_sic", None), ("qutrit_sic", None),
                                            ("anti_sic", 3), ("hoggar_sic", None)])
    def test_consumers_read_the_stored_spectrum(self, family, dim, eigvalsh_calls):
        eset = build(DesignSpec(family, 0.5, dim=dim))
        eigvalsh_calls.clear()
        admissible_lambda(eset)
        moments(eset, 5)
        certify(eset, 2)
        assert eigvalsh_calls == [(len(eset), eset.dim, eset.dim)]
        fresh = WeightedElementSet(eset.dim, eset.weights, eset.ops, eset.role, eset.label)
        # depolarize on [0, 1] reads neither spectrum; anti_design reads its input's only
        for derive, source in ((lambda s: depolarize(s, 0.5), fresh), (anti_design, eset)):
            eigvalsh_calls.clear()
            derived = derive(source)
            assert eigvalsh_calls == []
            assert "spectrum" not in vars(derived)
        assert "spectrum" not in vars(fresh) and "spectrum" in vars(eset)

    def test_derived_sets_diagonalise_their_own_ops(self, qutrit_sic, eigvalsh_calls):
        eset = depolarize(qutrit_sic, 0.5)
        eset.spectrum  # read first, so a derived set could only share it by copying
        for derive in (transposed,
                       lambda s: dataclasses.replace(s, label="relabelled")):
            eigvalsh_calls.clear()
            derived = derive(eset)
            assert eigvalsh_calls == []
            assert derived.spectrum is not eset.spectrum
            assert len(eigvalsh_calls) == 1
            assert np.array_equal(derived.spectrum, np.linalg.eigvalsh(derived.ops))


class TestOverlaps:
    @pytest.mark.parametrize("family,dim", [("qubit_sic", 2), ("qutrit_sic", 3),
                                            ("hoggar_sic", 8)])
    @pytest.mark.parametrize("kind", ["pure", "depolarized", "anti"])
    def test_matches_per_state_einsum(self, family, dim, kind):
        eset = build(DesignSpec("anti_sic", dim=dim) if kind == "anti" else DesignSpec(family))
        if kind == "depolarized":
            eset = depolarize(eset, 0.5)
        states = haar_random_states(dim, 200, seed=dim)
        expected = np.array([np.einsum("i,yij,j->y", phi.conj(), eset.ops, phi).real
                             for phi in states])
        got = overlaps(states, eset.ops)
        assert got.shape == (200, len(eset))
        assert np.abs(got - expected).max() <= 1e-15


class TestCompactLayout:
    """The compact Hermitian layout against the full one of core.overlaps."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_view_times_twin_is_overlaps(self, dim):
        rng = np.random.default_rng(dim)
        states = 3.0 * (rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim)))
        h = rng.standard_normal((17, dim, dim)) + 1j * rng.standard_normal((17, dim, dim))
        ops = h + h.conj().transpose(0, 2, 1)  # Hermitian, with negative eigenvalues
        assert (np.linalg.eigvalsh(ops)[:, 0] < 0).all()
        view, twin = compact_projector_view(states), compact_operator_view(ops)
        assert view.shape == (200, dim * (dim + 1)) and twin.shape == (17, dim * (dim + 1))
        ref = overlaps(states, ops)
        assert np.abs(view @ twin.T - ref).max() <= 1e-15 * np.abs(ref).max()
