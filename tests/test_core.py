import math

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    WeightedElementSet,
    build,
    depolarize,
    eta,
    haar_random_state,
    mutual_information,
    pair_probability,
    pure_ensemble,
    relative_entropy,
)
from tdesigncap.core import SupportViolationError, haar_random_states, overlaps


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
        a = haar_random_state(2, seed=99)
        b = haar_random_state(2, seed=99)
        assert np.array_equal(a, b)

    def test_normalized(self):
        for d in (2, 3, 8):
            assert np.linalg.norm(haar_random_state(d, seed=d)) == pytest.approx(1.0, abs=1e-12)

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
        with pytest.raises(ValueError):
            haar_random_state(1, seed=0)


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

    def test_povm_completeness_validation(self):
        # two copies of the same projector do not resolve the identity
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            WeightedElementSet(2, np.array([0.5, 0.5]), np.array([proj, proj]), role="povm")

    def test_effects_resolve_identity(self, qubit_mub):
        total = qubit_mub.effects.sum(axis=0)
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_immutability(self, qubit_sic):
        with pytest.raises(ValueError):
            qubit_sic.ops[0, 0, 0] = 5.0

    def test_certified_pair_total(self, qutrit_sic):
        # pair_probability output total = 1 for certified POVM/ensemble pairs
        spec = DesignSpec("qutrit_sic", 0.6)
        povm = build(spec)
        ens = pure_ensemble(3, haar_random_states(3, 4, seed=3), weights=np.full(4, 0.25))
        assert pair_probability(ens, povm).sum() == pytest.approx(1.0, abs=1e-9)


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
