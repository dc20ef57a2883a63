import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    build,
    capacity,
    depolarize,
    default_grid,
    discretized_uniform_povm,
    informational_power,
    kl_maximize,
    pure_ensemble,
    uniform_capacity,
)
from tdesigncap import oracle
from tdesigncap.closedform import ConvergenceError, optimal_ensemble
from tdesigncap.core import haar_random_states, masked_log, overlaps
from tdesigncap.oracle import StateGrid, fibonacci_bloch_states

from reference_ascent import (ascend_per_start, ascent_objective, ascent_terms_one_pass,
                              kl_maximize_reference, kl_objective)
from reference_blahut_arimoto import blahut_arimoto
from reference_grid import (dense_grid_phase, floored_row_terms,
                            former_compact_projector_view, former_haar_random_states)
from reference_information import average_state, effects


def _seeded_d8_grid(family):
    """256 Haar states in d = 8 after the closed-form optimal ensemble's states."""
    duals = np.array([np.linalg.eigh(p)[1][:, -1] for p in optimal_ensemble(family).ops])
    return default_grid(8, seed=2016, extra_states=duals, resolution=256)


def _terms(z, ops, a, b):
    """F and its gradient at each row of the stack z, from one climb's evaluator."""
    return oracle._AscentTerms(ops, a, b, len(z))(z)


@pytest.fixture(scope="module")
def qubit_grid():
    return default_grid(2, seed=2016)


@pytest.fixture(scope="module")
def qutrit_grid():
    # smaller than the calibrated default: module tests favor speed, the
    # acceptance suite runs the full-size grids
    return default_grid(3, seed=2016, resolution=6000)


class TestBlahutArimoto:
    def test_identity_channel(self):
        res = blahut_arimoto(np.eye(4), tol=1e-10)
        assert res.capacity == pytest.approx(math.log(4), abs=1e-9)
        assert np.allclose(res.prior, 0.25, atol=1e-6)

    def test_uninformative_channel(self):
        res = blahut_arimoto(np.full((5, 3), 1 / 3), tol=1e-10)
        assert res.capacity == 0.0

    def test_binary_symmetric_channel(self):
        # ln 2 - h(1/4) with h the binary entropy in nats
        expected = math.log(2) + 0.25 * math.log(0.25) + 0.75 * math.log(0.75)
        res = blahut_arimoto(np.array([[0.75, 0.25], [0.25, 0.75]]), tol=1e-12)
        assert res.capacity == pytest.approx(expected, abs=1e-10)
        assert res.bracket_width < 1e-12

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[1.2, -0.2]]))

    def test_strict_convergence_asserted(self):
        with pytest.raises(ConvergenceError):
            blahut_arimoto(np.array([[0.75, 0.25], [0.25, 0.75]]), tol=0.0, max_iter=10)

    def test_bracket_monotone_by_construction(self):
        res = blahut_arimoto(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]), tol=1e-11)
        assert res.bracket_width < 1e-11


class TestStateGrid:
    def test_minimum_count(self):
        with pytest.raises(ValueError):
            StateGrid(2, fibonacci_bloch_states(50), "fibonacci-sphere", 50)

    def test_fibonacci_covering(self):
        # max nearest-neighbor angle <= 2 pi / sqrt(count)
        n = 1024
        amps = fibonacci_bloch_states(n)
        # Bloch vectors from amplitudes
        x = 2 * (amps[:, 0].conj() * amps[:, 1]).real
        y = 2 * (amps[:, 0].conj() * amps[:, 1]).imag
        z = (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2).real
        pts = np.stack([x, y, z], axis=1)
        dots = np.clip(pts @ pts.T, -1, 1)
        np.fill_diagonal(dots, -1)
        nearest = np.arccos(dots.max(axis=1))
        assert nearest.max() <= 2 * np.pi / math.sqrt(n)

    def test_default_grid_sizes(self, qubit_grid):
        assert qubit_grid.resolution == 4096
        assert qubit_grid.provenance == "fibonacci-sphere"

    @pytest.mark.parametrize("dim", [1, 0])
    def test_dimension_below_two_refused(self, dim):
        with pytest.raises(ValueError, match="dim"):
            default_grid(dim, 0)

    def test_seeded_states_prepended(self):
        extra = np.eye(2, dtype=complex)
        g = default_grid(2, seed=1, extra_states=extra, resolution=256)
        assert g.seeded == 2
        assert np.array_equal(g.states[:2], extra)

    def test_states_are_read_only(self):
        g = default_grid(3, seed=1, resolution=100)
        with pytest.raises(ValueError):
            g.states[0, 0] = 1.0

    @pytest.mark.parametrize("dim", [3, 8])
    def test_sampled_states_are_taken_over(self, dim):
        # the sampler's array becomes the grid's, uncopied; it and its view stay read-only
        g = default_grid(dim, seed=7, resolution=300)
        assert g.states.base is None
        assert np.array_equal(g.states, former_haar_random_states(dim, 300, 7))
        assert np.array_equal(g.compact_view, former_compact_projector_view(g.states))
        for arr in (g.states, g.compact_view):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_view_is_copied(self):
        # a write through the base of a view must not change the grid
        big = haar_random_states(3, 300, seed=5)
        g = StateGrid(3, big[:200], "haar-sample", 200)
        before = g.states.copy()
        big[:] = 0.0
        assert np.array_equal(g.states, before)
        assert not g.states.flags.writeable


class TestDiscretizedUniformPovm:
    @pytest.mark.parametrize("dim,n_effects", [(2, 0), (2, 1), (3, 2)])
    def test_fewer_effects_than_dim_refused(self, dim, n_effects):
        # fewer than d rank-one effects cannot resolve the identity; n_effects = 1
        # used to return weights [nan] and n_effects = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="n_effects"):
            discretized_uniform_povm(dim, n_effects=n_effects)


class TestKlObjective:
    def test_flat_povm_is_zero(self, qubit_sic):
        flat = depolarize(qubit_sic, 0.0)
        phi = np.array([1.0, 0.0], dtype=complex)
        assert kl_objective(flat, phi) == pytest.approx(0.0, abs=1e-12)

    def test_sic_antipode(self, qubit_sic):
        w, v = np.linalg.eigh(qubit_sic.ops[0])
        antipode = v[:, 0]  # orthogonal to the SIC state
        assert kl_objective(qubit_sic, antipode) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_sic_own_state_smaller(self, qubit_sic):
        w, v = np.linalg.eigh(qubit_sic.ops[0])
        own = v[:, -1]
        val = kl_objective(qubit_sic, own)
        # overlaps (1, 1/3, 1/3, 1/3): ln 2 - (3/2) eta(1/3)
        assert val == pytest.approx(math.log(2) - 1.5 * (math.log(3) / 3), abs=1e-12)
        assert val == pytest.approx(0.1438, abs=1e-4)
        assert val < math.log(4 / 3)


class TestKlMaximize:
    def test_qubit_sic(self, qubit_sic, qubit_grid):
        val, argmax = kl_maximize(qubit_sic, qubit_grid)
        assert val == pytest.approx(math.log(4 / 3), abs=1e-9)
        assert argmax.shape[0] == 4
        # the argmax states are the antipodes of the SIC states
        overlaps = np.einsum("ai,xij,aj->ax", argmax.conj(), qubit_sic.ops, argmax).real
        assert np.allclose(np.sort(overlaps, axis=1)[:, 0], 0.0, atol=1e-6)

    def test_requires_povm_role(self, qubit_grid):
        # the grid values are D(p(.|phi) || q) only when sum_y d q_y chi_y = 1
        ens = pure_ensemble(2, np.eye(2, dtype=complex), role="ensemble")
        with pytest.raises(ValueError, match="POVM-role"):
            kl_maximize(ens, qubit_grid)

    def test_flat_povm(self, qubit_sic, qubit_grid):
        val, argmax = kl_maximize(depolarize(qubit_sic, 0.0), qubit_grid)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert argmax.shape[0] >= 1  # every state attains the (zero) max

    def test_icosahedron_all_vertices(self, icosahedron, qubit_grid):
        val, argmax = kl_maximize(icosahedron, qubit_grid)
        assert val == pytest.approx(capacity("icosahedron", 1.0), abs=1e-9)
        assert argmax.shape[0] == 12

    def test_projective_sic_values(self, qubit_sic, qutrit_sic, hoggar, qubit_grid, qutrit_grid):
        # at lambda = 1 the maximizer has zero overlaps, where eta' is singular
        for eset, grid, want in [(qubit_sic, qubit_grid, 4 / 3), (qutrit_sic, qutrit_grid, 3 / 2),
                                 (hoggar, _seeded_d8_grid("hoggar_sic"), 16 / 9)]:
            val, _ = kl_maximize(eset, grid)
            assert val == pytest.approx(math.log(want), abs=1e-12)

    @pytest.mark.parametrize("kind", ["qutrit_sic_phase", "uniform_7", "hoggar_unseeded"])
    def test_value_is_the_best_climb(self, kind):
        # the best climb starts from a grid state whose value lies more than 1e-3 below the
        # best grid value: a value from the climbs of near-best grid states alone is lower
        if kind == "qutrit_sic_phase":
            povm, grid = build(DesignSpec("qutrit_sic", 1.0, 0.7)), default_grid(3, seed=2016)
            want, tol = math.log(3 / 2), 1e-12
        elif kind == "uniform_7":
            povm = discretized_uniform_povm(3, n_effects=7, seed=5)
            grid = default_grid(3, seed=2016)
            want, tol = 0.6194719, 1e-7
        else:
            povm = build(DesignSpec("hoggar_sic", 1.0))
            grid = default_grid(8, seed=2016, resolution=2000)
            want, tol = math.log(16 / 9), 1e-12
        val, _ = kl_maximize(povm, grid)
        _, vals, _ = oracle._GridPricing(povm, grid).first_climb()
        assert val == math.log(povm.dim) + vals.max()
        assert val == pytest.approx(want, abs=tol)
        assert informational_power(povm, grid, tol=1e-6).capacity_estimate <= val + 1e-6

    @pytest.mark.parametrize("family,dim", [("qubit_sic", None), ("icosahedron", None),
                                            ("anti_sic", 3), ("hoggar_sic", None)])
    def test_matches_coordinate_ascent_reference(self, family, dim):
        base = build(DesignSpec(family, 1.0, 0.0, dim))
        grid = (_seeded_d8_grid(family) if base.dim == 8
                else default_grid(base.dim, seed=2016, resolution=256))
        for lam in (0.5, 1.0):
            eset = depolarize(base, lam)
            val, argmax = kl_maximize(eset, grid)
            ref_val, ref_argmax = kl_maximize_reference(eset, grid)
            assert val == pytest.approx(ref_val, abs=1e-12)
            assert argmax.shape[0] == ref_argmax.shape[0]


class TestAscent:
    @pytest.mark.parametrize("family", ["qubit_sic", "qutrit_sic", "hoggar_sic"])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_gradient_matches_central_differences(self, family, lam):
        eset = depolarize(build(DesignSpec(family, 1.0)), lam)
        d = eset.dim
        a = d * eset.weights
        probes = haar_random_states(d, 4, seed=23)
        out = np.full(4, 0.25) @ oracle.povm_channel(eset, probes)
        kl_form, shifted = np.zeros_like(a), a * (np.log(eset.weights) - np.log(out))
        step = 1e-6
        # KL, D(p(.|phi) || out), and D(p(.|phi) || out) - ln d: the form the oracle climbs
        for b in (kl_form, a * (np.log(a) - np.log(out)), shifted):
            for phi in 1.3 * haar_random_states(d, 3, seed=29):  # off the unit sphere
                v = phi.view(float)
                val, grad = ascent_objective(v, eset.ops, a, b)
                fd = np.array([(ascent_objective(v + step * e, eset.ops, a, b)[0]
                                - ascent_objective(v - step * e, eset.ops, a, b)[0])
                               / (2 * step) for e in np.eye(2 * d)])
                assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)
                if b is kl_form:
                    unit = phi / np.linalg.norm(phi)
                    assert -val == pytest.approx(kl_objective(eset, unit) - math.log(d),
                                                 abs=1e-14)
                if b is shifted:  # sum_y a_y x_y = 1, so a shift of b by a ln d adds ln d to F
                    unshifted, unshifted_grad = ascent_objective(
                        v, eset.ops, a, b + a * math.log(d))
                    assert unshifted == pytest.approx(val - math.log(d), abs=1e-14)
                    assert np.abs(unshifted_grad - grad).max() <= 1e-13

    @pytest.mark.parametrize("family,dim", [("qubit_sic", None), ("icosahedron", None),
                                            ("anti_sic", 3), ("qutrit_sic", None),
                                            ("hoggar_sic", None)])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_stacked_ascent_matches_per_start(self, family, dim, lam):
        # one L-BFGS solve over the stack stops by global rules; no start may end short
        eset = depolarize(build(DesignSpec(family, 1.0, 0.0, dim)), lam)
        d = eset.dim
        grid = (_seeded_d8_grid(family) if d == 8
                else default_grid(d, seed=2016, resolution=256))
        a = d * eset.weights
        out = np.full(4, 0.25) @ oracle.povm_channel(eset, haar_random_states(d, 4, seed=23))
        kl_form = np.zeros_like(a)
        # KL, the pricing form, and the pricing form less ln d, which the oracle climbs
        shifted = a * (np.log(eset.weights) - np.log(out))
        for b in (kl_form, a * (np.log(a) - np.log(out)), shifted):
            on_grid, _ = _terms(grid.states, eset.ops, a, b)
            starts = grid.states[np.argsort(on_grid)[::-1][:max(32, d * d)]]
            states, vals, capped = oracle._ascend(eset.ops, a, b, starts)
            _, ref_vals, ref_capped = ascend_per_start(eset.ops, a, b, starts)
            assert states.shape == starts.shape
            assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-14)
            assert not capped and not ref_capped.any()
            assert vals.max() >= ref_vals.max() - 1e-12
            # every start ends at its local maximum: a short step up its own gradient gains
            # at most 1e-12 (a stack stopped at ftol = 1e-7 gains 2e-10 to 7e-7 here)
            _, grad = _terms(states, eset.ops, a, b)
            up = grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-300)
            for t in np.logspace(-9, -3, 13):
                assert np.all(_terms(states + t * up, eset.ops, a, b)[0] <= vals + 1e-12)
            if b is kl_form:
                assert np.all(vals >= ref_vals - 1e-12)
            # the pricing form has unequal local maxima, and a start of the stack may climb
            # a different one than its own solve does, in either direction: no per-start bound


def _generic_ascent_operators(d: int, m: int):
    """m depolarized rank-one operators and weights a with no symmetry: gradients of order 1."""
    states = haar_random_states(d, m, seed=m + d)
    ops = 0.6 * np.einsum("yi,yj->yij", states, states.conj()) + 0.4 * np.eye(d) / d
    return ops, np.random.default_rng(m + d).uniform(0.5, 1.5, m) * d / m


class TestBlockedAscentTerms:
    """The row-blocked stack evaluation against the one-pass form of tests/reference_ascent.py."""

    @staticmethod
    def _check_one_pass(z, ops, a, b):
        ref_vals, ref_grad = ascent_terms_one_pass(z, ops, a, b)
        vals, grad = _terms(z, ops, a, b)
        assert np.isfinite(vals).all() and np.isfinite(grad).all()
        assert np.abs(vals - ref_vals).max() <= 1e-13 * np.abs(ref_vals).max()
        assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()
        return vals, grad

    @pytest.mark.parametrize("block", [None, 512])  # the default, and 1-row remainders
    @pytest.mark.parametrize("m", [4, 64, 2048, 3000])
    @pytest.mark.parametrize("k", [1, 29, 33, 64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_one_pass(self, d, k, m, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(oracle, "GRID_BLOCK", block)
        ops, a = _generic_ascent_operators(d, m)
        z = 1.7 * haar_random_states(d, k, seed=k + m)  # off the unit sphere
        for b in (np.zeros_like(a), a * np.linspace(-1.0, 2.0, m)):  # KL and pricing forms
            vals, grad = self._check_one_pass(z, ops, a, b)
            if block is None and not (k == 33 and m >= 2048):
                # one block, or blocks of a multiple of 4 rows: OpenBLAS rounds as for the
                # whole stack; only a 1-row remainder (33 = 2 x 16 + 1 rows) rounds apart
                with monkeypatch.context() as whole:
                    whole.setattr(oracle, "GRID_BLOCK", 1 << 40)
                    one_vals, one_grad = _terms(z, ops, a, b)
                assert np.array_equal(vals, one_vals) and np.array_equal(grad, one_grad)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_weight_element(self, d):
        ops, a = _generic_ascent_operators(d, 64)
        a[[0, 17]] = 0.0
        z = 1.3 * haar_random_states(d, 5, seed=3)
        for b in (np.zeros_like(a), a * np.linspace(-1.0, 2.0, 64)):
            self._check_one_pass(z, ops, a, b)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_b_skips_its_pass_bit_for_bit(self, d):
        # b = 0 (the KL form) is found once per climb and its g += b pass skipped
        ops, a = _generic_ascent_operators(d, 64)
        a[[0, 17]] = 0.0
        z = 1.3 * haar_random_states(d, 9, seed=4)
        terms = oracle._AscentTerms(ops, a, np.zeros_like(a), len(z))
        assert not terms.add_b
        skipped = terms(z)
        terms.add_b = True
        added = terms(z)
        assert all(np.array_equal(s, t) for s, t in zip(skipped, added))
        assert oracle._AscentTerms(ops, a, a * np.linspace(-1.0, 2.0, 64), len(z)).add_b

    def test_exact_zero_overlap(self, qubit_mub):
        # qubit_mub at lambda = 1 holds |0><0|: the state |1> has an overlap of exactly 0
        zero = np.flatnonzero(np.all(qubit_mub.ops == np.diag([1.0, 0.0]), axis=(1, 2)))
        z = np.vstack([[[0.0, 1.3]], 1.3 * haar_random_states(2, 4, seed=3)]).astype(complex)
        assert len(zero) == 1 and overlaps(z[:1], qubit_mub.ops)[0, zero[0]] == 0.0
        a = 2 * qubit_mub.weights
        for b in (np.zeros_like(a), a * np.linspace(-1.0, 2.0, len(a))):
            self._check_one_pass(z, qubit_mub.ops, a, b)

    def test_remainder_block_occurs(self, monkeypatch):
        # the block sizes the parametrized test relies on
        monkeypatch.setattr(oracle, "GRID_BLOCK", 512)
        rows = []
        real = np.matmul

        def recorded(x, y, *args, **kwargs):
            rows.append(np.shape(x)[0])
            return real(x, y, *args, **kwargs)

        ops, a = _generic_ascent_operators(2, 64)
        monkeypatch.setattr(np, "matmul", recorded)
        _terms(haar_random_states(2, 33, seed=1), ops, a, np.zeros_like(a))
        assert rows == [4] * 8 + [1]


class TestAscendEvaluations:
    """_ascend builds one evaluator per climb and evaluates the stack once per solver
    evaluation, not once more at the end."""

    @pytest.fixture
    def counted(self, monkeypatch):
        real_lbfgs = oracle._lbfgs
        seen = {"built": 0, "terms": 0, "results": []}

        class Counted(oracle._AscentTerms):
            def __init__(self, *args):
                seen["built"] += 1
                super().__init__(*args)

            def __call__(self, z):
                seen["terms"] += 1
                return super().__call__(z)

        def lbfgs(*args, **kwargs):
            seen["results"].append(real_lbfgs(*args, **kwargs))
            return seen["results"][-1]

        monkeypatch.setattr(oracle, "_AscentTerms", Counted)
        monkeypatch.setattr(oracle, "_lbfgs", lbfgs)
        return seen

    @pytest.mark.parametrize("family,dim,lam", [("qubit_sic", None, 0.5),
                                                ("anti_sic", 3, 1.0), ("uniform", 2, 0.4)])
    def test_calls_equal_nfev(self, family, dim, lam, counted):
        base = (discretized_uniform_povm(2, seed=2016) if family == "uniform"
                else build(DesignSpec(family, 1.0, 0.0, dim)))
        eset = depolarize(base, lam)
        a = eset.dim * eset.weights
        starts = haar_random_states(eset.dim, 33, seed=5)
        for b in (np.zeros_like(a), a * np.linspace(-0.5, 0.5, len(a))):
            counted["built"] = counted["terms"] = 0
            states, vals, _ = oracle._ascend(eset.ops, a, b, starts)
            x, nfev, _ = counted["results"][-1]
            assert counted["built"] == 1 and counted["terms"] == nfev
            z = x.view(complex).reshape(len(starts), -1)
            assert np.array_equal(vals, _terms(z, eset.ops, a, b)[0])
            assert np.array_equal(states, z / np.linalg.norm(z, axis=1, keepdims=True))

    def test_first_climb_stops_at_the_rounding_floor(self, counted):
        # gtol = 1e-9, above the gradient's rounding floor, stops this stack in 6 evaluations;
        # one solve per start keeps gtol = 1e-12
        eset = depolarize(build(DesignSpec("icosahedron", 1.0)), 0.5)
        grid = default_grid(2, seed=2016, resolution=512)
        pricing = oracle._GridPricing(eset, grid)
        counted["terms"] = 0
        climbed, vals, _ = pricing.first_climb()
        assert len(climbed) == 32
        assert counted["terms"] <= 8
        starts = grid.states[np.argsort(pricing.prices(pricing.lnq))[::-1][:32]]
        _, ref_vals, _ = ascend_per_start(eset.ops, pricing.a, np.zeros_like(pricing.a), starts)
        assert np.abs(vals - ref_vals).max() <= 1e-12

    def test_recomputes_at_an_earlier_iterate(self, counted, monkeypatch):
        # a failed line search returns an iterate before the last evaluation
        real = oracle._lbfgs

        def back_to_start(fun, x0, *args, **kwargs):
            _, nfev, capped = real(fun, x0, *args, **kwargs)
            return np.array(x0), nfev, capped

        monkeypatch.setattr(oracle, "_lbfgs", back_to_start)
        eset = depolarize(build(DesignSpec("qutrit_sic", 1.0)), 0.5)
        a, b = 3 * eset.weights, np.zeros(len(eset))
        starts = haar_random_states(3, 8, seed=7)
        counted["terms"] = 0
        _, vals, _ = oracle._ascend(eset.ops, a, b, starts)
        assert counted["terms"] == counted["results"][-1][1] + 1
        assert np.array_equal(vals, _terms(starts, eset.ops, a, b)[0])

    def test_converged_start_is_returned_unchanged(self, counted):
        # the KL maximizers of the qubit SIC are the states orthogonal to its elements
        eset = depolarize(build(DesignSpec("qubit_sic", 1.0)), 0.5)
        a, b = 2 * eset.weights, np.zeros(len(eset))
        starts = np.array([np.linalg.eigh(op)[1][:, 0] for op in eset.ops])
        _, grad = _terms(starts, eset.ops, a, b)
        assert np.abs(grad).max() <= 1e-9  # below the stack's gtol
        counted["built"] = counted["terms"] = 0
        states, vals, capped = oracle._ascend(eset.ops, a, b, starts)
        assert counted["built"] == counted["terms"] == counted["results"][-1][1] == 1
        assert np.abs(states - starts).max() <= 1e-15 and not capped
        assert np.array_equal(vals, _terms(starts, eset.ops, a, b)[0])


def _fresh_pair(kind: str):
    """A new (POVM, grid) pair of the same content on every call."""
    if kind == "qubit_sic":
        povm = depolarize(build(DesignSpec("qubit_sic", 1.0)), 0.5)
    else:  # five effects that form no design: several pricing rounds
        povm = depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)
    return povm, default_grid(2, seed=2016, resolution=200)


class TestOneSolvePerStack:
    @pytest.fixture
    def ascents(self, monkeypatch):
        calls = []
        real = oracle._ascend

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(oracle, "_ascend", counted)
        return lambda: len(calls)

    def test_kl_maximize(self, icosahedron, qutrit_sic, qubit_grid, qutrit_grid, ascents):
        for eset, grid in [(icosahedron, qubit_grid), (depolarize(qutrit_sic, 0.5), qutrit_grid)]:
            before = ascents()
            kl_maximize(eset, grid)
            assert ascents() - before == 1

    def test_informational_power(self, qubit_sic, ascents):
        grid = default_grid(2, seed=2016, resolution=200)
        for povm in (depolarize(qubit_sic, 0.5),
                     depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)):
            before = ascents()
            res = informational_power(povm, grid, tol=1e-6)
            assert 1 <= ascents() - before <= res.refinement_rounds + 1

    @pytest.mark.parametrize("kind", ["qubit_sic", "non_design"])
    def test_one_climb_serves_both_searches(self, kind, ascents):
        # the pricing first: one climb per round, and one more only when a climb that finds no
        # state above the value stops the loop (none when the value meets the least climbed
        # estimate); the KL search after it adds none
        povm, grid = _fresh_pair(kind)
        res = informational_power(povm, grid, tol=1e-6)
        assert res.refinement_rounds >= 1 and not res.diagnostics["pricing_capped"]
        climbs = res.refinement_rounds + (res.diagnostics["stop"] == "climb")
        assert ascents() == climbs
        kl_maximize(povm, grid)
        assert ascents() == climbs
        # the KL search first: its one climb is the pricing's round 1, which adds none
        povm, grid = _fresh_pair(kind)
        kl_maximize(povm, grid)
        assert ascents() == climbs + 1
        informational_power(povm, grid, tol=1e-6)
        assert ascents() == 2 * climbs


class TestSharedFirstClimb:
    """The KL search and the first pricing round are one climb per (POVM, grid) pair."""

    @pytest.mark.parametrize("kind", ["qubit_sic", "uniform"])
    def test_starts_are_the_top_prices(self, kind):
        # the top max(32, d^2) first prices, as in every round, even when the objective is
        # nearly flat: uniform:2 has 64 first prices within 1e-3 of its best
        if kind == "uniform":
            povm = depolarize(discretized_uniform_povm(2, seed=2016), 0.4)
            grid = default_grid(2, seed=2016, resolution=512)
        else:
            povm, grid = _fresh_pair(kind)
        pricing = oracle._GridPricing(povm, grid)
        first = pricing.prices(pricing.lnq)
        if kind == "uniform":
            assert np.count_nonzero(first >= first.max() - 1e-3) >= 64
        climbed, vals, _ = pricing.first_climb()
        assert len(climbed) == 32
        starts = grid.states[np.argsort(first)[::-1][:32]]
        fresh = oracle._ascend(pricing.ops, pricing.a, np.zeros_like(pricing.a), starts)
        assert np.array_equal(climbed, fresh[0]) and np.array_equal(vals, fresh[1])
        # the KL search scores every climb
        assert kl_maximize(povm, grid)[0] == math.log(2) + vals.max()

    @pytest.mark.parametrize("kind", ["qubit_sic", "non_design"])
    def test_either_order_matches_fresh_pairs(self, kind):
        fresh_res = informational_power(*_fresh_pair(kind), tol=1e-6)
        fresh_kl = kl_maximize(*_fresh_pair(kind))
        for kl_first in (False, True):
            povm, grid = _fresh_pair(kind)
            kl = kl_maximize(povm, grid) if kl_first else None
            res = informational_power(povm, grid, tol=1e-6)
            kl = kl if kl_first else kl_maximize(povm, grid)
            assert kl[0] == fresh_kl[0] and np.array_equal(kl[1], fresh_kl[1])
            # the fields, then the names computed on first read, which the walk does not reach
            names = [f.name for f in dataclasses.fields(res)]
            for name in names + ["tightness_residual", "tightness"]:
                got, want = getattr(res, name), getattr(fresh_res, name)
                assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want
            assert np.array_equal(average_state(res), average_state(fresh_res))


class TestOneClimbPerRound:
    """Every pricing round climbs through ``_GridPricing.climb``, the first one included."""

    @staticmethod
    def _inline_ascent(pricing, grid, lnout, priced):
        # a later round's climb as informational_power wrote it inline before climb existed
        d = grid.dim
        top = grid.states[oracle._top_k(priced, max(32, d * d))]
        return oracle._ascend(pricing.ops, pricing.a, pricing.a * (pricing.lnq - lnout), top)

    @pytest.mark.parametrize("kind", ["qubit_sic", "non_design"])
    def test_later_rounds_match_the_inline_ascent(self, kind, monkeypatch):
        later = []
        real = oracle._GridPricing.climb

        def recorded(self, lnout, priced):
            got = real(self, lnout, priced)
            if lnout is not self.lnq:
                later.append((lnout, priced, got))
            return got

        monkeypatch.setattr(oracle._GridPricing, "climb", recorded)
        povm, grid = _fresh_pair(kind)
        res = informational_power(povm, grid, tol=1e-6)
        pricing = oracle._GridPricing(povm, grid)
        assert len(later) == (0 if kind == "qubit_sic" else res.refinement_rounds - 1)
        # and the round after the last: against the output of the returned support
        out = res.optimizer_weights @ oracle.povm_channel(povm, res.optimizer_states)
        lnout = np.log(np.maximum(out, np.finfo(float).tiny))
        priced = pricing.prices(lnout)
        later.append((lnout, priced, pricing.climb(lnout, priced)))
        for lnout, priced, got in later:
            want = self._inline_ascent(pricing, grid, lnout, priced)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]
        # a later round leaves the pair's kept first climb as it was, and that is returned
        # against ln q without reading the prices
        assert pricing.climb(pricing.lnq, None) is pricing.first_climb()


CATALOG_FAMILIES = [("qubit_sic", None), ("qubit_mub", None), ("icosahedron", None),
                    ("qutrit_sic", None), ("qutrit_mub", None), ("hoggar_sic", None),
                    ("anti_sic", 2), ("anti_sic", 3), ("anti_sic", 8)]


class TestGridPricing:
    """The blocked, channel-free grid phase against the dense one of tests/reference_grid.py."""

    @staticmethod
    def _check_against_dense(eset, grid):
        states = grid.states
        ref = dense_grid_phase(eset, states)
        pricing = oracle._GridPricing(eset, grid)
        assert np.abs(pricing.row_terms - ref.row_terms).max() <= 1e-12
        rows = min(len(states), oracle.GRID_BLOCK // len(eset.weights))
        assert np.array_equal(pricing.row_terms, floored_row_terms(pricing, rows))
        assert pricing.flat_rate() == pytest.approx(ref.flat_rate, abs=1e-12)
        first = pricing.prices(masked_log(eset.weights))
        assert np.abs(first - ref.first_prices).max() <= 1e-12
        assert np.abs(first - ref.kl_values).max() <= 1e-12
        # repricing against a support's output, floored where the support reaches no outcome
        for support in (states[:1], states[:3]):
            out = np.full(len(support), 1 / len(support)) @ oracle.povm_channel(eset, support)
            lnout = np.log(np.maximum(out, np.finfo(float).tiny))
            assert np.abs(pricing.prices(lnout) - ref.prices(lnout)).max() <= 1e-12

    @pytest.mark.parametrize("block", [oracle.GRID_BLOCK, 1000])
    @pytest.mark.parametrize("family,dim", CATALOG_FAMILIES)
    def test_catalog_matches_dense(self, family, dim, block, qubit_grid, monkeypatch):
        # rank-one elements at lambda = 1 give overlaps of exactly 0 or slightly below: the clip
        monkeypatch.setattr(oracle, "GRID_BLOCK", block)
        base = build(DesignSpec(family, 1.0, 0.0, dim))
        grid = {2: qubit_grid, 3: default_grid(3, seed=2016, resolution=2000),
                8: _seeded_d8_grid("hoggar_sic")}[base.dim]
        for lam in (0.5, 1.0):
            self._check_against_dense(depolarize(base, lam), grid)

    @pytest.mark.parametrize("lam", [0.4, 1.0])
    def test_uniform_matches_dense(self, lam):
        # 1000 rows of 2048 outcomes: 31 full row blocks and a partial one
        povm = depolarize(discretized_uniform_povm(2, seed=2016), lam)
        self._check_against_dense(povm, default_grid(2, seed=2016, resolution=1000))

    def test_kl_values_are_first_prices(self, qubit_sic, qubit_grid, monkeypatch):
        priced = []
        real = oracle._GridPricing.prices

        def recorded(self, lnout):
            priced.append(real(self, lnout))
            return priced[-1]

        monkeypatch.setattr(oracle._GridPricing, "prices", recorded)
        povm = depolarize(qubit_sic, 0.5)
        kl_maximize(povm, qubit_grid)
        informational_power(povm, qubit_grid, tol=1e-6)
        assert len(priced) >= 2
        assert np.array_equal(priced[0], priced[1])
        ref = dense_grid_phase(povm, qubit_grid.states)
        assert np.abs(priced[0] - ref.kl_values).max() <= 1e-12

    def test_peak_memory_below_one_grid_channel(self):
        # one (4096, 2048) float array is 64 MB; the dense grid phase peaked at 136-192 MB
        povm = depolarize(discretized_uniform_povm(2, seed=2016), 0.4)
        grid = default_grid(2, 2016)
        for solve in (informational_power, kl_maximize):
            tracemalloc.start()
            try:
                solve(povm, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, solve.__name__


class TestGridView:
    """One compact projector view per grid, shared by every pricing on it."""

    def test_built_once_per_grid(self, qubit_sic, monkeypatch):
        builds = []
        real = oracle.compact_projector_view

        def counted(states):
            builds.append(len(states))
            return real(states)

        monkeypatch.setattr(oracle, "compact_projector_view", counted)
        grid = default_grid(2, seed=2016, resolution=300)
        for lam in (0.5, 0.7):
            informational_power(depolarize(qubit_sic, lam), grid, tol=1e-6)
        kl_maximize(depolarize(qubit_sic, 0.3), grid)
        assert builds == [300]
        assert grid.compact_view.shape == (300, 6)
        with pytest.raises(ValueError):
            grid.compact_view[0, 0] = 0.0


class TestRowTermPass:
    def test_one_block_mixes_zero_negative_and_ordinary_rows(self, qubit_mub, monkeypatch):
        # qubit_mub's own states (from eigh) give rounding-negative P, the exact basis state
        # |1> an exact-zero P; 16 rows per block put all 7 in the first block with 9 sampled
        monkeypatch.setattr(oracle, "GRID_BLOCK", 16 * 6)
        own = np.array([np.linalg.eigh(op)[1][:, -1] for op in qubit_mub.ops])
        grid = default_grid(2, seed=2016, extra_states=np.vstack([own, [[0, 1]]]), resolution=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pricing = oracle._GridPricing(qubit_mub, grid)
            row_terms = pricing._row_term_pass()
        raw = pricing.proj[:16] @ np.ascontiguousarray(pricing.twin.T * pricing.a)
        zero, negative = (raw == 0).any(axis=1), (raw < 0).any(axis=1)
        fallback = np.flatnonzero(zero | negative)
        assert zero.any() and negative.any() and len(fallback) < 16
        floored = np.maximum(dense_grid_phase(qubit_mub, grid.states).channel,
                             np.finfo(float).tiny)
        ref = np.einsum("xy,xy->x", floored, np.log(floored))
        assert np.abs(row_terms[fallback] - ref[fallback]).max() <= 1e-12
        # the ordinary rows skip the floor, and every row keeps the floor-everywhere value
        assert np.array_equal(row_terms, floored_row_terms(pricing, 16))


class TestTopK:
    @pytest.mark.parametrize("n", [1, 7, 33, 2000])
    def test_matches_a_full_sort(self, n):
        v = np.random.default_rng(n).standard_normal(n)
        for k in sorted({1, n // 2, n - 1, n, n + 5} - {0}):
            assert np.array_equal(oracle._top_k(v, k), np.argsort(v)[::-1][:k]), k


class TestRowTermsMemo:
    """One row-term pass per (POVM, grid) pair, held only under weak references."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = oracle._GridPricing._row_term_pass

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(oracle._GridPricing, "_row_term_pass", counted)
        return calls

    @pytest.fixture
    def climbs(self, monkeypatch):
        calls = []
        real = oracle._ascend

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle, "_ascend", counted)
        return calls

    def test_kl_search_reuses_the_pricing_pass(self, passes):
        povm = depolarize(discretized_uniform_povm(2, seed=2016), 0.4)
        grid = default_grid(2, seed=2016, resolution=512)
        res = informational_power(povm, grid, tol=1e-5)
        kl, _ = kl_maximize(povm, grid)
        assert len(passes) == 1
        assert res.capacity_estimate <= kl + 1e-6
        kl_maximize(povm, grid)
        informational_power(povm, grid, tol=1e-5)
        assert len(passes) == 1

    def test_kl_search_after_the_pricing_builds_no_grid_view(self, monkeypatch):
        povm, grid = _fresh_pair("qubit_sic")
        informational_power(povm, grid, tol=1e-6)
        rows = []
        real = oracle.compact_projector_view

        def recorded(states):
            rows.append(len(states))
            return real(states)

        monkeypatch.setattr(oracle, "compact_projector_view", recorded)
        kl_maximize(povm, grid)
        assert len(grid.states) not in rows

    def test_shared_terms_equal_a_fresh_pass(self, qubit_sic):
        povm = depolarize(qubit_sic, 0.5)
        grid = default_grid(2, seed=2016, resolution=300)
        first = oracle._GridPricing(povm, grid)
        again = oracle._GridPricing(povm, grid)
        assert again.row_terms is first.row_terms
        assert np.array_equal(first.row_terms, first._row_term_pass())
        with pytest.raises(ValueError):
            first.row_terms[0] = 0.0
        climbed, vals, _ = again.first_climb()
        assert first.first_climb()[0] is climbed
        for shared in (climbed, vals):
            with pytest.raises(ValueError):
                shared[0] = 0.0

    def test_another_pair_recomputes(self, qubit_sic, passes, climbs):
        povm = depolarize(qubit_sic, 0.5)
        grid = default_grid(2, seed=2016, resolution=300)
        first = oracle._GridPricing(povm, grid).first_climb()
        same_ops = depolarize(qubit_sic, 0.5)  # equal content, another object
        again = oracle._GridPricing(same_ops, grid).first_climb()
        assert len(passes) == 2
        assert len(climbs) == 2
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        oracle._GridPricing(same_ops, default_grid(2, seed=2016, resolution=300)).first_climb()
        assert len(passes) == 3
        assert len(climbs) == 3

    def test_collected_set_recomputes(self, qubit_sic, passes, climbs):
        grid = default_grid(2, seed=2016, resolution=300)
        povm = depolarize(qubit_sic, 0.5)
        kl_maximize(povm, grid)
        ref = weakref.ref(povm)
        del povm
        gc.collect()
        assert ref() is None  # the memo holds no strong reference
        kl_maximize(depolarize(qubit_sic, 0.5), grid)
        assert len(passes) == 2
        assert len(climbs) == 2

    def test_holds_neither_set_nor_grid(self, qubit_sic):
        povm = depolarize(qubit_sic, 0.5)
        grid = default_grid(2, seed=2016, resolution=300)
        informational_power(povm, grid, tol=1e-5)
        kl_maximize(povm, grid)
        assert oracle._GridPricing._last[2][1] is not None  # the memo holds the first climb
        refs = [weakref.ref(povm), weakref.ref(grid)]
        del povm, grid
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestLazyCertificate:
    """The tightness certificate is computed on first read."""

    @pytest.mark.parametrize("kind", ["qubit_sic", "non_design"])
    def test_unread_result_runs_no_nnls(self, kind, monkeypatch):
        calls = []
        real = oracle._nnls

        def counted(a, b):
            calls.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(oracle, "_nnls", counted)
        povm, grid = _fresh_pair(kind)
        res = informational_power(povm, grid, tol=1e-6)
        assert calls == []
        assert "tightness_residual" not in vars(res)
        states, d = res.optimizer_states, povm.dim
        assert res.tightness_residual == oracle._identity_hull_residual(states, d)
        assert len(calls) >= 2  # the read solved once, the reference once more
        n = len(calls)
        assert res.tightness == (res.tightness_residual <= oracle.TIGHTNESS_RESIDUAL_TOL)
        assert len(calls) == n  # kept: tightness reads the stored residual

    def test_support_is_read_only(self):
        res = informational_power(*_fresh_pair("non_design"), tol=1e-6)
        for arr in (res.optimizer_states, res.optimizer_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_flat_result_keeps_the_grid_read_only(self, qubit_grid):
        # no round runs for a flat POVM: the support is the grid itself, still read-only
        flat = depolarize(build(DesignSpec("qubit_sic", 1.0)), 0.0)
        res = informational_power(flat, qubit_grid, tol=1e-6)
        assert res.diagnostics["stop"] == "flat"
        assert res.optimizer_states is qubit_grid.states
        assert not res.optimizer_weights.flags.writeable


class TestInformationalPower:
    def test_basis_measurement(self, qubit_grid):
        basis = pure_ensemble(2, np.eye(2, dtype=complex), role="povm")
        res = informational_power(basis, qubit_grid, tol=1e-7)
        assert res.capacity_estimate == pytest.approx(math.log(2), abs=1e-6)
        assert res.tightness
        assert res.capacity_estimate <= math.log(2) + 1e-9

    def test_qubit_sic(self, qubit_sic, qubit_grid):
        res = informational_power(qubit_sic, qubit_grid, tol=1e-7)
        assert res.capacity_estimate == pytest.approx(math.log(4 / 3), abs=2e-3)
        assert res.tightness
        assert res.optimizer_states.shape[0] == 4
        assert np.abs(average_state(res) - np.eye(2) / 2).max() < 1e-4

    def test_qutrit_mub(self, qutrit_mub, qutrit_grid):
        res = informational_power(qutrit_mub, qutrit_grid, tol=1e-6)
        assert res.capacity_estimate == pytest.approx(math.log(1.5), abs=2e-3)

    def test_never_exceeds_kl_value(self, qubit_mub, qubit_grid):
        for lam in (0.3, 1.0):
            povm = depolarize(qubit_mub, lam)
            res = informational_power(povm, qubit_grid, tol=1e-6)
            kl_val, _ = kl_maximize(povm, qubit_grid)
            assert res.capacity_estimate <= kl_val + 1e-6

    def test_unitary_invariance(self, qubit_sic, qubit_grid, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(a)
        rotated = pure_ensemble(
            2, (q @ np.linalg.eigh(qubit_sic.ops)[1][:, :, -1].T).T, role="povm")
        base = informational_power(qubit_sic, qubit_grid, tol=1e-6).capacity_estimate
        rot = informational_power(rotated, qubit_grid, tol=1e-6).capacity_estimate
        assert abs(base - rot) < 2e-3

    def test_requires_povm_role(self, qubit_grid):
        ens = pure_ensemble(2, np.eye(2, dtype=complex), role="ensemble")
        with pytest.raises(ValueError):
            informational_power(ens, qubit_grid)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tolerance_refused(self, qubit_sic, tol):
        # nan once returned the flat grid's rate and -1 ran all PRICING_MAX_ROUNDS rounds
        grid = default_grid(2, seed=2016, resolution=200)
        with pytest.raises(ValueError, match="finite and positive"):
            informational_power(depolarize(qubit_sic, 0.5), grid, tol=tol)

    def test_capacity_above_ln_d_raises(self, qubit_sic, monkeypatch):
        real = oracle._refine_solve

        def inflated(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), capacity=math.log(2) + 0.1)

        monkeypatch.setattr(oracle, "_refine_solve", inflated)
        with pytest.raises(ArithmeticError, match="exceeds ln d"):
            informational_power(qubit_sic, default_grid(2, seed=2016, resolution=200))

    def test_bracket_and_cap_flags(self, qubit_sic, monkeypatch):
        grid = default_grid(2, seed=2016, resolution=200)
        res = informational_power(qubit_sic, grid, tol=1e-6)
        assert res.bracket_width <= 1e-6
        assert res.diagnostics["bracket_met"] is True
        assert res.diagnostics["refine_capped"] == 0

        real = oracle._refine_solve

        def stalled(channel, tol, prior=None):
            res = real(channel, tol, prior)
            return dataclasses.replace(res, iterations=oracle.REFINE_BARRIER_STEPS
                                       + oracle.REFINE_NEWTON_STEPS, bracket_width=1e-3)

        monkeypatch.setattr(oracle, "_refine_solve", stalled)
        res = informational_power(qubit_sic, grid, tol=1e-6)
        assert res.bracket_width == 1e-3
        assert res.diagnostics["bracket_met"] is False
        assert res.diagnostics["refine_capped"] == res.refinement_rounds >= 1

    def test_pricing_and_ascent_flags(self, qubit_sic, monkeypatch):
        grid = default_grid(2, seed=2016, resolution=200)
        res = informational_power(qubit_sic, grid, tol=1e-6)
        assert res.refinement_rounds < oracle.PRICING_MAX_ROUNDS
        assert res.diagnostics["pricing_capped"] is False
        assert res.diagnostics["ascent_capped"] == 0

        # a POVM that is no design needs several pricing rounds on this grid
        non_design = depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)
        monkeypatch.setattr(oracle, "PRICING_MAX_ROUNDS", 1)
        res = informational_power(non_design, grid, tol=1e-6)
        assert res.refinement_rounds == 1
        assert res.diagnostics["pricing_capped"] is True
        assert res.diagnostics["grid_gap"] > 1e-6

        # one round (the cap above), so one stack: every one of its starts counts
        monkeypatch.setattr(oracle, "ASCENT_MAX_ITER", 1)
        res = informational_power(depolarize(qubit_sic, 0.5), grid, tol=1e-6)
        assert res.diagnostics["ascent_capped"] >= 1
        assert res.diagnostics["ascent_capped"] == max(32, grid.dim ** 2)

    def test_icosahedron_half_bracket_met(self, icosahedron, qubit_grid):
        res = informational_power(depolarize(icosahedron, 0.5), qubit_grid, tol=1e-5)
        assert res.diagnostics["bracket_met"] is True
        assert res.capacity_estimate == pytest.approx(capacity("icosahedron", 0.5), abs=2e-3)

    def test_icosahedron_projective_solve_closes(self, icosahedron, qubit_grid):
        # 12 rows of rank 4 whose entropies differ by about 1e-9: the optimum is a sparse vertex
        res = informational_power(icosahedron, qubit_grid, tol=1e-5)
        assert res.diagnostics["refine_capped"] == 0
        assert res.diagnostics["bracket_met"] is True
        assert res.capacity_estimate == pytest.approx(capacity("icosahedron", 1.0), abs=1e-9)

    @pytest.mark.parametrize("family,lam", [("uniform:2", 0.5), ("uniform:2", 1.0),
                                            ("qubit_sic", 0.5)])
    def test_reported_ensemble_achieves_value(self, family, lam, qubit_sic, qubit_grid):
        base = discretized_uniform_povm(2, seed=2016) if family == "uniform:2" else qubit_sic
        povm = depolarize(base, lam)
        res = informational_power(povm, qubit_grid, tol=1e-5)
        channel = oracle.povm_channel(povm, res.optimizer_states)
        out = res.optimizer_weights @ channel
        ratio = np.divide(channel, out, out=np.ones_like(channel), where=channel > 0)
        rate = res.optimizer_weights @ np.einsum("xy,xy->x", channel, np.log(ratio))
        assert abs(res.optimizer_weights.sum() - 1.0) <= 1e-12
        assert rate == pytest.approx(res.capacity_estimate, abs=1e-12)
        assert res.diagnostics["pricing_capped"] is False
        assert res.diagnostics["grid_gap"] <= 1e-5

    def test_pricing_takes_several_rounds(self, qubit_grid):
        # five effects that form no design: the optimal average state is not 1/2, so
        # the first pricing, against the maximally mixed input's output, is not final
        povm = depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)
        res = informational_power(povm, qubit_grid, tol=1e-6)
        assert res.refinement_rounds >= 2
        assert res.diagnostics["pricing_capped"] is False
        assert res.diagnostics["grid_gap"] <= 1e-6
        assert res.diagnostics["bracket_met"] is True
        # any Blahut-Arimoto iterate is an achievable grid rate, and the grid gap bounds them all
        grid_rate = blahut_arimoto(oracle.povm_channel(povm, qubit_grid.states), tol=1e-9,
                                   max_iter=5000, strict=False).capacity
        assert res.capacity_estimate >= grid_rate - 1e-6
        kl_val, _ = kl_maximize(povm, qubit_grid)
        assert res.capacity_estimate <= kl_val + 1e-6

    def test_later_rounds_climb_the_kl_form(self, qubit_grid, monkeypatch):
        # round >= 2 climbs D(p(.|phi) || out) - ln d against the last solve's output
        climbs, solves = [], []
        real_ascend, real_solve = oracle._ascend, oracle._refine_solve

        def ascend(ops, a, b, phis):
            climbs.append((b, real_ascend(ops, a, b, phis)))
            return climbs[-1][1]

        def solve(channel, tol, prior=None):
            solves.append((channel, real_solve(channel, tol, prior)))
            return solves[-1][1]

        monkeypatch.setattr(oracle, "_ascend", ascend)
        monkeypatch.setattr(oracle, "_refine_solve", solve)
        povm = depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)
        res = informational_power(povm, qubit_grid, tol=1e-6)
        assert res.refinement_rounds >= 2
        assert len(climbs) == res.refinement_rounds + (res.diagnostics["stop"] == "climb")
        assert not climbs[0][0].any()  # round 1 climbs against q: the KL form, b = 0
        for (_, (states, vals, _)), (channel, solved) in zip(climbs[1:], solves):
            out = solved.prior @ channel
            p = oracle.povm_channel(povm, states)  # depolarized: every p > 0
            divergence = np.einsum("xy,xy->x", p, np.log(p / out))
            assert np.abs(math.log(2) + vals - divergence).max() <= 1e-12

    def test_qutrit_sic_refinement_closes(self, qutrit_sic):
        # the refinement channel here has a non-unique optimal prior, on which
        # Blahut-Arimoto converges sublinearly
        povm = depolarize(qutrit_sic, 0.25)
        res = informational_power(povm, default_grid(3, seed=2016, resolution=2000), tol=1e-5)
        assert res.diagnostics["bracket_met"] is True
        assert res.diagnostics["refine_capped"] == 0
        assert res.capacity_estimate == pytest.approx(capacity("qutrit_sic", 0.25), abs=2e-3)


@pytest.fixture(scope="module")
def qutrit_acceptance_grid():
    return default_grid(3, seed=2016)


class TestStopRule:
    """The pricing loop stops at the least climbed estimate of max_phi D(p(.|phi) || out)."""

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("family,dim", [("qubit_sic", None), ("icosahedron", None),
                                            ("anti_sic", 2), ("qutrit_sic", None)])
    def test_covariant_sets_stop_at_upper(self, family, dim, lam, qubit_grid,
                                          qutrit_acceptance_grid):
        # on the acceptance-4 grids the KL climb already bounds the capacity within tol of the
        # first solve's value, and one more climb, against that solve's output, adds nothing
        tol = 1e-5
        povm = depolarize(build(DesignSpec(family, 1.0, 0.0, dim)), lam)
        grid = qubit_grid if povm.dim == 2 else qutrit_acceptance_grid
        res = informational_power(povm, grid, tol=tol)
        assert res.diagnostics["stop"] == "upper"
        assert res.diagnostics["upper"] <= res.capacity_estimate + tol
        pricing = oracle._GridPricing(povm, grid)
        channel = oracle.povm_channel(povm, res.optimizer_states)
        lnout = np.log(np.maximum(res.optimizer_weights @ channel, np.finfo(float).tiny))
        top = grid.states[oracle._top_k(pricing.prices(lnout), max(32, povm.dim ** 2))]
        _, vals, _ = oracle._ascend(pricing.ops, pricing.a, pricing.a * (pricing.lnq - lnout),
                                    top)
        assert math.log(povm.dim) + vals.max() <= res.capacity_estimate + tol

    @pytest.mark.parametrize("family,dim", [*CATALOG_FAMILIES, ("uniform", 3)])
    def test_upper_is_at_most_the_kl_value(self, family, dim, qubit_grid):
        tol = 1e-5
        if family == "uniform":  # seven effects that form no design
            base = discretized_uniform_povm(3, n_effects=7, seed=5)
        else:
            base = build(DesignSpec(family, 1.0, 0.0, dim))
        grid = {2: qubit_grid, 3: default_grid(3, seed=2016, resolution=2000)}.get(
            base.dim) or _seeded_d8_grid("hoggar_sic")
        for lam in (0.5, 1.0):
            povm = depolarize(base, lam)
            res = informational_power(povm, grid, tol=tol)
            upper = res.diagnostics["upper"]
            assert upper <= kl_maximize(povm, grid)[0]
            if res.diagnostics["stop"] == "upper":
                assert res.capacity_estimate >= upper - tol

    def test_flat(self):
        povm = depolarize(discretized_uniform_povm(2, seed=2016), 0.4)
        res = informational_power(povm, default_grid(2, seed=2016, resolution=512), tol=1e-5)
        assert res.refinement_rounds == 0
        assert res.diagnostics["stop"] == "flat"
        assert res.diagnostics["upper"] is None
        assert res.diagnostics["pricing_capped"] is False

    def test_cap(self, monkeypatch):
        grid = default_grid(2, seed=2016, resolution=200)
        povm = depolarize(discretized_uniform_povm(2, n_effects=5), 0.3)
        monkeypatch.setattr(oracle, "PRICING_MAX_ROUNDS", 1)
        res = informational_power(povm, grid, tol=1e-6)
        assert res.refinement_rounds == 1
        assert res.diagnostics["stop"] == "cap"
        assert res.diagnostics["pricing_capped"] is True
        assert res.capacity_estimate < res.diagnostics["upper"] - 1e-6

    def test_upper_takes_precedence_over_cap(self, qubit_sic, monkeypatch):
        # the one round allowed ends with a solve that meets the KL climb: "upper", not "cap"
        grid = default_grid(2, seed=2016, resolution=200)
        monkeypatch.setattr(oracle, "PRICING_MAX_ROUNDS", 1)
        res = informational_power(depolarize(qubit_sic, 0.5), grid, tol=1e-6)
        assert res.refinement_rounds == 1
        assert res.diagnostics["stop"] == "upper"
        assert res.diagnostics["pricing_capped"] is False


def _direct_bracket(channel, prior):
    """I(prior) and max_x D(P_x || prior P), summed term by term from the definitions."""
    out = prior @ channel
    div = [math.fsum(p * math.log(p / o) for p, o in zip(row, out) if p > 0) for row in channel]
    return math.fsum(r * dx for r, dx in zip(prior, div)), max(div)


class TestRefineSolve:
    def _check_certified(self, channel, res):
        assert res.prior.min() >= 0.0
        assert abs(res.prior.sum() - 1.0) <= 1e-12
        assert res.bracket_width >= 0.0
        lower, upper = _direct_bracket(channel, res.prior)
        assert lower == pytest.approx(res.capacity, abs=1e-12)
        assert lower - 1e-12 <= res.capacity <= upper + 1e-12
        assert upper - res.capacity <= res.bracket_width + 1e-12

    def test_identity_channel(self):
        res = oracle._refine_solve(np.eye(4), 1e-12)
        assert res.capacity == pytest.approx(math.log(4), abs=1e-12)
        self._check_certified(np.eye(4), res)

    def test_binary_symmetric_channel(self):
        channel = np.array([[0.75, 0.25], [0.25, 0.75]])
        expected = math.log(2) + 0.25 * math.log(0.25) + 0.75 * math.log(0.75)
        res = oracle._refine_solve(channel, 1e-12)
        assert res.capacity == pytest.approx(expected, abs=1e-12)
        self._check_certified(channel, res)

    def test_z_channel(self):
        # asymmetric: the optimal prior is not uniform; C = ln(1 + (1-p) p^(p/(1-p)))
        p = 0.3
        channel = np.array([[1.0, 0.0], [p, 1 - p]])
        expected = math.log(1 + (1 - p) * p ** (p / (1 - p)))
        res = oracle._refine_solve(channel, 1e-12)
        assert res.bracket_width <= 1e-12
        assert res.capacity == pytest.approx(expected, abs=1e-12)
        self._check_certified(channel, res)

    def test_one_row_channel(self):
        channel = np.array([[0.2, 0.3, 0.5]])
        res = oracle._refine_solve(channel, 1e-9)
        assert res.capacity == 0.0
        assert res.bracket_width == 0.0
        self._check_certified(channel, res)

    def test_non_unique_optimal_prior(self, qutrit_sic):
        povm = depolarize(qutrit_sic, 0.25)
        anti = build(DesignSpec("anti_sic", 1.0, 0.0, 3))
        states = np.vstack([[np.linalg.eigh(op)[1][:, -1] for op in anti.ops],
                            haar_random_states(3, 3, seed=11)])
        channel = oracle.povm_channel(povm, states)
        res = oracle._refine_solve(channel, 1e-9)
        # the optimal prior is not unique: its support rows are linearly dependent
        support = res.prior > 1e-9
        assert np.linalg.matrix_rank(channel[support]) < support.sum()
        assert res.bracket_width <= 1e-9
        assert res.capacity == pytest.approx(capacity("qutrit_sic", 0.25), abs=1e-9)
        self._check_certified(channel, res)


    def test_closes_every_non_design_round(self, monkeypatch):
        # several rounds, each warm-started from the last prior with the new states at 0
        real, seen = oracle._refine_solve, []

        def recorded(channel, tol, prior=None):
            seen.append((channel, tol, prior))
            return real(channel, tol, prior)

        monkeypatch.setattr(oracle, "_refine_solve", recorded)
        informational_power(*_fresh_pair("non_design"), tol=1e-6)
        assert len(seen) >= 3 and sum(prior is not None for *_, prior in seen) >= 2
        for channel, tol, prior in seen:
            assert tol == oracle.REFINE_TOL
            res = real(channel, tol, prior)
            assert res.bracket_width <= oracle.REFINE_TOL
            self._check_certified(channel, res)


class TestNnls:
    """Lawson-Hanson NNLS against scipy's, and on the shapes the tightness check solves."""

    @pytest.mark.parametrize("rows,cols", [(40, 4), (30, 30), (8, 400), (18, 2000)])
    @pytest.mark.parametrize("inside", [False, True])  # b in the cone of the columns, or not
    def test_matches_scipy(self, rows, cols, inside):
        from scipy.optimize import nnls

        rng = np.random.default_rng(rows * cols + inside)
        for _ in range(5):
            a = rng.normal(size=(rows, cols))
            x0 = rng.uniform(size=cols) * (rng.uniform(size=cols) < 0.2)
            x0[0] = 1.0
            b = a @ x0 if inside else rng.normal(size=rows)
            b /= np.linalg.norm(b)
            x, resid = oracle._nnls(a, b)
            assert x.min() >= 0.0
            assert resid == pytest.approx(np.linalg.norm(a @ x - b), abs=1e-15)
            assert abs(resid - nnls(a, b)[1]) <= 1e-12

    @pytest.mark.parametrize("family", ["hoggar_sic", "qutrit_sic"])
    def test_hull_shapes_match_scipy(self, family):
        from scipy.optimize import nnls

        # Hoggar's 64 optimal states over 128 rows: one least-squares solve; then a grid
        states = np.array([np.linalg.eigh(p)[1][:, -1] for p in optimal_ensemble(family).ops])
        d = states.shape[1]
        for ensemble in (states, states[: d * d // 2], haar_random_states(d, 600, seed=3)):
            projs = np.einsum("xi,xj->xij", ensemble, ensemble.conj()).reshape(len(ensemble), -1)
            a = np.concatenate([projs.real, projs.imag], axis=1).T
            for target in (np.eye(d) / d, np.diag(np.arange(d) == 0) * 1.0):
                b = np.concatenate([target.ravel(), np.zeros(d * d)])
                assert abs(oracle._nnls(a, b)[1] - nnls(a, b)[1]) <= 1e-12
        assert oracle._identity_hull_residual(states, d) <= 1e-12


def concatenated_hull_residual(states, d):
    """The hull residual in the former column layout: every real part, then every imaginary
    part of the flattened projectors (the reference for the interleaved projector view)."""
    def columns(states):
        projs = np.einsum("xi,xj->xij", states, states.conj()).reshape(len(states), -1)
        return np.concatenate([projs.real, projs.imag], axis=1).T

    target = np.concatenate([(np.eye(d) / d).ravel(), np.zeros(d * d)])
    stride = max(1, len(states) // (8 * d * d))
    _, resid = oracle._nnls(columns(states[::stride]), target)
    if resid > oracle.TIGHTNESS_RESIDUAL_TOL and stride > 1:
        _, resid = oracle._nnls(columns(states), target)
    return float(resid)


class TestHullResidualLayout:
    """The hull check reads core.projector_view; its residual is the former layout's."""

    @pytest.mark.parametrize("family,lam", [("qubit_sic", 0.5), ("icosahedron", 0.3),
                                            ("qutrit_sic", 0.5)])
    def test_acceptance_4_support(self, family, lam, qubit_grid):
        base = build(DesignSpec(family))
        grid = qubit_grid if base.dim == 2 else default_grid(3, seed=2016)
        states = informational_power(depolarize(base, lam), grid, tol=1e-5).optimizer_states
        got = oracle._identity_hull_residual(states, base.dim)
        assert abs(got - concatenated_hull_residual(states, base.dim)) <= 1e-15

    def test_flat_uniform_grid(self, qubit_grid):
        # capacity --family uniform:2 --lambda 0.4 --method both checks the whole flat grid
        states = qubit_grid.states
        got = oracle._identity_hull_residual(states, 2)
        assert abs(got - concatenated_hull_residual(states, 2)) <= 1e-15


class TestDiscretizedUniform:
    def test_is_exact_povm(self):
        for d in (2, 3):
            eset = discretized_uniform_povm(d, n_effects=512, seed=5)
            total = effects(eset).sum(axis=0)
            assert np.abs(total - np.eye(d)).max() < 1e-12

    def test_channel_rows_sum_to_one(self, qubit_grid):
        channel = oracle.povm_channel(discretized_uniform_povm(2), qubit_grid.states)
        assert channel.shape == (qubit_grid.states.shape[0], 2048)
        assert channel.min() >= 0.0
        assert np.abs(channel.sum(axis=1) - 1.0).max() <= 1e-12

    def test_capacity_matches_closed_form(self, qubit_grid):
        povm = discretized_uniform_povm(2, seed=2016)
        for lam in (0.4, 1.0):
            target = depolarize(povm, lam) if lam != 1.0 else povm
            res = informational_power(target, qubit_grid, tol=1e-5)
            assert res.capacity_estimate == pytest.approx(uniform_capacity(2, lam), abs=2e-3)
