import dataclasses
import math

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    blahut_arimoto,
    build,
    capacity,
    depolarize,
    default_grid,
    discretized_uniform_povm,
    informational_power,
    kl_maximize,
    kl_objective,
    pure_ensemble,
    uniform_capacity,
)
from tdesigncap import oracle
from tdesigncap.closedform import ConvergenceError
from tdesigncap.oracle import StateGrid, fibonacci_bloch_states


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

    def test_seeded_states_prepended(self):
        extra = np.eye(2, dtype=complex)
        g = default_grid(2, seed=1, extra_states=extra, resolution=256)
        assert g.seeded == 2
        assert np.array_equal(g.states[:2], extra)


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

    def test_flat_povm(self, qubit_sic, qubit_grid):
        val, argmax = kl_maximize(depolarize(qubit_sic, 0.0), qubit_grid)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert argmax.shape[0] >= 1  # every state attains the (zero) max

    def test_icosahedron_all_vertices(self, icosahedron, qubit_grid):
        val, argmax = kl_maximize(icosahedron, qubit_grid)
        assert val == pytest.approx(capacity("icosahedron", 1.0), abs=1e-9)
        assert argmax.shape[0] == 12


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
        assert np.abs(res.average_state - np.eye(2) / 2).max() < 1e-4

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

    def test_capacity_above_ln_d_raises(self, qubit_sic, monkeypatch):
        real = oracle.blahut_arimoto

        def inflated(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), capacity=math.log(2) + 0.1)

        monkeypatch.setattr(oracle, "blahut_arimoto", inflated)
        with pytest.raises(ArithmeticError, match="exceeds ln d"):
            informational_power(qubit_sic, default_grid(2, seed=2016, resolution=200))

    def test_bracket_and_cap_flags(self, qubit_sic, monkeypatch):
        grid = default_grid(2, seed=2016, resolution=200)
        res = informational_power(qubit_sic, grid, tol=1e-6)
        assert res.bracket_width <= 1e-6
        assert res.diagnostics["bracket_met"] is True
        assert res.diagnostics["refine_capped"] == 0

        real = oracle.blahut_arimoto

        def stalled(channel, tol=1e-6, max_iter=200_000, strict=True):
            res = real(channel, tol=tol, max_iter=min(max_iter, 2000), strict=False)
            return dataclasses.replace(res, iterations=max_iter, bracket_width=1e-3)

        monkeypatch.setattr(oracle, "blahut_arimoto", stalled)
        res = informational_power(qubit_sic, grid, tol=1e-6)
        assert res.bracket_width == 1e-3
        assert res.diagnostics["bracket_met"] is False
        assert res.diagnostics["refine_capped"] == res.refinement_rounds >= 1


class TestDiscretizedUniform:
    def test_is_exact_povm(self):
        for d in (2, 3):
            eset = discretized_uniform_povm(d, n_effects=512, seed=5)
            total = eset.effects.sum(axis=0)
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
