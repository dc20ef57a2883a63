import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from dense_reference import (
    class_gram,
    class_gram_projection,
    cycle_type,
    dense_certificate,
    permutation_basis,
    symmetric_projector,
)
from reference_gamma import gamma_empirical, gamma_explicit
from reference_information import transposed
from tdesigncap import (
    DesignSpec,
    MomentVector,
    build,
    certify,
    depolarize,
    gammas,
    moments,
    verify,
)
from tdesigncap.core import haar_random_states
from tdesigncap.verify import MAX_T, ResourceGuardError, _character_table, _projection_norm2


class TestMoments:
    def test_projective_moments_are_one(self, icosahedron):
        mv = moments(icosahedron, 5)
        assert np.allclose(mv.values, 1.0, atol=1e-12)

    def test_flat_moments(self, qutrit_sic):
        mv = moments(depolarize(qutrit_sic, 0.0), 4)
        assert mv.values == pytest.approx([3.0 ** (1 - k) for k in (1, 2, 3, 4)], abs=1e-12)

    def test_half_depolarized_qubit_sic(self, qubit_sic):
        # cross-module oracle: the depolarized-moment binomial identity gives
        # mu_2 = 0.625 for a half-depolarized pure qubit state
        mv = moments(depolarize(qubit_sic, 0.5), 2)
        assert mv[2] == pytest.approx(0.625, abs=1e-12)

    def test_moment_vector_invariants(self):
        with pytest.raises(ValueError):
            MomentVector(values=(0.9, 0.8), mu0=2)  # mu_1 != 1
        with pytest.raises(ValueError):
            MomentVector(values=(1.0, 0.5, 0.6), mu0=2)  # increasing


def bell_values(mus, d):
    """B_1..B_k(x_1..x_k), x_i = (i-1)! mu_i, as gammas returns them times d (d+1) ... (d+k-1)."""
    return [g * math.prod(range(d, d + k))
            for k, g in enumerate(gammas(MomentVector(values=tuple(mus), mu0=d)), start=1)]


class TestBellPolynomial:
    def test_first_three(self):
        x1, x2, x3 = 1.0, 0.7, 2 * 0.4
        b = bell_values([1.0, 0.7, 0.4], 3)
        assert b[0] == pytest.approx(x1, abs=1e-12)
        assert b[1] == pytest.approx(x1 ** 2 + x2, abs=1e-12)
        assert b[2] == pytest.approx(x1 ** 3 + 3 * x1 * x2 + x3, abs=1e-12)

    def test_fourth_and_fifth(self, rng):
        # independently transcribed complete Bell polynomials
        for _ in range(20):
            mus = np.cumprod([1.0, *rng.uniform(0.2, 1.0, size=4)])
            x = mus * [math.factorial(i) for i in range(5)]
            b4 = (x[0] ** 4 + 6 * x[0] ** 2 * x[1] + 4 * x[0] * x[2] + 3 * x[1] ** 2 + x[3])
            b5 = (x[0] ** 5 + 10 * x[0] ** 3 * x[1] + 10 * x[0] ** 2 * x[2]
                  + 15 * x[0] * x[1] ** 2 + 5 * x[0] * x[3] + 10 * x[1] * x[2] + x[4])
            b = bell_values(mus, int(rng.integers(2, 7)))
            assert b[3] == pytest.approx(b4, rel=1e-12, abs=1e-12)
            assert b[4] == pytest.approx(b5, rel=1e-12, abs=1e-12)


class TestGamma:
    def test_projective_k2(self):
        for d in (2, 3, 5, 8):
            mv = MomentVector(values=(1.0, 1.0), mu0=d)
            assert gammas(mv)[1] == pytest.approx(2 / (d * (d + 1)), abs=1e-15)

    def test_fully_depolarized(self):
        for d in (2, 3):
            mv = MomentVector(values=tuple(d ** (1 - k) for k in range(1, 6)), mu0=d)
            assert gammas(mv) == pytest.approx([d ** (-k) for k in range(1, 6)], abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_beyond_k5_exact(self, d):
        # mu = 1 (projective): gamma_k = 1 / C(d + k - 1, k); mu_k = d^(1-k) (flat): d^-k
        projective = gammas(MomentVector(values=(1.0,) * 8, mu0=d))
        flat = gammas(MomentVector(values=tuple(d ** (1 - k) for k in range(1, 9)), mu0=d))
        for k in range(6, 9):
            assert projective[k - 1] == pytest.approx(1 / math.comb(d + k - 1, k), rel=1e-13)
            assert flat[k - 1] == pytest.approx(d ** (-k), rel=1e-13)

    def test_one_gamma_per_moment(self):
        assert gammas(MomentVector(values=(1.0,), mu0=3)) == (1 / 3,)
        assert len(gammas(MomentVector(values=(1.0,) * 7, mu0=2))) == 7

    def test_bell_form_agreement_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            vals = [1.0]
            for _ in range(4):
                vals.append(vals[-1] * rng.uniform(0.2, 1.0))
            mv = MomentVector(values=tuple(vals), mu0=d)
            for k, g in enumerate(gammas(mv), start=1):
                assert abs(g - gamma_explicit(mv, d, k)) < 1e-12

    def test_empirical_sic_own_state(self, qubit_sic):
        w, v = np.linalg.eigh(qubit_sic.ops[0])
        phi = v[:, -1]
        # overlap table of the tetrahedron: (1/4)(1 + 3*(1/9)) = 1/3
        assert gamma_empirical(qubit_sic, phi, 2) == pytest.approx(1 / 3, abs=1e-12)

    def test_empirical_k1_is_inverse_dim(self, qutrit_mub):
        for phi in haar_random_states(3, 5, seed=11):
            assert gamma_empirical(qutrit_mub, phi, 1) == pytest.approx(1 / 3, abs=1e-12)

    def test_empirical_flat(self, qubit_sic):
        flat = depolarize(qubit_sic, 0.0)
        for phi in haar_random_states(2, 3, seed=5):
            for k in (1, 2, 3):
                assert gamma_empirical(flat, phi, k) == pytest.approx(2.0 ** -k, abs=1e-12)


class TestPermutationMachinery:
    def test_trace_cycle_identity(self, rng):
        # Tr[W_sigma (A ot ... ot A)] = prod over cycles Tr[A^len]
        d, t = 3, 4
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a + a.conj().T
        kron = reduce(np.kron, [a] * t)
        basis = permutation_basis(d, t)
        cols = np.arange(d ** t)
        for sigma, idx in zip(basis.perms, basis.index_maps):
            tr = kron[cols, idx].sum()
            expected = np.prod([np.trace(np.linalg.matrix_power(a, l))
                                for l in cycle_type(sigma)])
            assert abs(tr - expected) < 1e-8 * max(1.0, abs(expected))

    def test_gram_entries(self):
        # Tr[W_sigma^dag W_tau] = d^{cycles(sigma^-1 tau)}
        basis = permutation_basis(2, 3)
        assert basis.gram[0, 0] == 2 ** 3  # identity vs identity
        assert basis.gram.shape == (6, 6)

    def test_symmetric_projector(self):
        p = symmetric_projector(2, 3)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(math.comb(2 + 3 - 1, 3), abs=1e-9)

    def test_class_gram_matches_dense_class_sums(self):
        # Tr[C_a^dag C_b] = |a||b| sum_mu s_mu(1^d) chi^mu(a) chi^mu(b) / f^mu for
        # the class sums C_a = sum_{sigma in a} W_sigma
        for d, t in ((2, 3), (3, 3), (2, 4)):
            basis = permutation_basis(d, t)
            table = _character_table(d, t)
            cols = np.arange(d ** t)
            sums = []
            for ct in table.classes:
                c = np.zeros((d ** t, d ** t))
                for idx, ct_sigma in zip(basis.index_maps, basis.cycle_types):
                    if ct_sigma == ct:
                        c[idx, cols] += 1.0
                sums.append(c)
            dense = [[int(np.sum(a * b)) for b in sums] for a in sums]
            size = [math.factorial(t) // z for z in table.z]
            n = len(table.classes)
            from_characters = [[size[a] * size[b] * sum(
                Fraction(s * chi[a] * chi[b], f) for chi, f, s in zip(table.chi, table.f, table.s))
                for b in range(n)] for a in range(n)]
            assert dense == from_characters
            assert dense == [list(row) for row in class_gram(d, t).gram]

    def test_class_gram_rank_is_schur_weyl(self):
        # the W_sigma span the commutant, whose class-function part has one
        # dimension per partition of t with at most d parts: one table term each
        partition_counts = [1, 2, 3, 5, 7, 11]
        for d in (2, 3, 8):
            for t in range(1, 7):
                table = _character_table(d, t)
                assert len(table.classes) == partition_counts[t - 1]
                assert len(table.chi) == sum(len(ct) <= d for ct in table.classes)
                assert len(table.chi) == len(class_gram(d, t).pivots)

    def test_character_orthogonality(self):
        for t in range(1, 9):
            table = _character_table(t, t)  # every mu |- t has at most t parts
            n = len(table.classes)
            assert table.classes[0] == (1,) * t
            assert [row[0] for row in table.chi] == list(table.f)
            assert sum(f * f for f in table.f) == math.factorial(t)
            for a in range(n):
                for b in range(n):
                    col = sum(chi[a] * chi[b] for chi in table.chi)
                    assert col == (table.z[a] if a == b else 0), (t, a, b)

    def test_isotypic_dimensions_fill_the_space(self):
        # (C^d)^{ot t} = sum_mu (S_t irrep f^mu) ot (GL(d) irrep s_mu(1^d))
        for d in (1, 2, 3, 8):
            for t in range(1, 9):
                table = _character_table(d, t)
                assert sum(f * s for f, s in zip(table.f, table.s)) == d ** t

    def test_character_projection_equals_class_gram_inverse(self, rng):
        # on trace vectors of actual operators, beta^T H_S^-1 beta from the exact
        # class-sum Gram matrix equals the isotypic sum, as exact rationals
        for d in (2, 3, 8):
            for t in range(1, 7):
                table = _character_table(d, t)
                assert table.classes == class_gram(d, t).classes
                for _ in range(3):
                    spectra = [[Fraction(int(v), 20) for v in rng.integers(-20, 21, size=d)]
                               for _ in range(4)]
                    weights = [Fraction(int(v), 7) for v in rng.integers(1, 8, size=4)]
                    T = [sum(w * math.prod(sum(e ** l for e in spec) for l in ct)
                             for w, spec in zip(weights, spectra)) for ct in table.classes]
                    assert _projection_norm2(table, T) == class_gram_projection(d, t, T)


class TestCertify:
    def test_qubit_sic_pass_fail(self, qubit_sic):
        assert certify(qubit_sic, 2, n_spotchecks=0).passed
        cert = certify(qubit_sic, 3, n_spotchecks=0)
        assert not cert.passed
        assert cert.span_residual > 1e-4  # decisively above threshold

    def test_icosahedron_downward_closure(self, icosahedron):
        for t in range(1, 6):
            assert certify(icosahedron, t, n_spotchecks=0).passed

    def test_projective_m_t_is_normalized_symmetric_projector(self, qubit_mub):
        d, t = 2, 3
        m = np.zeros((d ** t, d ** t), dtype=complex)
        for w, op in zip(qubit_mub.weights, qubit_mub.ops):
            m += w * reduce(np.kron, [op] * t)
        p = symmetric_projector(d, t) / math.comb(d + t - 1, t)
        assert np.abs(m - p).max() < 1e-8

    def test_transpose_closure(self, qutrit_sic):
        assert certify(transposed(qutrit_sic), 2, n_spotchecks=0).passed

    def test_depolarization_preserves_verdicts(self, qubit_mub):
        for lam in (0.25, 0.6):
            dep = depolarize(qubit_mub, lam)
            assert certify(dep, 3, n_spotchecks=0).passed
            assert not certify(dep, 4, n_spotchecks=0).passed

    def test_phi_independence_on_passing_sets(self, icosahedron):
        cert = certify(icosahedron, 5, n_spotchecks=0)
        predicted = gammas(cert.moments)
        for phi in haar_random_states(2, 50, seed=17):
            for k in range(1, 6):
                assert abs(gamma_empirical(icosahedron, phi, k) - predicted[k - 1]) < 1e-9

    def test_negative_spotcheck_count_refused(self, qubit_sic):
        with pytest.raises(ValueError, match="n_spotchecks must be >= 0, got -3"):
            certify(qubit_sic, 2, n_spotchecks=-3)

    def test_spotchecks_recorded(self, qubit_sic):
        cert = certify(qubit_sic, 2, n_spotchecks=7, seed=3)
        assert len(cert.gamma_spotchecks) == 7 * 2
        assert max(err for _, _, err in cert.gamma_spotchecks) < 1e-9

    def test_spotcheck_recomputed_from_probe_row(self, qubit_sic):
        # probe i is row i of one seeded stream of Haar states; qubit_sic is
        # no 3-design, so the k = 3 error depends on the probe
        cert = certify(qubit_sic, 3, n_spotchecks=25, seed=11)
        i, k, err = cert.gamma_spotchecks[3 * 7 + 2]
        assert (i, k) == (7, 3) and err > 1e-3
        phi = haar_random_states(2, 25, seed=11)[i]
        again = abs(gamma_empirical(qubit_sic, phi, k) - gammas(cert.moments)[k - 1])
        assert again == pytest.approx(err, rel=1e-12)
        assert cert.to_json_dict()["gamma_spotchecks"][3 * 7 + 2] == {
            "probe": 7, "k": 3, "abs_error": err}

    def test_spotchecks_reach_t7(self, qubit_sic):
        cert = certify(depolarize(qubit_sic, 0.0), 7, n_spotchecks=25)
        assert len(cert.gamma_spotchecks) == 25 * 7
        assert {k for _, k, _ in cert.gamma_spotchecks} == set(range(1, 8))
        assert max(err for _, _, err in cert.gamma_spotchecks) <= 1e-12

    def test_deterministic_given_seed(self, qubit_sic):
        a = certify(qubit_sic, 2, n_spotchecks=5, seed=42)
        b = certify(qubit_sic, 2, n_spotchecks=5, seed=42)
        assert a.gamma_spotchecks == b.gamma_spotchecks

    def test_resource_guard(self, qubit_sic):
        assert certify(qubit_sic, MAX_T, n_spotchecks=0).verdict == "fail"
        with pytest.raises(ResourceGuardError, match=f"1 <= t <= {MAX_T}"):
            certify(qubit_sic, MAX_T + 1, n_spotchecks=0)

    def test_hoggar_t5_fails(self, hoggar):
        # d^t = 32768: beyond any dense M_t the package could form
        cert = certify(hoggar, 5, n_spotchecks=0)
        assert cert.verdict == "fail"
        assert cert.span_residual > 1e-4

    def test_mu_consistency_reported(self, qutrit_mub):
        cert = certify(qutrit_mub, 2, n_spotchecks=0)
        assert cert.mu_consistent
        assert cert.mu_spread < 1e-12

    def test_mu_inconsistency_fails(self, qutrit_mub, monkeypatch):
        # eigenvalue moments that disagree with the power traces fail the certificate
        real = verify.moments

        def shifted(eset, k_max):
            mv = real(eset, k_max)
            return MomentVector(values=(1.0,) + tuple(v - 1e-6 for v in mv.values[1:]),
                                mu0=mv.mu0)

        monkeypatch.setattr(verify, "moments", shifted)
        cert = certify(qutrit_mub, 2, n_spotchecks=0)
        assert not cert.mu_consistent
        assert cert.mu_spread == pytest.approx(1e-6, rel=1e-6)
        assert cert.verdict == "fail"
        assert "disagree" in cert.notes

    def test_certificate_serializes(self, qubit_sic):
        import json
        cert = certify(qubit_sic, 2, n_spotchecks=2, seed=1)
        payload = json.dumps(cert.to_json_dict())
        assert "span_residual" in payload


def _dense_cases():
    phases = {"qutrit_sic": (0.0, 0.7, 2.1)}
    matrix = [("qubit_sic", None, 2), ("qubit_sic", None, 3), ("qubit_mub", None, 3),
              ("qubit_mub", None, 4), ("icosahedron", None, 5), ("qutrit_sic", None, 2),
              ("qutrit_mub", None, 2), ("qutrit_mub", None, 3), ("hoggar_sic", None, 2),
              ("anti_sic", 2, 2), ("anti_sic", 3, 2), ("anti_sic", 8, 2)]
    cases = [(fam, dim, phase, t, lam) for fam, dim, t in matrix
             for phase in phases.get(fam, (0.0,)) for lam in (1.0, 0.75, 0.5, 0.25)]
    cases += [("qutrit_sic", None, 0.0, t, 1.0) for t in (3, 4, 5)]
    cases.append(("hoggar_sic", None, 0.0, 3, 1.0))
    return cases


def test_kernel_matches_dense_reference():
    # acceptance 1's matrix plus the larger failing cases that still fit densely
    for fam, dim, phase, t, lam in _dense_cases():
        eset = build(DesignSpec(fam, lam, phase, dim))
        cert = certify(eset, t, n_spotchecks=0)
        residual, _, verdict = dense_certificate(eset, t)
        label = (fam, dim, phase, t, lam)
        assert cert.verdict == verdict, label
        if verdict == "fail":
            assert cert.span_residual == pytest.approx(residual, rel=1e-6), label
        else:
            # a float64 kernel leaves up to ~1e-8 of cancellation error here
            assert cert.span_residual <= 1e-9 and residual <= 1e-9, label
