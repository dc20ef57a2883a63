import math

import numpy as np
import pytest

from tdesigncap import (
    DesignSpec,
    InterpolationSpec,
    MomentVector,
    bound_Ct,
    bound_from_set,
    build,
    certify,
    depolarize,
    design_strength,
    gammas,
    hermite_interpolate,
    moments,
    moments_of_depolarized,
)
from tdesigncap.bounds import (
    CROSS_CHECK_TOL,
    FormulaDomainError,
    GammaConsistencyError,
    IllConditionedError,
    PatternError,
    _eta_derivative,
)

from reference_bounds import verify_below


def projective_gammas(d, k_max=5):
    return gammas(MomentVector(values=(1.0,) * k_max, mu0=d))


def depolarized_gammas(base_set, lam, k_max=5):
    return gammas(moments_of_depolarized(moments(base_set, k_max), lam))


# The family tokens of the figure sweeps (figures 2 and 3).
SWEEP_TOKENS = ("qubit_sic", "qubit_mub", "icosahedron", "uniform:2", "anti_sic:2",
                "qutrit_sic", "qutrit_mub", "uniform:3", "anti_sic:3",
                "hoggar_sic", "uniform:8", "anti_sic:8")


def sweep_gammas():
    """(token, d, lambda, gamma_1..gamma_5) over the figure sweeps' 31-step lambda grid."""
    for token in SWEEP_TOKENS:
        name, _, dim = token.partition(":")
        spec = DesignSpec(name, 1.0, 0.0, int(dim) if dim else None)
        base = (MomentVector(values=(1.0,) * 5, mu0=spec.dimension) if name == "uniform"
                else moments(build(spec), 5))
        for lam in np.linspace(0.0, 1.0, 31):
            yield token, spec.dimension, lam, gammas(moments_of_depolarized(base, lam))


# Closed forms of C_2..C_4 (the optimal-node formulas written out), kept as
# references for the quadrature rule that bound_Ct evaluates.
def closed_c2(d, g):
    return math.log(d) + math.log(g[1] / g[0])


def closed_c3(d, g):
    g1, g2, g3 = g[:3]
    x1 = (g2 - g3) / (g1 - g2)
    return math.log(d) + d * (g1 - g2) ** 2 / (g1 - 2 * g2 + g3) * math.log(x1)


def closed_c4(d, g):
    g1, g2, g3, g4 = g[:4]
    delta = (g1 * g4 - g2 * g3) ** 2 - 4 * (g1 * g3 - g2 ** 2) * (g2 * g4 - g3 ** 2)
    root = math.sqrt(delta)
    ratio = (g2 * g3 - g1 * g4 + root) / (g2 * g3 - g1 * g4 - root)
    prod = (g3 ** 2 - g2 * g4) / (g2 ** 2 - g1 * g3)
    return (math.log(d) + 0.5 * math.log(prod)
            + d * (g1 ** 2 * g4 - 3 * g1 * g2 * g3 + 2 * g2 ** 3) / (2 * root) * math.log(ratio))


class TestHermiteInterpolate:
    def test_t2_closed_form(self, rng):
        # direct solve of r(x1)=eta(x1), r'(x1)=eta'(x1), r(0)=0:
        # a1 = 1 - ln x1, a2 = -1/x1
        for x1 in rng.uniform(0.1, 0.9, size=10):
            spec = InterpolationSpec(nodes=(0.0, float(x1)), multiplicities=(1, 2))
            a = hermite_interpolate(spec)
            assert a[0] == pytest.approx(0.0, abs=1e-13)
            assert a[1] == pytest.approx(1 - math.log(x1), abs=1e-10)
            assert a[2] == pytest.approx(-1 / x1, abs=1e-10)

    def test_t1_chord(self):
        # single contact at 0 and x1 = b: the chord, slope eta(x1)/x1 = -ln x1;
        # at x1 = 1/e the slope is 1
        x1 = 1 / math.e
        spec = InterpolationSpec(nodes=(0.0, x1), multiplicities=(1, 1), interval=(0.0, x1))
        a = hermite_interpolate(spec)
        assert a[1] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_double_contact_at_one(self):
        # nodes {0 (value), 1 (value+slope)}: r(x) = x(1 - x), below eta on [0,1]
        spec = InterpolationSpec(nodes=(0.0, 1.0), multiplicities=(1, 2))
        a = hermite_interpolate(spec, check_pattern=False)
        assert np.allclose(a, [0.0, 1.0, -1.0], atol=1e-12)
        assert verify_below(a)

    def test_ill_conditioned_nodes(self):
        spec = InterpolationSpec(nodes=(0.0, 0.5, 0.5 + 1e-10), multiplicities=(1, 2, 2))
        with pytest.raises(IllConditionedError):
            hermite_interpolate(spec, check_pattern=False)

    def test_derivative_at_zero_rejected(self):
        spec = InterpolationSpec(nodes=(0.0, 0.5), multiplicities=(2, 2))
        with pytest.raises((ValueError, PatternError)):
            hermite_interpolate(spec, check_pattern=False)


class TestEtaDerivative:
    def test_matches_mpmath_with_alternating_sign(self):
        mpmath = pytest.importorskip("mpmath")
        for k in range(2, 8):
            for x in (0.05, 0.3, 0.5, 0.77, 1.0):
                with mpmath.workdps(30):
                    ref = float(mpmath.diff(lambda s: -s * mpmath.log(s), x, k))
                got = _eta_derivative(x, k)
                assert got == pytest.approx(ref, rel=1e-12), (k, x)
                assert math.copysign(1.0, got) == (-1.0) ** (k - 1), (k, x)


class TestPatternValidation:
    def test_valid_patterns(self):
        InterpolationSpec((0.0, 0.4), (1, 2)).validate_pattern()
        InterpolationSpec((0.0, 0.4, 1.0), (1, 2, 1)).validate_pattern()
        InterpolationSpec((0.0, 0.3, 0.7), (1, 2, 2)).validate_pattern()
        InterpolationSpec((0.1, 0.3, 0.8), (1, 2, 1), interval=(0.1, 0.8)).validate_pattern()

    def test_invalid_patterns(self):
        with pytest.raises(PatternError):  # interior single contact
            InterpolationSpec((0.0, 0.4, 1.0), (1, 1, 1)).validate_pattern()
        with pytest.raises(PatternError):  # double contact at right endpoint
            InterpolationSpec((0.0, 1.0), (1, 2)).validate_pattern()
        with pytest.raises(PatternError):  # first node not the left endpoint
            InterpolationSpec((0.1, 0.5), (1, 2)).validate_pattern()
        with pytest.raises(PatternError):  # first node doubled
            InterpolationSpec((0.0, 0.5), (2, 2)).validate_pattern()
        with pytest.raises(PatternError):  # non-increasing nodes
            InterpolationSpec((0.0, 0.5, 0.5), (1, 2, 2)).validate_pattern()


class TestVerifyBelow:
    def test_t2_interpolant(self):
        a = hermite_interpolate(InterpolationSpec((0.0, 0.6), (1, 2)))
        assert verify_below(a)

    def test_zero_polynomial_chord(self):
        assert verify_below(np.zeros(2))

    def test_identity_line_fails(self):
        # eta(0.9) - 0.9 < 0
        assert not verify_below(np.array([0.0, 1.0]))


class TestBoundCt:
    def test_c1_is_ln_d(self):
        for d in (2, 3, 8):
            assert bound_Ct(d, [1.0 / d], 1).value == pytest.approx(math.log(d), abs=1e-15)

    def test_c2_projective(self):
        for d in (2, 3, 8):
            rep = bound_Ct(d, projective_gammas(d), 2)
            assert rep.value == pytest.approx(math.log(2 * d / (d + 1)), abs=1e-13)
        assert bound_Ct(2, projective_gammas(2), 2).value == pytest.approx(
            math.log(4 / 3), abs=1e-13)

    def test_c3_qubit_projective(self):
        # gamma = (1/2, 1/3, 1/4): node 1/2, value (1/3) ln 2
        rep = bound_Ct(2, projective_gammas(2), 3)
        assert rep.nodes[1] == pytest.approx(0.5, abs=1e-12)
        assert rep.value == pytest.approx(math.log(2) / 3, abs=1e-13)

    def test_c5_matches_icosahedral_capacity(self):
        from tdesigncap import capacity
        rep = bound_Ct(2, projective_gammas(2), 5)
        assert sorted(rep.nodes)[1:3] == pytest.approx(
            [(5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10], abs=1e-12)
        assert rep.value == pytest.approx(capacity("icosahedron", 1.0), abs=1e-12)

    def test_monotone_in_t(self, icosahedron):
        for lam in (0.3, 0.7, 1.0):
            g = depolarized_gammas(icosahedron, lam)
            values = [bound_Ct(2, g, t).value for t in (1, 2, 3, 4, 5)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10

    def test_delta4_gamma5_variant_surfaced(self):
        rep = bound_Ct(2, projective_gammas(2), 4)
        assert "delta4_gamma5_variant" in rep.diagnostics
        # the variant differs from the consistent discriminant here
        assert abs(rep.diagnostics["delta4_variant_discrepancy"]) > 1e-4
        assert rep.delta is not None and rep.delta > 0

    def test_degenerate_one_point(self, qubit_sic):
        g = depolarized_gammas(qubit_sic, 0.0)
        for t in (4, 5):
            rep = bound_Ct(2, g, t)
            assert rep.degenerate
            assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_gamma_consistency_guards(self):
        g = projective_gammas(2)
        with pytest.raises(GammaConsistencyError):
            bound_Ct(2, [2 * x for x in g], 2)  # rescaled
        with pytest.raises(GammaConsistencyError):
            bound_Ct(2, [0.5, 0.6], 2)  # increasing
        with pytest.raises(GammaConsistencyError):
            bound_Ct(2, [0.5, -0.1], 2)  # negative

    def test_formula_domain_error(self):
        # gamma_2 - gamma_3 > gamma_1 - gamma_2 pushes the t=3 node past 1
        with pytest.raises(FormulaDomainError):
            bound_Ct(2, [0.5, 0.4, 0.28], 3)

    def test_indefinite_hankel_raises(self):
        # gamma_1 gamma_3 < gamma_2^2: no measure on [0, 1] has these moments,
        # although the t = 4 node quadratic has roots inside (0, 1)
        with pytest.raises(FormulaDomainError):
            bound_Ct(2, [0.5, 0.4, 0.15, 0.05], 4)

    def test_matches_closed_forms_over_sweep(self):
        closed = {2: closed_c2, 3: closed_c3, 4: closed_c4}
        for token, d, lam, g in sweep_gammas():
            for t in range(2, min(design_strength(token.partition(":")[0]), 4) + 1):
                if t == 4 and lam == 0.0:
                    continue  # 0/0 in the closed form; see test_degenerate_one_point
                assert bound_Ct(d, g, t).value == pytest.approx(
                    closed[t](d, g), abs=1e-10), (token, lam, t)

    def test_sweep_interpolants_below_eta(self):
        # bound_Ct proves r <= eta from the node pattern (the Hermite remainder);
        # the numeric scan confirms it on every interpolant the figure sweeps build
        cases = 0
        for token, d, lam, g in sweep_gammas():
            for t in range(2, min(design_strength(token.partition(":")[0]), 5) + 1):
                rep = bound_Ct(d, g, t)
                n = len(rep.nodes) - 1 - t % 2
                mult = (1, *(2,) * n, *(1,) * (t % 2))
                coeffs = hermite_interpolate(InterpolationSpec(rep.nodes, mult))
                assert verify_below(coeffs), (token, lam, t, rep.nodes)
                assert abs(rep.diagnostics["assembled"] - rep.value) <= CROSS_CHECK_TOL
                cases += 1
        assert cases == 775

    def test_closed_form_cross_validation_runs(self, icosahedron):
        # any closed-form/assembly disagreement beyond 1e-10 raises inside
        for lam in (0.2, 0.5, 0.9, 1.0):
            g = depolarized_gammas(icosahedron, lam)
            for t in (2, 3, 4):
                rep = bound_Ct(2, g, t)
                assert abs(rep.diagnostics["assembled"] - rep.value) <= 1e-10


class TestBoundFromSet:
    def test_uninformative_is_zero(self, qubit_sic):
        flat = depolarize(qubit_sic, 0.0)
        cert = certify(flat, 2, n_spotchecks=0)
        rep = bound_from_set(flat, 2, certificate=cert)
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_icosahedron_t2(self, icosahedron):
        cert = certify(icosahedron, 2, n_spotchecks=0)
        rep = bound_from_set(icosahedron, 2, certificate=cert)
        assert rep.value == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_icosahedron_t5_tightens(self, icosahedron):
        cert = certify(icosahedron, 5, n_spotchecks=0)
        values = [bound_from_set(icosahedron, t, certificate=cert).value for t in (2, 3, 4, 5)]
        assert values[-1] <= values[0]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_warns_without_certificate(self, qubit_sic):
        with pytest.warns(UserWarning):
            bound_from_set(qubit_sic, 2)

    def test_warns_with_insufficient_certificate(self, icosahedron):
        cert = certify(icosahedron, 2, n_spotchecks=0)
        with pytest.warns(UserWarning):
            bound_from_set(icosahedron, 4, certificate=cert)

    def test_bound_below_ln_d(self, qutrit_mub):
        cert = certify(qutrit_mub, 2, n_spotchecks=0)
        rep = bound_from_set(qutrit_mub, 2, certificate=cert)
        assert 0.0 <= rep.value <= math.log(3) + 1e-12
