import math

import numpy as np
import pytest

from singlim.profiles import (
    ProblemData,
    corrector_halfpower,
    corrector_primary,
    corrector_profile,
    corrector_remainder,
    corrector_split,
    derivative_expansion_profile,
    exact_solution,
    kernel_profile,
    layer_equation_source,
    main_expansion_profile,
    parabolic_profile,
    remainder_direct_solve,
    sample_together,
    split_components,
    theta_layer,
)
from singlim.spectral import SpecVector, Spectrum, norm, resolvent
from singlim.timegrid import standard_grid

from conftest import make_problem


def max_gap(a, b, ts):
    d = a.sample(ts) - b.sample(ts)
    return float(np.max(np.sqrt(np.sum(d**2, axis=1))))


class TestProblemData:
    def test_v1_derivation(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        lam = pd.spec.eigenvalues
        expected = lam * pd.u0.coefficients + pd.u1.coefficients
        np.testing.assert_allclose(pd.v1.coefficients, expected, rtol=1e-15)

    def test_il0_flag(self):
        assert make_problem([0.0, 1.0, 4.0], 0.1, il0=True).il0_satisfied
        assert not make_problem([0.0, 1.0, 4.0], 0.1).il0_satisfied

    def test_eps_range(self):
        spec = Spectrum(np.array([1.0]))
        one = SpecVector(np.array([1.0]))
        with pytest.raises(ValueError):
            ProblemData(spec, 0.0, one, one)
        with pytest.raises(ValueError):
            ProblemData(spec, 1.5, one, one)


class TestBasicProfiles:
    def test_kernel_mode_is_stationary(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.3, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        u = exact_solution(pd)
        for t in (0.0, 0.5, 7.0):
            assert u.value(t).coefficients[0] == pytest.approx(1.0, abs=1e-15)

    def test_critical_mode_value(self):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.25, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        assert exact_solution(pd).value(1.0).coefficients[0] == pytest.approx(
            3.0 * math.exp(-2.0), rel=1e-14
        )

    def test_limit_profile_values(self):
        pd = make_problem([1.0], 0.1, p=0.0)  # u0 = (1,)
        v = parabolic_profile(pd)
        assert v.value(0.0).coefficients[0] == 1.0
        assert v.value(math.log(2.0)).coefficients[0] == pytest.approx(0.5, rel=1e-15)

    def test_layer_values(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([0.0])), SpecVector(np.array([1.0]))
        )  # v1 = (1,)
        theta = theta_layer(pd)
        assert norm(theta.value(0.0)) == 0.0
        assert theta.value(0.2).coefficients[0] == pytest.approx(
            0.1 * (1.0 - math.exp(-2.0)), rel=1e-14
        )

    def test_layer_vanishes_under_compatibility(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05, il0=True)
        theta = theta_layer(pd)
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(theta.sample(ts))) == 0.0

    def test_layer_slope_is_v1(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        theta = theta_layer(pd)
        np.testing.assert_allclose(
            theta.derivative(0.0).coefficients, pd.v1.coefficients, rtol=1e-13
        )

    def test_layer_solves_relaxation_equation(self):
        # eps theta'' + theta' = 0 holds identically
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        theta = theta_layer(pd)
        ts = np.linspace(0.0, 2.0, 9)
        residual = pd.eps * theta.deriv().deriv().sample(ts) + theta.deriv().sample(ts)
        assert np.max(np.abs(residual)) <= 1e-13


class TestExpansionProfiles:
    def test_matches_initial_value(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        p = main_expansion_profile(pd)
        np.testing.assert_allclose(
            p.value(0.0).coefficients, pd.u0.coefficients, atol=1e-15
        )

    def test_single_mode_value(self):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.01, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        expected = math.exp(-1.0) + 0.01 * (
            math.exp(-1.0) - math.exp(-1.0) - math.exp(-100.0)
        )
        assert main_expansion_profile(pd).value(1.0).coefficients[0] == pytest.approx(
            expected, rel=1e-14
        )

    def test_compatible_data_drops_layer(self):
        pd = make_problem([1.0, 4.0], 0.01, il0=True)
        p = main_expansion_profile(pd)
        expected = parabolic_profile(pd) - kernel_profile(
            pd.spec, pd.u0.coefficients, 1, 2.0, pd.eps
        )
        ts = np.linspace(0.0, 5.0, 21)
        assert max_gap(p, expected, ts) <= 1e-15

    def test_derivative_profile_initial_value(self):
        pd = make_problem([1.0, 4.0], 0.01, il0=True)
        d = derivative_expansion_profile(pd)
        np.testing.assert_allclose(
            d.value(0.0).coefficients, pd.u1.coefficients, atol=1e-14
        )

    def test_derivative_profile_kernel_only(self):
        spec = Spectrum(np.array([0.0, 0.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([1.0, 2.0])), SpecVector(np.zeros(2))
        )
        d = derivative_expansion_profile(pd)
        ts = np.linspace(0.0, 3.0, 7)
        assert np.max(np.abs(d.sample(ts))) == 0.0

    def test_derivative_profile_requires_compatibility(self):
        pd = make_problem([1.0], 0.1)
        with pytest.raises(ValueError):
            derivative_expansion_profile(pd)


class TestSplit:
    def test_superposition(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        a, b = split_components(pd)
        ts = standard_grid([pd.eps]).times
        gap = max_gap(a + b, exact_solution(pd), ts)
        assert gap <= 1e-10 * pd.data_scale

    def test_compatible_data_kills_second(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05, il0=True)
        _, b = split_components(pd)
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(b.sample(ts))) == 0.0

    def test_zero_u0_kills_first(self):
        spec = Spectrum(np.array([1.0, 2.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.zeros(2)), SpecVector(np.array([1.0, -1.0]))
        )
        a, _ = split_components(pd)
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(a.sample(ts))) == 0.0


class TestCorrectors:
    def test_zero_data_gives_zero_correctors(self):
        spec = Spectrum(np.array([1.0, 4.0]))
        zero = SpecVector(np.zeros(2))
        pd = ProblemData(spec, 0.1, zero, zero)
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(corrector_primary(pd).sample(ts))) == 0.0
        assert np.max(np.abs(corrector_halfpower(pd).sample(ts))) == 0.0
        for j in (1, 2):
            assert np.max(np.abs(corrector_split(pd, j).sample(ts))) == 0.0

    def test_primary_identity(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        ts = standard_grid([pd.eps]).times
        ju1 = resolvent(pd.spec, pd.eps, pd.u1)
        smoothed = kernel_profile(
            pd.spec, pd.u0.coefficients + pd.eps * ju1.coefficients, 0, 0.0
        )
        gap = max_gap(
            exact_solution(pd),
            smoothed + corrector_primary(pd).deriv().scale(pd.eps),
            ts,
        )
        assert gap <= 1e-9

    def test_primary_identity_kernel_mode(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.2, SpecVector(np.array([0.5])), SpecVector(np.array([2.0]))
        )
        ts = standard_grid([pd.eps]).times
        smoothed = kernel_profile(
            spec,
            pd.u0.coefficients + pd.eps * pd.u1.coefficients,
            0,
            0.0,
        )
        gap = max_gap(
            exact_solution(pd),
            smoothed + corrector_primary(pd).deriv().scale(pd.eps),
            ts,
        )
        assert gap <= 1e-13

    def test_halfpower_identity(self):
        pd = make_problem([1.0], 0.05, p=0.0)
        ts = standard_grid([pd.eps]).times
        u_one, _ = split_components(pd)
        z = corrector_halfpower(pd)
        gap = max_gap(
            u_one, parabolic_profile(pd) + z.operator_power(0.5).scale(pd.eps), ts
        )
        assert gap <= 1e-9

    def test_split_corrector_identities(self):
        pd = make_problem([1.0], 0.1)
        ts = standard_grid([pd.eps]).times
        u_one, u_two = split_components(pd)
        ju0 = resolvent(pd.spec, pd.eps, pd.u0)
        gap1 = max_gap(
            u_one,
            kernel_profile(pd.spec, ju0.coefficients, 0, 0.0)
            + corrector_split(pd, 1).deriv().scale(pd.eps),
            ts,
        )
        jv1 = resolvent(pd.spec, pd.eps, pd.v1)
        gap2 = max_gap(
            u_two,
            kernel_profile(pd.spec, jv1.coefficients, 0, 0.0).scale(pd.eps)
            + corrector_split(pd, 2).deriv().scale(pd.eps),
            ts,
        )
        assert max(gap1, gap2) <= 1e-9

    def test_profile_part_initial_values(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        lam = pd.spec.eigenvalues
        ju0 = resolvent(pd.spec, pd.eps, pd.u0).coefficients
        jv1 = resolvent(pd.spec, pd.eps, pd.v1).coefficients
        v1p = corrector_profile(pd, 1)
        np.testing.assert_allclose(
            v1p.value(0.0).coefficients, 2.0 * pd.eps * lam * ju0, rtol=1e-14
        )
        v2p = corrector_profile(pd, 2)
        np.testing.assert_allclose(
            v2p.value(0.0).coefficients, -2.0 * pd.eps * jv1, rtol=1e-14
        )

    def test_profile_part_second_derivative_formula(self):
        # analytic second derivative must equal the displayed kernel form
        pd = make_problem([1.0], 0.1, p=0.0)
        lam = pd.spec.eigenvalues
        ju0 = resolvent(pd.spec, pd.eps, pd.u0).coefficients
        d2 = corrector_profile(pd, 1).deriv().deriv()
        expected = kernel_profile(
            pd.spec, (pd.eps * lam - 1.0) * ju0, 0, 2.0, 2.0
        ) + kernel_profile(pd.spec, ju0, 1, 3.0)
        ts = np.linspace(0.0, 6.0, 25)
        assert max_gap(d2, expected, ts) <= 1e-12

    def test_profile_part_kernel_mode_vanishes_j1(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        ts = np.linspace(0.0, 3.0, 7)
        assert np.max(np.abs(corrector_profile(pd, 1).sample(ts))) == 0.0


class TestRemainders:
    def test_zero_u0_gives_zero_first_remainder(self):
        spec = Spectrum(np.array([1.0, 4.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.zeros(2)), SpecVector(np.array([1.0, 0.5]))
        )
        rem = corrector_remainder(pd, 1)
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(rem.profile.sample(ts))) <= 1e-14

    def test_second_remainder_initial_data(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        rem = corrector_remainder(pd, 2)
        lam = pd.spec.eigenvalues
        jv1 = resolvent(pd.spec, pd.eps, pd.v1).coefficients
        np.testing.assert_allclose(rem.initial_value.coefficients, jv1, atol=1e-12)
        np.testing.assert_allclose(
            rem.initial_slope.coefficients, -2.0 * lam * jv1, atol=1e-12
        )

    def test_first_remainder_slope_sign(self):
        # the decomposition forces the +2 A^2 J u0 slope
        pd = make_problem([1.0, 4.0], 0.1)
        rem = corrector_remainder(pd, 1)
        lam = pd.spec.eigenvalues
        ju0 = resolvent(pd.spec, pd.eps, pd.u0).coefficients
        np.testing.assert_allclose(
            rem.initial_slope.coefficients, +2.0 * lam**2 * ju0, rtol=1e-10
        )
        np.testing.assert_allclose(
            rem.initial_value.coefficients, -lam * ju0, atol=1e-12
        )

    def test_remainder_ode_residual_recorded(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        rem = corrector_remainder(pd, 1)
        assert rem.max_ode_residual <= 1e-8

    def test_direct_solve_matches_residual_route(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        for j in (1, 2):
            rem = corrector_remainder(pd, j)
            direct = remainder_direct_solve(pd, j, rem.initial_value, rem.initial_slope)
            ts = standard_grid([pd.eps]).times
            assert max_gap(rem.profile, direct, ts) <= 1e-8 * pd.data_scale


class TestLayerSource:
    def test_vanishes_without_layer(self):
        pd = make_problem([1.0, 4.0], 0.1, il0=True)
        src = layer_equation_source(pd, corrector_remainder(pd, 2))
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(src.sample(ts))) <= 1e-14

    def test_relaxation_identity(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        ts = standard_grid([pd.eps]).times
        _, u_two = split_components(pd)
        lhs = u_two.deriv().scale(pd.eps) + u_two
        source = layer_equation_source(pd, corrector_remainder(pd, 2))
        rhs = kernel_profile(pd.spec, pd.v1.coefficients, 0, 0.0).scale(
            pd.eps
        ) + source.scale(pd.eps**1.5)
        assert max_gap(lhs, rhs, ts) <= 1e-9 * pd.data_scale

    def test_boundedness_recorded(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        src = layer_equation_source(pd, corrector_remainder(pd, 2))
        ts = standard_grid([pd.eps]).times
        sup = float(np.max(np.sqrt(np.sum(src.sample(ts) ** 2, axis=1))))
        assert np.isfinite(sup)
        assert sup > 0.0


class TestDerivativeConsistency:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_central_difference(self, eps):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        h = 1e-5
        profiles = [
            exact_solution(pd),
            parabolic_profile(pd),
            theta_layer(pd),
            corrector_primary(pd),
            corrector_split(pd, 1),
        ]
        ts = [t for t in (10 * eps, 0.5, 1.0, 3.0) if t >= 10 * eps]
        for prof in profiles:
            for t in ts:
                fd = (
                    prof.sample(np.array([t + h]))[0]
                    - prof.sample(np.array([t - h]))[0]
                ) / (2 * h)
                an = prof.derivative(t).coefficients
                scale = max(1.0, float(np.max(np.abs(an))))
                assert np.max(np.abs(fd - an)) <= 1e-6 * scale


class TestSampleTogether:
    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_bitwise_equal_to_one_by_one(self, eps):
        # profiles of one eps share their rates mode by mode; e^{-t/eps}
        # underflows on part of the grid at eps = 0.001, and near-critical
        # modes (lam close to 1/(4 eps)) carry grouped differences
        pd = make_problem(np.append(2.49, (np.pi * np.arange(1, 9)) ** 2), eps)
        rem = corrector_remainder(pd, 2)
        profiles = [
            exact_solution(pd),
            parabolic_profile(pd),
            main_expansion_profile(pd),
            rem.profile,
            rem.profile.deriv(),
            rem.forcing,
            layer_equation_source(pd, rem),  # grouped differences in low modes
        ]
        assert any(m.differences for p in profiles for m in p.modes)
        ts = standard_grid([eps]).times
        samples = sample_together(profiles, ts)
        for prof, got in zip(profiles, samples):
            want = np.column_stack([m.value(ts) for m in prof.modes])
            assert got.shape == (ts.size, len(pd.spec))
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            assert prof.sample(ts).tobytes() == want.tobytes()

    def test_scalar_time_and_one_profile(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        u = exact_solution(pd)
        (got,) = sample_together([u], 0.5)
        assert got.shape == (1, 3)
        np.testing.assert_array_equal(got[0], u.value(0.5).coefficients)

    def test_rejects_mixed_spectra(self):
        a = exact_solution(make_problem([1.0, 4.0], 0.1))
        b = exact_solution(make_problem([1.0], 0.1))
        with pytest.raises(ValueError):
            sample_together([a, b], np.linspace(0.0, 1.0, 3))
