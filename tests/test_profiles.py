import math

import numpy as np
import pytest
from mpmath import mp

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
    sample_together,
    split_components,
    theta_layer,
)
import singlim.exppoly as exppoly
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


def remainder_ode_residual(pd, j, w, ts):
    """Largest |eps w'' + w' + A w + v''| on ts, v the profile part."""
    forcing = corrector_profile(pd, j).deriv().deriv().scale(-1.0)
    s2, s1, s0, sf = sample_together((w.deriv().deriv(), w.deriv(), w, forcing), ts)
    residual = pd.eps * s2 + s1 + pd.spec.eigenvalues * s0 - sf
    return float(np.max(np.sqrt(np.sum(residual**2, axis=1))))


class TestRemainders:
    def test_zero_u0_gives_zero_first_remainder(self):
        spec = Spectrum(np.array([1.0, 4.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.zeros(2)), SpecVector(np.array([1.0, 0.5]))
        )
        rem = corrector_remainder(pd, 1)
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(rem.sample(ts))) <= 1e-14

    def test_second_remainder_initial_data(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        rem = corrector_remainder(pd, 2)
        lam = pd.spec.eigenvalues
        jv1 = resolvent(pd.spec, pd.eps, pd.v1).coefficients
        np.testing.assert_allclose(rem.value(0.0).coefficients, jv1, atol=1e-12)
        np.testing.assert_allclose(
            rem.derivative(0.0).coefficients, -2.0 * lam * jv1, atol=1e-12
        )

    def test_first_remainder_slope_sign(self):
        # the decomposition forces the +2 A^2 J u0 slope
        pd = make_problem([1.0, 4.0], 0.1)
        rem = corrector_remainder(pd, 1)
        lam = pd.spec.eigenvalues
        ju0 = resolvent(pd.spec, pd.eps, pd.u0).coefficients
        np.testing.assert_allclose(
            rem.derivative(0.0).coefficients, +2.0 * lam**2 * ju0, rtol=1e-10
        )
        np.testing.assert_allclose(
            rem.value(0.0).coefficients, -lam * ju0, atol=1e-12
        )

    def test_remainder_ode_residual_recorded(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        rem = corrector_remainder(pd, 1)
        ts = standard_grid([pd.eps]).times
        assert remainder_ode_residual(pd, 1, rem, ts) <= 1e-8

    def test_direct_solve_matches_residual_route(self):
        # the decomposition residual (split corrector - profile part)/eps,
        # plus the second split component for j = 2, is exact enough here
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        _, u2 = split_components(pd)
        for j in (1, 2):
            residual = corrector_split(pd, j) - corrector_profile(pd, j)
            if j == 2:
                residual = residual + u2
            ts = standard_grid([pd.eps]).times
            assert (
                max_gap(corrector_remainder(pd, j), residual.scale(1.0 / pd.eps), ts)
                <= 1e-8 * pd.data_scale
            )


def _forced_mode_mp(eps, lam, a, y0, y1, t, order=0):
    """The order-th derivative of y(t) for eps y'' + y' + lam y = a e^{-lam t},
    y(0) = y0, y'(0) = y1, as A e^{pt} + B e^{nt} + C e^{-lam t} with mpmath
    numbers."""
    root = mp.sqrt(1 - 4 * eps * lam)
    p, n = (-1 + root) / (2 * eps), (-1 - root) / (2 * eps)
    c = a / (eps * lam**2) if a else mp.mpf(0)  # q(-lam) = eps lam^2
    big_a = (y1 + lam * c - n * (y0 - c)) / (p - n)
    big_b = y0 - c - big_a
    return sum(
        coeff * rate**order * mp.exp(rate * t)
        for coeff, rate in ((big_a, p), (big_b, n), (c, -lam))
    )


def _kernel_part_mp(alpha, beta, lam, t, order):
    """The order-th derivative (0 or 1) of (alpha + beta t) e^{-lam t}."""
    value = alpha + beta * t
    if order:
        value = beta - lam * value
    return value * mp.exp(-lam * t)


def _remainder_mp(eps, lam, u0, u1, j, t, order=0):
    """The order-th derivative (0 or 1) of w(t) of one mode as the
    decomposition residual (split corrector - profile part [+ second split
    component]) / eps, at 50 digits, where the subtraction costs nothing
    that matters."""
    eps, lam, u0, u1, t = map(mp.mpf, (eps, lam, u0, u1, t))
    jac = 1 / (1 + eps * lam)
    if j == 1:
        f = u0 * jac
        split = _forced_mode_mp(eps, lam, lam * f, eps * lam * f, lam * f, t, order)
        part = _kernel_part_mp(2 * eps * lam * f, lam * f, lam, t, order)
        return (split - part) / eps
    v1 = lam * u0 + u1
    f = v1 * jac
    split = _forced_mode_mp(eps, lam, eps * lam * f, -eps * f, -f, t, order)
    part = _kernel_part_mp(-2 * eps * f, eps * lam * f, lam, t, order)
    u2 = _forced_mode_mp(eps, lam, 0, 0, v1, t, order)
    return (split - part + u2) / eps


def _layer_times(eps):
    """Times through the initial layer and after it."""
    return np.array([0.0, eps / 2, eps, 3 * eps, 10 * eps, 100 * eps, 1e-3, 0.1,
                     1.0, 3.0, 10.0, 20.0])


def _mp_table(ts, mode_value):
    """mode_value(i, t) at 50 digits for the three modes, as floats."""
    with mp.workdps(50):
        return np.array([[mode_value(i, t) for i in range(3)] for t in ts], dtype=float)


class TestSmallEpsReference:
    # Three-mode data at eps where the decomposition residual formed in
    # double precision keeps unit roundoff / eps in its coefficients (it
    # misses the j = 1 values below by 6e-10 to 1e-7); the remainder must
    # match the 50-digit residual to 1e-12 of its size, in the layer and
    # after it.
    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    @pytest.mark.parametrize("j", [1, 2])
    def test_remainder_matches_50_digit_reference(self, eps, j):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        lam = pd.spec.eigenvalues
        u0, u1 = pd.u0.coefficients, pd.u1.coefficients
        ts = _layer_times(eps)
        got = corrector_remainder(pd, j).sample(ts)
        want = _mp_table(ts, lambda i, t: _remainder_mp(eps, lam[i], u0[i], u1[i], j, t))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    # The slopes inside the layer: written as y0 e^{nt} + (y1 - n y0) exp[p, n]
    # with the fast root n ~ -1/eps, the coefficient of e^{nt} cancels O(|y0|)
    # terms and the slope keeps unit roundoff * |y0| / eps: errors of 6e-9 to
    # 1.3e-6 of the scale for the solution and 5e-10 to 2.5e-6 for the
    # remainders here.  The slow-root form stays within a few ulps.
    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_exact_solution_slope_matches_50_digits(self, eps):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        lam = pd.spec.eigenvalues
        u0, u1 = pd.u0.coefficients, pd.u1.coefficients
        ts = _layer_times(eps)
        got = exact_solution(pd).deriv().sample(ts)
        want = _mp_table(
            ts,
            lambda i, t: _forced_mode_mp(
                mp.mpf(eps), mp.mpf(lam[i]), 0, mp.mpf(u0[i]), mp.mpf(u1[i]),
                mp.mpf(t), 1,
            ),
        )
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-11])
    @pytest.mark.parametrize("j", [1, 2])
    def test_remainder_slope_matches_50_digit_reference(self, eps, j):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        lam = pd.spec.eigenvalues
        u0, u1 = pd.u0.coefficients, pd.u1.coefficients
        ts = _layer_times(eps)
        got = corrector_remainder(pd, j).deriv().sample(ts)
        want = _mp_table(
            ts, lambda i, t: _remainder_mp(eps, lam[i], u0[i], u1[i], j, t, order=1)
        )
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


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
            rem,
            rem.deriv(),
            corrector_profile(pd, 2).deriv().deriv().scale(-1.0),  # the forcing
            layer_equation_source(pd, rem),  # grouped differences in low modes
        ]
        assert any(m.differences for p in profiles for m in p.modes)
        ts = standard_grid([eps]).times
        samples = sample_together(profiles, ts)
        for prof, got in zip(profiles, samples):
            want = np.column_stack([m.value(ts) for m in prof.modes])
            assert got.shape == (ts.size, len(pd.spec))
            assert got.T.flags.c_contiguous  # mode-major buffer
            assert got.tobytes() == want.tobytes()
            assert prof.sample(ts).tobytes() == want.tobytes()

    def test_one_live_times_call_per_decaying_rate(self, monkeypatch):
        # dirichlet-32: every mode shares the live times of each decay rate,
        # e^{-t/eps} and the group rates among them
        eps = 0.001
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        profiles = [
            exact_solution(pd),
            main_expansion_profile(pd),
            layer_equation_source(pd, corrector_remainder(pd, 2)),
        ]
        ts = standard_grid([eps]).times
        calls = []
        live_times = exppoly._live_times

        def counted(decay, t):
            calls.append(decay)
            return live_times(decay, t)

        monkeypatch.setattr(exppoly, "_live_times", counted)
        sample_together(profiles, ts)
        modes = [m for p in profiles for m in p.modes]
        rates = {mu.real for m in modes for _, mu, _ in m.terms}
        rates |= {nodes[-1].real for m in modes for nodes, _ in m.differences}
        decaying = {x for x in rates if x * ts[-1] <= exppoly._UNDERFLOW_EXPONENT}
        assert -1.0 / eps in decaying
        assert sorted(calls) == sorted(decaying)

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
