import math

import numpy as np
import pytest
from mpmath import mp

from singlim.profiles import (ProblemData, kernel_profile, norms_together, sample_together,
                              segment_sums,
                              squared_integrals, squared_norms_together)
import singlim.exppoly as exppoly
import singlim.profiles as profiles_module
from singlim.spectral import Spectrum, norm, sample_norms, squared_norms
from singlim.timegrid import standard_grid

from conftest import make_problem, sample


def at(profile, t):
    """The profile's mode values at the one time t."""
    return sample(profile, [t])[0]


def max_gap(a, b, ts):
    d = sample(a, ts) - sample(b, ts)
    return float(np.max(np.sqrt(np.sum(d**2, axis=1))))


class TestProblemData:
    def test_v1_derivation(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        lam = pd.spec.eigenvalues
        expected = lam * pd.u0 + pd.u1
        np.testing.assert_allclose(pd.v1, expected, rtol=1e-15)

    def test_il0_flag(self):
        assert make_problem([0.0, 1.0, 4.0], 0.1, il0=True).il0_satisfied
        assert not make_problem([0.0, 1.0, 4.0], 0.1).il0_satisfied

    def test_il0_flag_is_taken_once_per_problem(self, monkeypatch):
        pd = make_problem([0.0, 1.0, 4.0], 0.1, il0=True)
        calls = []

        def counted(f):
            calls.append(f)
            return norm(f)

        monkeypatch.setattr(profiles_module, "norm", counted)
        assert pd.il0_satisfied and pd.il0_satisfied
        pd.derivative_expansion
        assert len(calls) == 3  # |v1|, |A u0| and |u1|, at the first read only

    def test_eps_range(self):
        spec = Spectrum(np.array([1.0]))
        one = np.array([1.0])
        with pytest.raises(ValueError):
            ProblemData(spec, 0.0, one, one)
        with pytest.raises(ValueError):
            ProblemData(spec, 1.5, one, one)

    @pytest.mark.parametrize("bad", [
        [1.0, np.inf], [np.nan, 0.0], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0,
    ], ids=["inf", "nan", "short", "long", "2-d", "scalar"])
    @pytest.mark.parametrize("name", ["u0", "u1"])
    def test_data_are_checked_and_read_only(self, name, bad):
        spec = Spectrum(np.array([0.0, 4.0]))
        data = {"u0": [1.0, 2.0], "u1": [3.0, -1.0]}
        with pytest.raises(ValueError, match=f"{name} must hold one finite value"):
            ProblemData(spec, 0.1, **{**data, name: bad})
        given = np.array(data[name])
        pd = ProblemData(spec, 0.1, **{**data, name: given})
        given[0] = 7.0  # the problem keeps a copy
        assert getattr(pd, name)[0] == data[name][0]
        for vector in (pd.u0, pd.u1, pd.v1, pd.ju0, pd.ju1, pd.jv1):
            assert vector.dtype == float and vector.shape == (2,)
            with pytest.raises(ValueError):
                vector[0] = 0.0


class TestBasicProfiles:
    def test_kernel_mode_is_stationary(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.3, np.array([1.0]), np.array([0.0])
        )
        u = pd.solution
        for t in (0.0, 0.5, 7.0):
            assert at(u, t)[0] == pytest.approx(1.0, abs=1e-15)

    def test_critical_mode_value(self):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.25, np.array([1.0]), np.array([0.0])
        )
        assert at(pd.solution, 1.0)[0] == pytest.approx(
            3.0 * math.exp(-2.0), rel=1e-14
        )

    def test_limit_profile_values(self):
        pd = make_problem([1.0], 0.1, p=0.0)  # u0 = (1,)
        v = pd.parabolic
        assert at(v, 0.0)[0] == 1.0
        assert at(v, math.log(2.0))[0] == pytest.approx(0.5, rel=1e-15)

    def test_layer_values(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.1, np.array([0.0]), np.array([1.0])
        )  # v1 = (1,)
        theta = pd.theta
        assert norm(at(theta, 0.0)) == 0.0
        assert at(theta, 0.2)[0] == pytest.approx(
            0.1 * (1.0 - math.exp(-2.0)), rel=1e-14
        )

    def test_layer_vanishes_under_compatibility(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05, il0=True)
        theta = pd.theta
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(sample(theta, ts))) == 0.0

    def test_layer_slope_is_v1(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        theta = pd.theta
        np.testing.assert_allclose(
            at(theta.deriv(), 0.0), pd.v1, rtol=1e-13
        )

    def test_layer_solves_relaxation_equation(self):
        # eps theta'' + theta' = 0 holds identically
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        theta = pd.theta
        ts = np.linspace(0.0, 2.0, 9)
        residual = pd.eps * sample(theta.deriv().deriv(), ts) + sample(theta.deriv(), ts)
        assert np.max(np.abs(residual)) <= 1e-13


class TestExpansionProfiles:
    def test_matches_initial_value(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        p = pd.main_expansion
        np.testing.assert_allclose(
            at(p, 0.0), pd.u0, atol=1e-15
        )

    def test_single_mode_value(self):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.01, np.array([1.0]), np.array([0.0])
        )
        expected = math.exp(-1.0) + 0.01 * (
            math.exp(-1.0) - math.exp(-1.0) - math.exp(-100.0)
        )
        assert at(pd.main_expansion, 1.0)[0] == pytest.approx(
            expected, rel=1e-14
        )

    def test_compatible_data_drops_layer(self):
        pd = make_problem([1.0, 4.0], 0.01, il0=True)
        p = pd.main_expansion
        expected = pd.parabolic - kernel_profile(
            pd.spec, pd.u0, 1, 2.0, pd.eps
        )
        ts = np.linspace(0.0, 5.0, 21)
        assert max_gap(p, expected, ts) <= 1e-15

    def test_derivative_profile_initial_value(self):
        pd = make_problem([1.0, 4.0], 0.01, il0=True)
        d = pd.derivative_expansion
        np.testing.assert_allclose(
            at(d, 0.0), pd.u1, atol=1e-14
        )

    def test_derivative_profile_kernel_only(self):
        spec = Spectrum(np.array([0.0, 0.0]))
        pd = ProblemData(
            spec, 0.1, np.array([1.0, 2.0]), np.zeros(2)
        )
        d = pd.derivative_expansion
        ts = np.linspace(0.0, 3.0, 7)
        assert np.max(np.abs(sample(d, ts))) == 0.0

    def test_derivative_profile_requires_compatibility(self):
        pd = make_problem([1.0], 0.1)
        with pytest.raises(ValueError):
            pd.derivative_expansion


class TestSplit:
    def test_superposition(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        a, b = pd.splits
        ts = standard_grid([pd.eps]).times
        gap = max_gap(a + b, pd.solution, ts)
        assert gap <= 1e-10 * pd.data_scale

    def test_compatible_data_kills_second(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05, il0=True)
        _, b = pd.splits
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(sample(b, ts))) == 0.0

    def test_zero_u0_kills_first(self):
        spec = Spectrum(np.array([1.0, 2.0]))
        pd = ProblemData(
            spec, 0.1, np.zeros(2), np.array([1.0, -1.0])
        )
        a, _ = pd.splits
        ts = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(sample(a, ts))) == 0.0


class TestCorrectors:
    def test_zero_data_gives_zero_correctors(self):
        spec = Spectrum(np.array([1.0, 4.0]))
        zero = np.zeros(2)
        pd = ProblemData(spec, 0.1, zero, zero)
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(sample(pd.corrector_primary, ts))) == 0.0
        assert np.max(np.abs(sample(pd.corrector_halfpower, ts))) == 0.0
        for j in (1, 2):
            assert np.max(np.abs(sample(pd.split_correctors[j - 1], ts))) == 0.0

    def test_primary_identity(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        ts = standard_grid([pd.eps]).times
        ju1 = pd.ju1
        smoothed = kernel_profile(
            pd.spec, pd.u0 + pd.eps * ju1, 0, 0.0
        )
        gap = max_gap(
            pd.solution,
            smoothed + pd.corrector_primary.deriv().scale(pd.eps),
            ts,
        )
        assert gap <= 1e-9

    def test_primary_identity_kernel_mode(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.2, np.array([0.5]), np.array([2.0])
        )
        ts = standard_grid([pd.eps]).times
        smoothed = kernel_profile(
            spec,
            pd.u0 + pd.eps * pd.u1,
            0,
            0.0,
        )
        gap = max_gap(
            pd.solution,
            smoothed + pd.corrector_primary.deriv().scale(pd.eps),
            ts,
        )
        assert gap <= 1e-13

    def test_halfpower_identity(self):
        pd = make_problem([1.0], 0.05, p=0.0)
        ts = standard_grid([pd.eps]).times
        u_one, _ = pd.splits
        z = pd.corrector_halfpower
        gap = max_gap(
            u_one, pd.parabolic + z.operator_power(0.5).scale(pd.eps), ts
        )
        assert gap <= 1e-9

    def test_split_corrector_identities(self):
        pd = make_problem([1.0], 0.1)
        ts = standard_grid([pd.eps]).times
        u_one, u_two = pd.splits
        ju0 = pd.ju0
        gap1 = max_gap(
            u_one,
            kernel_profile(pd.spec, ju0, 0, 0.0)
            + pd.split_correctors[0].deriv().scale(pd.eps),
            ts,
        )
        jv1 = pd.jv1
        gap2 = max_gap(
            u_two,
            kernel_profile(pd.spec, jv1, 0, 0.0).scale(pd.eps)
            + pd.split_correctors[1].deriv().scale(pd.eps),
            ts,
        )
        assert max(gap1, gap2) <= 1e-9

    def test_profile_part_initial_values(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        lam = pd.spec.eigenvalues
        ju0 = pd.ju0
        jv1 = pd.jv1
        v1p = pd.corrector_profiles[0]
        np.testing.assert_allclose(
            at(v1p, 0.0), 2.0 * pd.eps * lam * ju0, rtol=1e-14
        )
        v2p = pd.corrector_profiles[1]
        np.testing.assert_allclose(
            at(v2p, 0.0), -2.0 * pd.eps * jv1, rtol=1e-14
        )

    def test_profile_part_second_derivative_formula(self):
        # analytic second derivative must equal the displayed kernel form
        pd = make_problem([1.0], 0.1, p=0.0)
        lam = pd.spec.eigenvalues
        ju0 = pd.ju0
        d2 = pd.corrector_profiles[0].deriv().deriv()
        expected = kernel_profile(
            pd.spec, (pd.eps * lam - 1.0) * ju0, 0, 2.0, 2.0
        ) + kernel_profile(pd.spec, ju0, 1, 3.0)
        ts = np.linspace(0.0, 6.0, 25)
        assert max_gap(d2, expected, ts) <= 1e-12

    def test_profile_part_kernel_mode_vanishes_j1(self):
        spec = Spectrum(np.array([0.0]))
        pd = ProblemData(
            spec, 0.1, np.array([1.0]), np.array([0.0])
        )
        ts = np.linspace(0.0, 3.0, 7)
        assert np.max(np.abs(sample(pd.corrector_profiles[0], ts))) == 0.0


def remainder_ode_residual(pd, j, w, ts):
    """Largest |eps w'' + w' + A w + v''| on ts, v the profile part."""
    forcing = pd.corrector_profiles[j - 1].deriv().deriv().scale(-1.0)
    s2, s1, s0, sf = sample_together((w.deriv().deriv(), w.deriv(), w, forcing), ts)
    residual = pd.eps * s2 + s1 + pd.spec.eigenvalues * s0 - sf
    return float(np.max(np.sqrt(np.sum(residual**2, axis=1))))


class TestRemainders:
    def test_zero_u0_gives_zero_first_remainder(self):
        spec = Spectrum(np.array([1.0, 4.0]))
        pd = ProblemData(
            spec, 0.1, np.zeros(2), np.array([1.0, 0.5])
        )
        rem = pd.remainders[0]
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(sample(rem, ts))) <= 1e-14

    def test_second_remainder_initial_data(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        rem = pd.remainders[1]
        lam = pd.spec.eigenvalues
        jv1 = pd.jv1
        np.testing.assert_allclose(at(rem, 0.0), jv1, atol=1e-12)
        np.testing.assert_allclose(
            at(rem.deriv(), 0.0), -2.0 * lam * jv1, atol=1e-12
        )

    def test_first_remainder_slope_sign(self):
        # the decomposition forces the +2 A^2 J u0 slope
        pd = make_problem([1.0, 4.0], 0.1)
        rem = pd.remainders[0]
        lam = pd.spec.eigenvalues
        ju0 = pd.ju0
        np.testing.assert_allclose(
            at(rem.deriv(), 0.0), +2.0 * lam**2 * ju0, rtol=1e-10
        )
        np.testing.assert_allclose(
            at(rem, 0.0), -lam * ju0, atol=1e-12
        )

    def test_remainder_ode_residual_recorded(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        rem = pd.remainders[0]
        ts = standard_grid([pd.eps]).times
        assert remainder_ode_residual(pd, 1, rem, ts) <= 1e-8

    def test_direct_solve_matches_residual_route(self):
        # the decomposition residual (split corrector - profile part)/eps,
        # plus the second split component for j = 2, is exact enough here
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        _, u2 = pd.splits
        for j in (1, 2):
            residual = pd.split_correctors[j - 1] - pd.corrector_profiles[j - 1]
            if j == 2:
                residual = residual + u2
            ts = standard_grid([pd.eps]).times
            assert (
                max_gap(pd.remainders[j - 1], residual.scale(1.0 / pd.eps), ts)
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
        u0, u1 = pd.u0, pd.u1
        ts = _layer_times(eps)
        got = sample(pd.remainders[j - 1], ts)
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
        u0, u1 = pd.u0, pd.u1
        ts = _layer_times(eps)
        got = sample(pd.solution.deriv(), ts)
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
        u0, u1 = pd.u0, pd.u1
        ts = _layer_times(eps)
        got = sample(pd.remainders[j - 1].deriv(), ts)
        want = _mp_table(
            ts, lambda i, t: _remainder_mp(eps, lam[i], u0[i], u1[i], j, t, order=1)
        )
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestLayerSource:
    def test_vanishes_without_layer(self):
        pd = make_problem([1.0, 4.0], 0.1, il0=True)
        src = pd.layer_source
        ts = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(sample(src, ts))) <= 1e-14

    def test_relaxation_identity(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        ts = standard_grid([pd.eps]).times
        _, u_two = pd.splits
        lhs = u_two.deriv().scale(pd.eps) + u_two
        source = pd.layer_source
        rhs = kernel_profile(pd.spec, pd.v1, 0, 0.0).scale(
            pd.eps
        ) + source.scale(pd.eps**1.5)
        assert max_gap(lhs, rhs, ts) <= 1e-9 * pd.data_scale

    def test_boundedness_recorded(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        src = pd.layer_source
        ts = standard_grid([pd.eps]).times
        sup = float(np.max(np.sqrt(np.sum(sample(src, ts) ** 2, axis=1))))
        assert np.isfinite(sup)
        assert sup > 0.0


class TestDerivativeConsistency:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_central_difference(self, eps):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        h = 1e-5
        profiles = [
            pd.solution,
            pd.parabolic,
            pd.theta,
            pd.corrector_primary,
            pd.split_correctors[0],
        ]
        ts = [t for t in (10 * eps, 0.5, 1.0, 3.0) if t >= 10 * eps]
        for prof in profiles:
            for t in ts:
                fd = (
                    sample(prof, np.array([t + h]))[0]
                    - sample(prof, np.array([t - h]))[0]
                ) / (2 * h)
                an = at(prof.deriv(), t)
                scale = max(1.0, float(np.max(np.abs(an))))
                assert np.max(np.abs(fd - an)) <= 1e-6 * scale


class TestSampleTogether:
    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_bitwise_equal_to_one_by_one(self, eps):
        # profiles of one eps share their rates mode by mode; e^{-t/eps}
        # underflows on part of the grid at eps = 0.001, and near-critical
        # modes (lam close to 1/(4 eps)) carry grouped differences
        pd = make_problem(np.append(2.49, (np.pi * np.arange(1, 9)) ** 2), eps)
        rem = pd.remainders[1]
        profiles = [
            pd.solution,
            pd.parabolic,
            pd.main_expansion,
            rem,
            rem.deriv(),
            pd.corrector_profiles[1].deriv().deriv().scale(-1.0),  # the forcing
            pd.layer_source,  # grouped differences in low modes
        ]
        assert any(m.differences for p in profiles for m in p.modes)
        ts = standard_grid([eps]).times
        samples = sample_together(profiles, ts)
        for prof, got in zip(profiles, samples):
            want = np.column_stack([m.value(ts) for m in prof.modes])
            assert got.shape == (ts.size, len(pd.spec))
            assert got.T.flags.c_contiguous  # mode-major buffer
            assert got.tobytes() == want.tobytes()
            assert sample(prof, ts).tobytes() == want.tobytes()

    def test_one_live_times_call_per_decaying_rate(self, monkeypatch):
        # dirichlet-32: every mode shares the live times of each decay rate,
        # e^{-t/eps} and the group rates among them
        eps = 0.001
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        profiles = [
            pd.solution,
            pd.main_expansion,
            pd.layer_source,
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
        u = pd.solution
        (got,) = sample_together([u], 0.5)
        assert got.shape == (1, 3)
        np.testing.assert_array_equal(got[0], [m.value(0.5) for m in u.modes])

    def test_rejects_mixed_spectra(self):
        a = make_problem([1.0, 4.0], 0.1).solution
        b = make_problem([1.0], 0.1).solution
        with pytest.raises(ValueError):
            sample_together([a, b], np.linspace(0.0, 1.0, 3))


class TestSegmentSums:
    # mode 0 is 0 and mode 1's rate underflows at every time: rows with no
    # live term; mode 2 underflows on part of the times, mode 3 lives
    _TERMS = [[], [(0, -1e6, 1.0)], [(0, -400.0, 1e300)],
              [(0, -3.0, 1.5), (1, -1.0, -0.25)]]
    _TS = np.linspace(1.0, 3.0, 40)
    _STARTS = np.array([0, 7, 8, 30])

    def _sums(self, weights):
        spec = Spectrum(np.array([0.0, 1e6, 400.0, 3.0]))
        profile = profiles_module.ProfileFunction(
            spec, tuple(exppoly.ExpPoly.build(t) for t in self._TERMS))
        out = np.full((5, 4), np.nan)
        segment_sums(profile, self._TS, weights, self._STARTS, out, [0, 2, 3, 4])
        assert np.isnan(out[1]).all()
        want = np.add.reduceat(weights[:, None] * sample(profile, self._TS),
                               self._STARTS, axis=0)
        assert out[[0, 2, 3, 4]].tobytes() == want.tobytes()
        return out[[0, 2, 3, 4]]

    def test_rows_with_no_live_term_take_plus_zero(self):
        sums = self._sums(np.linspace(0.5, 2.0, 40))
        assert (sums[:, :2] == 0).all() and not np.signbit(sums[:, :2]).any()
        assert (sums[:3, 2] != 0).all() and sums[3, 2] == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf
    def test_any_weights_take_the_weighted_reduction(self):
        # -0, negative and non-finite weights reach the modes with no live
        # term too: the segment of one -0 weight sums to -0, and those with
        # an inf or a NaN weight to NaN
        weights = np.linspace(0.5, 2.0, 40)
        weights[7] = -0.0
        weights[[10, 20, 35]] = [-1.5, math.inf, math.nan]
        dead = self._sums(weights)[:, :2]
        assert (dead[:2] == 0).all() and np.signbit(dead[:2]).tolist() == [[False] * 2, [True] * 2]
        assert np.isnan(dead[2:]).all()


_PRESETS = {
    "three-mode": [0.0, 1.0, 4.0],
    "dirichlet-32": (np.pi * np.arange(1, 33)) ** 2,
    "neumann-33": (np.pi * np.arange(0, 33)) ** 2,
}


def _simulate_columns(i, s):
    # cmd_simulate's vectors: u, v, theta, u - v, u - (v + theta), u - expansion
    return [s[0], s[1], s[2], s[0] - s[1], s[0] - (s[1] + s[2]), s[0] - s[3]]


class TestNormsTogether:
    """The mode-by-mode reductions have the bits of sample_norms and
    squared_norms of the whole samples."""

    @staticmethod
    def _profiles(pd):
        return [pd.solution, pd.parabolic, pd.theta, pd.main_expansion]

    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("preset", sorted(_PRESETS))
    def test_bitwise_equal_to_whole_samples(self, preset, shared):
        eps = 0.01
        pd = make_problem(_PRESETS[preset], eps)
        ts = standard_grid([eps]).times
        times = pd.sample_times(ts) if shared else ts
        samples = sample_together(self._profiles(pd), ts)
        vectors = _simulate_columns(slice(None), samples)
        got = norms_together(self._profiles(pd), times, _simulate_columns)
        got_squares = squared_norms_together(self._profiles(pd), times, _simulate_columns)
        assert len(got) == len(got_squares) == len(vectors) == 6
        for x, norms, squares in zip(vectors, got, got_squares):
            assert norms.tobytes() == sample_norms(x).tobytes()
            assert squares.tobytes() == squared_norms(x).tobytes()
        # by default, the profiles themselves
        for x, norms in zip(samples, norms_together(self._profiles(pd), times)):
            assert norms.tobytes() == sample_norms(x).tobytes()

    @pytest.mark.parametrize("size, whole", [(1e200, 1), (1e155, 0)])
    def test_overflowing_sums_take_the_whole_samples(self, monkeypatch, size, whole):
        # |u1| = 1e200 makes sums of squares overflow, and the profiles are
        # sampled whole for sample_norms to rescale them; at 1e155 samples
        # exceed sample_norms' limit but every sum is finite, which it keeps
        pd = ProblemData(Spectrum(np.array([1e-300, 1.0])), 0.1,
                         np.array([1.0, 1.0]), np.array([size, 0.0]))
        ts = standard_grid([0.1]).times
        calls = []
        sampled = profiles_module.sample_together

        def counted(profiles, times):
            calls.append(times)
            return sampled(profiles, times)

        monkeypatch.setattr(profiles_module, "sample_together", counted)
        got = norms_together(self._profiles(pd), ts, _simulate_columns)
        assert len(calls) == whole
        vectors = _simulate_columns(slice(None), sampled(self._profiles(pd), ts))
        assert np.max(np.abs(vectors[0])) > math.sqrt(np.finfo(float).max / 4)
        for x, norms in zip(vectors, got):
            assert norms.tobytes() == sample_norms(x).tobytes()
        assert np.all(np.isfinite(got[0])) and np.max(got[0]) > size / 100

    def test_no_profiles(self):
        assert norms_together([], np.linspace(0.0, 1.0, 3)) == []


def _table_arrays(table):
    """Every array an evaluation table holds: its times, the live times of
    each decay, the exponentials, the powers and the divided differences."""
    yield table.t
    yield from (times for _, times in table.values())
    for value in table.exps.values():
        yield from value if isinstance(value, tuple) else (value,)
    yield from table.powers.values()
    yield from (values for _, values in table.diffs.values())


class TestSharedEvaluationTable:
    """A problem's evaluation table of one time array, shared by every
    sample_together call handed it (ProblemData.sample_times)."""

    @staticmethod
    def _profiles(pd):
        rem = pd.remainders[1]
        return [
            pd.solution,  # complex roots above lam = 1/(4 eps), real below
            pd.parabolic,
            pd.theta,  # rates 0 and -1/eps, shared by every mode
            pd.main_expansion,
            pd.corrector_primary.deriv(),
            rem,
            rem.deriv(),
            pd.layer_source,  # grouped differences in low modes below eps 0.1
        ]

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_shared_table_samples_are_the_fresh_samples(self, eps):
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        profiles = self._profiles(pd)
        modes = [m for p in profiles for m in p.modes]
        assert any(mu.imag != 0 for m in modes for _, mu, _ in m.terms)
        assert any(mu.imag == 0 for m in modes for _, mu, _ in m.terms)
        assert any(m.differences for m in modes) == (eps < 0.1)
        grid = standard_grid([eps])
        table = pd.sample_times(grid.times)
        fresh = [sample(p, grid.times) for p in profiles]
        # one by one, forwards and backwards: each later call finds most of
        # its values made by the calls before it
        for order in (profiles, profiles[::-1]):
            for prof in order:
                (got,) = sample_together((prof,), table)
                want = fresh[profiles.index(prof)]
                assert got.tobytes() == want.tobytes()
        together = sample_together(profiles, table)
        for got, want in zip(together, fresh, strict=True):
            assert got.tobytes() == want.tobytes()
        assert table.exps and table.powers
        assert bool(table.diffs) == (eps < 0.1)

    def test_one_table_per_problem_and_time_array(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        grid = standard_grid([0.1])
        table = pd.sample_times(grid.times)
        assert pd.sample_times(grid.times) is table
        assert table.t.base is grid.times
        # the same values in another array, or another problem of the same
        # or another eps, get tables of their own
        same_values = standard_grid([0.1]).times
        assert same_values.tobytes() == grid.times.tobytes()
        assert pd.sample_times(same_values) is not table
        assert pd.sample_times(grid.quad_points) is not table
        for eps in (0.1, 0.01):
            other = make_problem([0.0, 1.0, 4.0], eps)
            assert other.sample_times(grid.times) is not table

    @pytest.mark.parametrize(
        "ts", [np.linspace(0.0, 1.0, 5), np.zeros((2, 2)), np.float64(1.0)],
        ids=["writeable", "2-d", "scalar"],
    )
    def test_rejects_arrays_that_cannot_key_a_table(self, ts):
        if isinstance(ts, np.ndarray) and ts.ndim == 2:
            ts.setflags(write=False)
        with pytest.raises(ValueError):
            make_problem([1.0], 0.1).sample_times(ts)

    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_table_arrays_are_read_only(self, eps):
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        grid = standard_grid([eps])
        table = pd.sample_times(grid.times)
        sample_together(self._profiles(pd), table)
        arrays = list(_table_arrays(table))
        assert len(arrays) > 64
        assert not any(a.flags.writeable for a in arrays)
        # a fresh table of a writeable array leaves the array writeable
        ts = np.linspace(0.0, 1.0, 5)
        fresh = exppoly.SampleTimes(ts)
        assert ts.flags.writeable and not fresh.t.flags.writeable


class TestSquaredIntegrals:
    @pytest.mark.parametrize("weight_power", [0, 1, 2])
    def test_together_bitwise_equal_to_one_by_one(self, weight_power):
        # one integrate call over all modes of all profiles; near-critical
        # modes bring grouped differences into the squares
        pd = make_problem(np.append(2.49, (np.pi * np.arange(1, 9)) ** 2), 0.01)
        profiles = [pd.corrector_primary.deriv(), *pd.remainders, pd.layer_source]
        ts = standard_grid([pd.eps]).times
        together = squared_integrals(profiles, ts, weight_power)
        for prof, got in zip(profiles, together, strict=True):
            (alone,) = squared_integrals((prof,), ts, weight_power)
            assert got.tobytes() == alone.tobytes()

    def test_against_closed_form(self):
        # int_0^t s (2 e^{-s})^2 ds = 1 - (1 + 2t) e^{-2t}
        prof = kernel_profile(Spectrum(np.array([1.0])), np.array([2.0]), 0, 0.0)
        ts = np.array([0.0, 0.5, 3.0])
        (got,) = squared_integrals((prof,), ts, 1)
        want = 1.0 - (1.0 + 2.0 * ts) * np.exp(-2.0 * ts)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
