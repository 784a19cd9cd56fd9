import math

import numpy as np
import pytest

from singlim.exppoly import ExpPoly, power_exp_moment
from singlim.profiles import (
    ProblemData,
    ProfileFunction,
    corrector_halfpower,
    corrector_primary,
    exact_solution,
    kernel_profile,
    layer_equation_source,
    parabolic_profile,
)
from singlim.spectral import SpecVector, Spectrum
from singlim.timegrid import TimeGrid, standard_grid
from singlim.verification import (
    COMPARISONS,
    CheckReport,
    ErrorCurve,
    NonDecayingIntegrandError,
    byparts_convolution_bound,
    duhamel_residual,
    energy_inequality_checks,
    explicit_sup_bound,
    fit_rate,
    identity_checks,
    l2_deviation_bounds,
    l2_time_norm,
    l2_time_norm_quadrature,
    max_reg_checks,
    max_reg_functional,
    remainder_data_checks,
    resolvent_bound_margin,
    run_rate_experiment,
    sup_norm_error,
)
from singlim.verification import _duhamel_convolution, _energy_lhs_curves

from conftest import decay_vector, make_problem, remainders


@pytest.fixture(scope="module")
def grid():
    return standard_grid([0.1, 0.01])


class TestTimeGrid:
    def test_invariants(self, grid):
        assert grid.times[0] == 0.0
        assert np.all(np.diff(grid.times) > 0)
        assert np.all(grid.quad_weights > 0)

    def test_quadrature_exact_for_cubics(self):
        g = TimeGrid(np.array([0.0, 0.3, 1.0, 2.5]))
        vals = g.quad_points**3
        assert g.integrate_values(vals) == pytest.approx(2.5**4 / 4.0, rel=1e-14)

    def test_cumulative_matches_total(self):
        g = TimeGrid(np.linspace(0.0, 2.0, 21))
        vals = np.exp(-g.quad_points)
        cum = g.cumulative_integral(vals)
        assert cum[-1] == pytest.approx(g.integrate_values(vals), rel=1e-14)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))


class TestSupNorm:
    def test_identical_profiles(self, grid):
        pd = make_problem([1.0], 0.1)
        u = exact_solution(pd)
        assert sup_norm_error(u, u, grid) == 0.0

    def test_max_at_zero(self, grid):
        spec = Spectrum(np.array([1.0]))
        decaying = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        zero = decaying.scale(0.0)
        assert sup_norm_error(decaying, zero, grid) == pytest.approx(1.0, rel=1e-14)

    def test_error_scale_tracks_eps(self, grid):
        sups = []
        for eps in (1e-2, 1e-3):
            pd = make_problem([1.0], eps, p=0.0)
            pd = ProblemData(
                pd.spec, eps, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
            )
            sups.append(
                sup_norm_error(
                    exact_solution(pd),
                    parabolic_profile(pd),
                    grid.with_layer_points([eps]),
                )
            )
        assert sups[0] / sups[1] == pytest.approx(10.0, rel=0.15)


class TestL2Norm:
    def test_zero_profile(self, grid):
        spec = Spectrum(np.array([1.0]))
        zero = kernel_profile(spec, np.array([0.0]), 0, 0.0)
        assert l2_time_norm(zero, grid) == 0.0

    def test_exponential(self, grid):
        spec = Spectrum(np.array([1.0]))
        prof = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        assert l2_time_norm(prof, grid) == pytest.approx(0.5, abs=1e-8)

    def test_weighted(self):
        # t^2 e^{-2t} needs a slightly longer tail to clear the decay gate
        long_grid = standard_grid([], t_max=25.0)
        spec = Spectrum(np.array([1.0]))
        prof = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        assert l2_time_norm(prof, long_grid, weight_power=2) == pytest.approx(
            0.25, abs=1e-8
        )

    def test_weighted_divided_difference(self):
        # (e^{-t} - e^{-(1+1e-9)t})/1e-9 is t e^{-t} to 1e-9: t^2 * it squared
        # integrates to 4!/2^5
        long_grid = standard_grid([], t_max=25.0)
        mode = ExpPoly.build([], [((-1.0, -1.0 - 1e-9), 1.0)])
        prof = ProfileFunction(Spectrum(np.array([1.0])), (mode,))
        assert l2_time_norm(prof, long_grid, weight_power=2) == pytest.approx(
            0.75, rel=1e-8
        )

    def test_quadrature_cross_check(self, grid):
        spec = Spectrum(np.array([1.0, 2.0]))
        prof = kernel_profile(spec, np.array([1.0, -0.5]), 0, 0.0)
        analytic = l2_time_norm(prof, grid)
        quadrature = l2_time_norm_quadrature(prof, grid)
        assert quadrature == pytest.approx(analytic, rel=1e-9)

    def test_nondecayed_integrand_rejected(self, grid):
        spec = Spectrum(np.array([0.0]))
        constant = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        with pytest.raises(NonDecayingIntegrandError):
            l2_time_norm(constant, grid)


class TestMaxReg:
    def test_constant_for_n0(self, grid):
        spec = Spectrum(np.array([1.0]))
        f = SpecVector(np.array([1.0]))
        curve = max_reg_functional(spec, f, 0, grid)
        np.testing.assert_allclose(curve, 0.5, atol=1e-10)

    def test_n1_closed_form(self, grid):
        # 1/2 - t e^{-2t} for a unit single mode
        spec = Spectrum(np.array([1.0]))
        f = SpecVector(np.array([1.0]))
        curve = max_reg_functional(spec, f, 1, grid)
        idx = int(np.argmin(np.abs(grid.times - 1.0)))
        t = grid.times[idx]
        assert curve[idx] == pytest.approx(0.5 - t * math.exp(-2 * t), rel=1e-12)

    def test_value_at_zero(self, grid):
        spec = Spectrum(np.array([0.0, 2.0, 5.0]))
        f = SpecVector(np.array([1.0, -1.0, 0.5]))
        for n in (0, 1, 2):
            curve = max_reg_functional(spec, f, n, grid)
            assert curve[0] == pytest.approx(
                np.sum(f.coefficients**2) / 2.0, rel=1e-14
            )

    def test_sums_mode_by_mode(self, grid):
        # report margins of M_n are rounding-sized, so the summation order is
        # pinned: each mode adds its semigroup part, then its dissipation
        spec = Spectrum(np.append(0.0, (np.pi * np.arange(1, 33)) ** 2))
        f = decay_vector(33)
        lam, c2, ts = spec.eigenvalues, f.coefficients**2, grid.times
        for n in (0, 1, 2):
            factor = 2.0**n / math.factorial(n)
            want = np.zeros(ts.shape)
            for i in range(len(spec)):
                want += c2[i] * np.exp(-2.0 * lam[i] * ts) / 2.0
                if lam[i] > 0:
                    moments = power_exp_moment(n, -2.0 * lam[i], ts).real
                    want += factor * lam[i] ** (n + 1) * c2[i] * moments
            got = max_reg_functional(spec, f, n, grid)
            assert got.tobytes() == want.tobytes()

    def test_unsupported_order(self, grid):
        with pytest.raises(ValueError):
            max_reg_functional(
                Spectrum(np.array([1.0])), SpecVector(np.array([1.0])), 3, grid
            )

    def test_check_reports(self, grid):
        spec = Spectrum(np.array([0.0, 1.0, 4.0]))
        f = decay_vector(3)
        reports = max_reg_checks(spec, f, grid)
        assert all(r.passed for r in reports)
        ids = {r.check_id for r in reports}
        assert "maxreg.constant_n0" in ids
        gap_notes = [r for r in reports if "finite_time_gap" in r.check_id]
        assert len(gap_notes) == 2
        assert all(r.margin > 0 for r in gap_notes)  # the gap is real


class TestResolventMargin:
    def test_kernel_vector(self):
        spec = Spectrum(np.array([0.0]))
        f = SpecVector(np.array([2.0]))
        assert resolvent_bound_margin(spec, 0.5, f) == pytest.approx(
            8.0, rel=1e-14
        )

    def test_unit_example(self):
        spec = Spectrum(np.array([1.0]))
        f = SpecVector(np.array([1.0]))
        assert resolvent_bound_margin(spec, 1.0, f) == pytest.approx(0.75, rel=1e-14)

    def test_sweep_nonnegative(self):
        spec = Spectrum(np.array([0.0, 1.0, 9.0, 100.0]))
        f = decay_vector(4)
        for eps in (1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4):
            assert resolvent_bound_margin(spec, eps, f) >= 0.0


class TestIdentitySuite:
    def test_all_pass_three_mode(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        reports = identity_checks(pd, grid.with_layer_points([0.01]), remainders(pd))
        assert all(r.passed for r in reports)
        assert len(reports) == 8

    def test_corrupted_tolerance_fails(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        reports = identity_checks(
            pd, grid.with_layer_points([0.01]), remainders(pd), tol=1e-20
        )
        assert any(not r.passed for r in reports)

    def test_remainder_data_reports(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        reports = remainder_data_checks(pd, remainders(pd))
        assert all(r.passed for r in reports)
        note = next(
            r.note for r in reports if r.check_id == "data.remainder1_initial"
        )
        assert "+2 A^2 J u0" in note


class TestEnergyChecks:
    def test_zero_data_passes(self, grid):
        spec = Spectrum(np.array([1.0, 4.0]))
        zero = SpecVector(np.zeros(2))
        pd = ProblemData(spec, 0.1, zero, zero)
        reports = energy_inequality_checks(pd, grid, remainders=remainders(pd))
        assert all(r.passed for r in reports)

    def test_explicit_constants(self, grid):
        spec = Spectrum(np.array([1.0]))
        one = SpecVector(np.array([1.0]))
        pd = ProblemData(spec, 0.1, one, one)
        reports = {r.check_id: r for r in energy_inequality_checks(pd, grid)}
        primary = reports["energy.primary_constant3"]
        # bound = |A^(1/2)u0|^2 + 3 eps |u1|^2 = 1.3
        assert primary.passed
        assert primary.margin <= 1.3
        halfpower = reports["energy.halfpower_constant_half"]
        assert halfpower.passed

    def test_measured_constants_reported(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        reports = {
            r.check_id: r
            for r in energy_inequality_checks(pd, grid, remainders=remainders(pd))
        }
        for j in (1, 2):
            r = reports[f"energy.remainder{j}_measured"]
            assert r.passed
            assert np.isfinite(r.margin)
            assert "measured" in r.note


    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_curves_together_match_one_at_a_time(self, eps):
        # the primary, half-power and remainder profiles share their rates
        # mode by mode; taken together each curve keeps its own bits
        pd = make_problem(np.append(2.49, (np.pi * np.arange(1, 9)) ** 2), eps)
        profiles = [corrector_primary(pd), corrector_halfpower(pd)]
        profiles += [rem.profile for rem in remainders(pd)]
        ts = standard_grid([eps]).times
        for prof, got in zip(profiles, _energy_lhs_curves(pd, profiles, ts)):
            dp = prof.deriv()
            kinetic = pd.eps * np.sum(dp.sample(ts) ** 2, axis=1)
            potential = np.sum(prof.operator_power(0.5).sample(ts) ** 2, axis=1)
            dissipated = np.zeros(ts.shape)
            for mode in dp.modes:
                dissipated += mode.squared().integral(ts)
            want = kinetic + potential + dissipated
            assert got.tobytes() == want.tobytes()


class TestExplicitSupBound:
    def test_u1_zero_case(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.01, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        report = explicit_sup_bound(pd, grid.with_layer_points([0.01]))
        assert report.passed
        # bound is 0.1, the measured sup is around eps scale
        assert report.margin == pytest.approx(0.09, abs=0.02)

    def test_u0_zero_case(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.05, SpecVector(np.array([0.0])), SpecVector(np.array([1.0]))
        )
        assert explicit_sup_bound(pd, grid.with_layer_points([0.05])).passed

    def test_zero_data(self, grid):
        spec = Spectrum(np.array([1.0]))
        zero = SpecVector(np.array([0.0]))
        pd = ProblemData(spec, 0.1, zero, zero)
        report = explicit_sup_bound(pd, grid)
        assert report.passed


class TestL2Bounds:
    def test_single_mode_bound(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([1.0])), SpecVector(np.array([0.0]))
        )
        reports = l2_deviation_bounds(pd, grid.with_layer_points([0.1]))
        assert len(reports) == 1
        assert reports[0].passed
        # bound = 2 eps^2 = 0.02
        assert reports[0].margin <= 0.02 + 1e-8

    def test_halfpower_range_integral(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([1.0])), SpecVector(np.array([1.0]))
        )
        w1 = SpecVector(np.array([1.0]))
        reports = l2_deviation_bounds(pd, grid.with_layer_points([0.1]), w1=w1)
        by_id = {r.check_id: r for r in reports}
        semi = by_id["bound.l2_semigroup_range_half"]
        assert semi.passed
        # integral is exactly 1/2 against bound 1/2: margin is the slack
        assert semi.margin == pytest.approx(semi.tolerance, rel=1e-2)

    def test_inconsistent_w1_rejected(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.1, SpecVector(np.array([1.0])), SpecVector(np.array([1.0]))
        )
        with pytest.raises(ValueError):
            l2_deviation_bounds(pd, grid, w1=SpecVector(np.array([2.0])))


def _per_interval_convolution(integrand, ts, eps):
    """The Duhamel quadrature one grid interval at a time: the same Gauss
    subpanels and decay recursion, one sample call per interval."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)
    reach = 45.0 * eps
    local = np.zeros((ts.size - 1, len(integrand.modes)))
    for k in range(ts.size - 1):
        t_left, t_right = ts[k], ts[k + 1]
        lo = max(t_left, t_right - reach)
        width = t_right - lo
        if width <= 0:
            continue
        n_sub = min(120, max(1, int(np.ceil(width / (eps / 2.0)))))
        edges = np.linspace(lo, t_right, n_sub + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        kernel = np.exp((nodes - t_right) / eps)
        local[k] = (weights * kernel) @ integrand.sample(nodes)
    convo = np.zeros((ts.size, len(integrand.modes)))
    for k in range(ts.size - 1):
        convo[k + 1] = math.exp(-(ts[k + 1] - ts[k]) / eps) * convo[k] + local[k]
    return convo


class TestDuhamel:
    def test_single_mode_representation(self):
        pd = make_problem([1.0], 0.1, p=0.0)
        reports = duhamel_residual(pd, standard_grid([0.1]), remainders(pd)[1])
        by_id = {r.check_id: r for r in reports}
        assert by_id["duhamel.representation"].passed
        assert by_id["bound.byparts_convolution"].passed

    def test_zero_layer_data(self):
        pd = make_problem([1.0, 4.0], 0.1, il0=True)
        reports = duhamel_residual(pd, standard_grid([0.1]), remainders(pd)[1])
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_batched_quadrature_matches_per_interval(self, eps):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        source = layer_equation_source(pd, remainders(pd)[1])
        integrand = kernel_profile(pd.spec, pd.v1.coefficients, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        ts = standard_grid([eps]).times
        batched = _duhamel_convolution(integrand, ts, eps)
        reference = _per_interval_convolution(integrand, ts, eps)
        assert np.max(np.abs(batched - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_byparts_bound_alone(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        report = byparts_convolution_bound(pd, standard_grid([0.01]))
        assert report.passed
        assert report.margin > 0


class TestRateFit:
    def test_exact_quadratic(self):
        eps = np.array([0.5, 0.1, 0.05, 0.01, 0.005])
        fit = fit_rate(ErrorCurve(eps, 3.0 * eps**2, "syn"))
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_three_halves(self):
        eps = np.array([0.1, 0.01, 0.001])
        fit = fit_rate(ErrorCurve(eps, 0.7 * eps**1.5, "syn"))
        assert fit.slope == pytest.approx(1.5, abs=1e-10)

    def test_noise_floor_exclusion(self):
        eps = np.array([0.1, 0.01, 0.001, 1e-4])
        errors = np.array([1e-2, 1e-4, 1e-15, 1e-16])
        with pytest.raises(ValueError):
            fit_rate(ErrorCurve(eps, errors, "too few"))

    def test_rejects_bad_curve(self):
        with pytest.raises(ValueError):
            ErrorCurve(np.array([0.1, -0.1, 0.01]), np.array([1.0, 1.0, 1.0]), "bad")


class TestRateExperiments:
    def test_first_order_slope(self, grid):
        spec = Spectrum(np.array([0.0, 1.0, 4.0]))
        u0 = decay_vector(3)
        u1 = decay_vector(3)
        eps_list = [10 ** (-1 - 0.5 * k) for k in range(5)]
        _, fit = run_rate_experiment(
            spec, u0, u1, eps_list, "order0_thm11ii", grid
        )
        assert fit.slope >= 0.95
        assert fit.r_squared >= 0.99

    def test_unknown_comparison(self, grid):
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        with pytest.raises(ValueError):
            run_rate_experiment(spec, one, one, [0.1, 0.01, 0.001], "nope", grid)

    def test_cor_requires_compatibility(self, grid):
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        with pytest.raises(ValueError):
            run_rate_experiment(spec, one, one, [0.1, 0.01, 0.001], "cor1", grid)

    def test_comparisons_list_complete(self):
        assert set(COMPARISONS) == {
            "order0_thm11i",
            "order0_thm11ii",
            "order1_theta",
            "order2_mainthm",
            "cor1",
            "cor2",
        }


def test_report_serialization():
    r = CheckReport("x.y", True, 0.5, 1e-8, "note")
    d = r.to_dict()
    assert d == {
        "id": "x.y",
        "pass": True,
        "margin": 0.5,
        "tolerance": 1e-8,
        "note": "note",
    }
