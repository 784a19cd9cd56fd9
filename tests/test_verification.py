import math

import numpy as np
import pytest

from singlim.exppoly import ExpPoly, power_exp_moment
from singlim.profiles import (
    ProblemData,
    ProfileFunction,
    corrector_halfpower,
    corrector_primary,
    derivative_expansion_profile,
    exact_solution,
    kernel_profile,
    layer_equation_source,
    main_expansion_profile,
    parabolic_profile,
    sample_together,
    theta_layer,
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
    inequality_checks,
    l2_deviation_bounds,
    l2_time_norm,
    max_reg_checks,
    max_reg_functional,
    remainder_data_checks,
    resolvent_bound_margin,
    run_rate_experiment,
    squared_norms,
    sup_norm_error,
)
import singlim.exppoly as exppoly
import singlim.verification as verification
from singlim.verification import (
    _dissipation_integral_curve,
    _duhamel_convolution,
    _energy_lhs_curves,
)

from conftest import (
    decay_vector,
    l2_time_norm_quadrature,
    make_problem,
    reference_integral,
    reference_moment,
    remainders,
)


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

    def test_remainders_come_as_a_pair(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.05)
        with pytest.raises(ValueError):
            energy_inequality_checks(pd, grid, remainders=(remainders(pd)[1],))


    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_curves_together_match_one_at_a_time(self, eps):
        # the primary, half-power and remainder profiles share their rates
        # mode by mode; taken together each curve keeps its own bits
        pd = make_problem(np.append(2.49, (np.pi * np.arange(1, 9)) ** 2), eps)
        profiles = [corrector_primary(pd), corrector_halfpower(pd)]
        profiles += list(remainders(pd))
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


_DIRICHLET_32 = (np.pi * np.arange(1, 33)) ** 2


class TestSquaredNorms:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sums_squares_in_mode_order(self, order):
        x = np.asarray(np.random.default_rng(1).standard_normal((50, 33)), order=order)
        want = np.zeros(50)
        for i in range(33):
            want = want + x[:, i] * x[:, i]
        squares = x * x
        assert squared_norms(x).tobytes() == want.tobytes()
        assert x.tobytes() == squares.tobytes()  # squared in place
        assert squared_norms(np.zeros((4, 0))).tobytes() == np.zeros(4).tobytes()


class TestBatchedIntegralCallSites:
    """Each call site takes its exact time integrals of all modes from one
    batched call; the references are the per-mode loops with per-rate
    moments that came before, and the results must keep their bits."""

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_energy_curves(self, eps):
        pd = make_problem(_DIRICHLET_32, eps)
        profiles = [corrector_primary(pd), corrector_halfpower(pd), *remainders(pd)]
        ts = standard_grid([eps]).times
        derivs = [p.deriv() for p in profiles]
        dissipated = [np.zeros(ts.shape) for _ in profiles]
        for modes in zip(*(dp.modes for dp in derivs)):
            for acc, mode in zip(dissipated, modes):
                acc += reference_integral(mode.squared(), ts)
        got = _energy_lhs_curves(pd, profiles, ts)
        for p, dp, integral, curve in zip(profiles, derivs, dissipated, got, strict=True):
            slope, half = sample_together((dp, p.operator_power(0.5)), ts)
            want = pd.eps * np.sum(slope**2, axis=1) + np.sum(half**2, axis=1) + integral
            assert curve.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_l2_time_norm(self, eps):
        pd = make_problem(_DIRICHLET_32, eps)
        grid = standard_grid([eps])
        target = kernel_profile(
            pd.spec, pd.u0.coefficients + eps * pd.u1.coefficients, 0, 0.0
        )
        cases = [(exact_solution(pd), target, 0), (corrector_primary(pd), None, 1)]
        for profile, minus, w in cases:
            diff = profile if minus is None else profile - minus
            weight = ExpPoly.build([(w, 0.0, 1.0)])
            want = np.zeros(1)
            for mode in diff.modes:
                sq = mode.squared()
                if w:
                    sq = sq.multiply(weight)
                want += reference_integral(sq, np.array([grid.t_max]))
            got = l2_time_norm(profile, grid, w, minus=minus)
            assert np.float64(got).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_dissipation_curves(self, eps):
        spec, f = Spectrum(_DIRICHLET_32), decay_vector(32)
        grid = standard_grid([eps])
        lam, c2, ts = spec.eigenvalues, f.coefficients**2, grid.times
        for n in (0, 1, 2):
            factor = 2.0**n / math.factorial(n)
            semigroup, dissipated = np.zeros(ts.shape), np.zeros(ts.shape)
            for i in range(len(spec)):
                semigroup += c2[i] * np.exp(-2.0 * lam[i] * ts) / 2.0
                # the real rate -2 lam, as the curve passes it
                moments = reference_moment(n, -2.0 * lam[i], ts).real
                semigroup += factor * lam[i] ** (n + 1) * c2[i] * moments
                dissipated += factor * lam[i] ** (n + 1) * c2[i] * moments
            got = max_reg_functional(spec, f, n, grid)
            assert got.tobytes() == semigroup.tobytes()
            got = _dissipation_integral_curve(spec, f, n, ts)
            assert got.tobytes() == dissipated.tobytes()

    def test_one_integrate_call_and_series_pass_per_eps(self, grid, monkeypatch):
        pd = make_problem(_DIRICHLET_32[:8], 0.01)
        rem = remainders(pd)
        calls, passes = [], []
        integrate, series = verification.integrate, exppoly._batched_series
        monkeypatch.setattr(
            verification, "integrate", lambda polys, t: calls.append(1) or integrate(polys, t)
        )
        monkeypatch.setattr(
            exppoly, "_batched_series", lambda pairs: passes.append(1) or series(pairs)
        )
        energy_inequality_checks(pd, grid, remainders=rem)
        assert calls == [1]
        assert passes == [1]


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

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    def test_rounding_residue_is_not_an_undecayed_tail(self, eps):
        # the kernel mode of u_eps - e^{-tA}(u0 + eps u1) keeps a constant
        # residue of about one ulp of u0 (the integrand reads 4.9e-32 against
        # a 1.1e-18 peak at eps = 1e-9); the bound holds and must PASS
        pd = make_problem([0.0, 1.0, 4.0], eps)
        (report,) = l2_deviation_bounds(pd, standard_grid([eps]))
        assert report.passed, report.note

    def test_inequality_group_decides_the_halfpower_range(self):
        # u1 with a kernel component is not in the half-power range, and the
        # record says it is skipped; without one, w1 = A^(-1/2) u1 bounds
        # the semigroup integral; a w1 that overflows gives no record
        eps = 0.1
        overflow = ProblemData(
            Spectrum(np.array([1e-320, 1.0])), eps,
            SpecVector(np.array([1.0, 1.0])), SpecVector(np.array([1e150, 0.0])),
        )
        cases = [
            (make_problem([0.0, 1.0, 4.0], eps), "skipped"),
            (make_problem([1.0, 4.0], eps), "semigroup integral"),
            (overflow, None),
        ]
        for pd, note in cases:
            reports = inequality_checks(pd, standard_grid([eps]))
            by_id = {r.check_id: r for r in reports}
            assert len(by_id) == len(reports) == (4 if note is None else 5)
            assert all(r.passed for r in reports)
            record = by_id.get("bound.l2_semigroup_range_half")
            if note is None:
                assert record is None
            else:
                assert record.note.startswith(note)

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
        n_sub = max(1, int(np.ceil(width / (verification._PANEL_EPS * eps))))
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


def _per_mode_convolution(integrand, ts, eps):
    """The Duhamel quadrature with blocks of 8192 nodes sampled one mode at
    a time by ExpPoly.value, each mode's weighted values summed by its own
    reduceat, and the decay recursion into a separate array."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(verification._GAUSS_NODES)
    g = verification._GAUSS_NODES
    reach = 45.0 * eps
    t_right = ts[1:]
    lo = np.maximum(ts[:-1], t_right - reach)
    width = t_right - lo
    n_sub = np.where(
        width > 0, np.maximum(np.ceil(width / (verification._PANEL_EPS * eps)), 1), 0
    ).astype(int)
    with_nodes = np.flatnonzero(n_sub)
    first_node = (np.cumsum(n_sub[with_nodes]) - n_sub[with_nodes]) * g
    blocks = np.split(with_nodes, np.flatnonzero(np.diff(first_node // 8192)) + 1)
    local = np.zeros((ts.size - 1, len(integrand.modes)))
    for ks in blocks:
        counts = n_sub[ks]
        first_sub = np.cumsum(counts) - counts
        k_sub = np.repeat(ks, counts)
        j_sub = np.arange(k_sub.size) - np.repeat(first_sub, counts)
        step = width[k_sub] / n_sub[k_sub]
        left = j_sub * step + lo[k_sub]
        right = np.where(
            j_sub + 1 == n_sub[k_sub], t_right[k_sub], (j_sub + 1) * step + lo[k_sub]
        )
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        weights *= np.exp((nodes - np.repeat(t_right[k_sub], g)) / eps)
        for i, mode in enumerate(integrand.modes):
            local[ks, i] = np.add.reduceat(weights * mode.value(nodes), first_sub * g)
    convo = np.zeros((ts.size, len(integrand.modes)))
    for k in range(ts.size - 1):
        decay = math.exp(-(ts[k + 1] - ts[k]) / eps)
        convo[k + 1] = decay * convo[k] + local[k]
    return convo


class TestDuhamel:
    def test_single_mode_representation(self):
        # the by-parts bound is its own check (the inequalities group)
        pd = make_problem([1.0], 0.1, p=0.0)
        grid = standard_grid([0.1])
        (report,) = duhamel_residual(pd, grid, remainders(pd)[1])
        assert report.check_id == "duhamel.representation" and report.passed
        assert byparts_convolution_bound(pd, grid).passed

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

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_block_sampling_is_the_per_mode_loop(self, eps):
        # dirichlet-32: one sample_together call per block of 2048 nodes,
        # against per-mode value calls on blocks of 8192, bit for bit
        pd = make_problem(_DIRICHLET_32, eps)
        source = layer_equation_source(pd, remainders(pd)[1])
        integrand = kernel_profile(pd.spec, pd.v1.coefficients, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        ts = standard_grid([eps]).times
        got = _duhamel_convolution(integrand, ts, eps)
        assert got.tobytes() == _per_mode_convolution(integrand, ts, eps).tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_quadrature_against_four_times_finer_panels(self, eps, monkeypatch):
        # dirichlet-32 with the default decay data
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        source = layer_equation_source(pd, remainders(pd)[1])
        integrand = kernel_profile(pd.spec, pd.v1.coefficients, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        ts = standard_grid([eps]).times
        convo = _duhamel_convolution(integrand, ts, eps)
        monkeypatch.setattr(verification, "_PANEL_EPS", verification._PANEL_EPS / 4)
        reference = _duhamel_convolution(integrand, ts, eps)
        assert np.max(np.abs(convo - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_byparts_bound_alone(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        report = byparts_convolution_bound(pd, standard_grid([0.01]))
        assert report.passed
        assert report.margin > 0


class TestRateFit:
    def test_exact_quadratic(self):
        eps = np.array([0.5, 0.1, 0.05, 0.01, 0.005])
        fit = fit_rate(ErrorCurve(eps, 3.0 * eps**2))
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_three_halves(self):
        eps = np.array([0.1, 0.01, 0.001])
        fit = fit_rate(ErrorCurve(eps, 0.7 * eps**1.5))
        assert fit.slope == pytest.approx(1.5, abs=1e-10)

    def test_noise_floor_exclusion(self):
        eps = np.array([0.1, 0.01, 0.001, 1e-4])
        errors = np.array([1e-2, 1e-4, 1e-15, 1e-16])
        with pytest.raises(ValueError):
            fit_rate(ErrorCurve(eps, errors))

    def test_rejects_bad_curve(self):
        with pytest.raises(ValueError):
            ErrorCurve(np.array([0.1, -0.1, 0.01]), np.array([1.0, 1.0, 1.0]))


def _comparison_pair(pd: ProblemData, comparison: str):
    """The (reference, candidate) profile pair of a comparison, built alone."""
    u_eps, v = exact_solution(pd), parabolic_profile(pd)
    candidates = {
        "order0_thm11i": lambda: v,
        "order0_thm11ii": lambda: v,
        "order1_theta": lambda: v + theta_layer(pd),
        "order2_mainthm": lambda: main_expansion_profile(pd),
        "cor1": lambda: v - kernel_profile(pd.spec, pd.u0.coefficients, 1, 2.0, pd.eps),
    }
    if comparison == "cor2":
        return u_eps.deriv(), derivative_expansion_profile(pd)
    return u_eps, candidates[comparison]()


class TestRateExperiments:
    def test_first_order_slope(self, grid):
        spec = Spectrum(np.array([0.0, 1.0, 4.0]))
        u0 = decay_vector(3)
        u1 = decay_vector(3)
        eps_list = [10 ** (-1 - 0.5 * k) for k in range(5)]
        results = run_rate_experiment(
            spec, u0, u1, eps_list, ["order0_thm11ii"], grid
        )
        _, fit = results["order0_thm11ii"]
        assert fit.slope >= 0.95
        assert fit.r_squared >= 0.99

    def test_unknown_comparison(self, grid):
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        with pytest.raises(ValueError):
            run_rate_experiment(spec, one, one, [0.1, 0.01, 0.001], ["nope"], grid)

    def test_cor_requires_compatibility(self, grid):
        # the precondition fails cor1 and cor2 alone; the sweep goes on
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        results = run_rate_experiment(
            spec, one, one, [0.1, 0.01, 0.001], COMPARISONS, grid
        )
        for comparison in ("cor1", "cor2"):
            assert isinstance(results[comparison], ValueError)
            assert "u1 + A u0 = 0" in str(results[comparison])
        for comparison in COMPARISONS[:4]:
            curve, fit = results[comparison]
            assert isinstance(curve, ErrorCurve) and np.isfinite(fit.slope)

    @pytest.mark.parametrize("lams", [[0.0, 1.0, 4.0], [(k * math.pi) ** 2 for k in range(33)]])
    def test_sweep_matches_per_comparison_errors(self, grid, lams):
        spec = Spectrum(np.array(lams))
        u0 = decay_vector(len(lams))
        u1 = SpecVector(-spec.eigenvalues * u0.coefficients)
        eps_list = [0.1, 0.02, 0.004, 0.0008]
        results = run_rate_experiment(spec, u0, u1, eps_list, COMPARISONS, grid)
        for comparison in COMPARISONS:
            curve, _ = results[comparison]
            want = [
                sup_norm_error(
                    *_comparison_pair(ProblemData(spec, eps, u0, u1), comparison),
                    grid.with_layer_points([eps]),
                )
                for eps in eps_list
            ]
            assert curve.errors.tolist() == want, comparison
            assert curve.epsilons.tolist() == eps_list

    def test_one_fit_per_distinct_curve(self, grid, monkeypatch):
        calls = []

        def counted(curve):
            calls.append(curve)
            return fit_rate(curve)

        monkeypatch.setattr(verification, "fit_rate", counted)
        pd = make_problem([0.0, 1.0, 4.0], 0.1, il0=True)
        results = run_rate_experiment(
            pd.spec, pd.u0, pd.u1, [0.1, 0.01, 0.001], COMPARISONS, grid
        )
        assert len(calls) == len(COMPARISONS) - 1
        assert results["order0_thm11i"] is results["order0_thm11ii"]

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
