import collections
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from mpmath import mp

from singlim.exppoly import ExpPoly, integrate
from singlim.profiles import (
    ProblemData,
    ProfileFunction,
    kernel_profile,
    norms_together,
    sample_together,
    squared_integrals,
)
from singlim.spectral import Spectrum, sample_norms, squared_norms
from singlim.timegrid import TimeGrid, standard_grid
from singlim.verification import (
    COMPARISONS,
    TOLERANCES,
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
    max_reg_checks,
    max_reg_functional,
    rate_errors,
    remainder_data_checks,
    resolvent_bound,
    run_rate_experiment,
    sup_norm_error,
)
import singlim.exppoly as exppoly
import singlim.profiles as profiles_module
import singlim.timegrid as timegrid
import singlim.verification as verification
from singlim.verification import _duhamel_convolution, _energy_lhs_curves

from conftest import (
    decay_vector,
    l2_time_norm_quadrature,
    make_problem,
    reference_integral,
    reference_moment,
    sample,
)


@pytest.fixture(scope="module")
def grid():
    return standard_grid([0.1, 0.01])


class TestTimeGrid:
    def test_invariants(self, grid):
        assert grid.times[0] == 0.0
        assert np.all(np.diff(grid.times) > 0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))

    def test_distinct_sorted_is_np_unique_for_finite_times(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = np.round(rng.normal(size=int(rng.integers(1, 40))), 1)
            x = np.concatenate([x, x[:5], [0.0, -0.0]])
            assert timegrid._distinct_sorted(x).tobytes() == np.unique(x).tobytes()


class TestSupNorm:
    def test_identical_profiles(self, grid):
        pd = make_problem([1.0], 0.1)
        u = pd.solution
        assert sup_norm_error(u, u, grid.times) == 0.0

    def test_max_at_zero(self, grid):
        spec = Spectrum(np.array([1.0]))
        decaying = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        zero = decaying.scale(0.0)
        assert sup_norm_error(decaying, zero, grid.times) == pytest.approx(1.0, rel=1e-14)

    def test_error_scale_tracks_eps(self, grid):
        sups = []
        for eps in (1e-2, 1e-3):
            pd = make_problem([1.0], eps, p=0.0)
            pd = ProblemData(
                pd.spec, eps, np.array([1.0]), np.array([0.0])
            )
            sups.append(
                sup_norm_error(
                    pd.solution,
                    pd.parabolic,
                    standard_grid([0.1, 0.01, eps]).times,
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
        # int_0^25 t^2 e^{-2t}, the weight max_reg_functional's n = 2 uses
        spec = Spectrum(np.array([1.0]))
        prof = kernel_profile(spec, np.array([1.0]), 0, 0.0)
        ((got,),) = squared_integrals((prof,), np.array([25.0]), 2)
        assert got == pytest.approx(0.25, abs=1e-8)

    def test_weighted_divided_difference(self):
        # (e^{-t} - e^{-(1+1e-9)t})/1e-9 is t e^{-t} to 1e-9: t^2 * it squared
        # integrates to 4!/2^5
        mode = ExpPoly.build([], [((-1.0, -1.0 - 1e-9), 1.0)])
        prof = ProfileFunction(Spectrum(np.array([1.0])), (mode,))
        ((got,),) = squared_integrals((prof,), np.array([25.0]), 2)
        assert got == pytest.approx(0.75, rel=1e-8)

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
        f = np.array([1.0])
        curve, _ = max_reg_functional(spec, f, 0, grid)
        np.testing.assert_allclose(curve, 0.5, atol=1e-10)

    def test_n1_closed_form(self, grid):
        # 1/2 - t e^{-2t} for a unit single mode
        spec = Spectrum(np.array([1.0]))
        f = np.array([1.0])
        curve, _ = max_reg_functional(spec, f, 1, grid)
        idx = int(np.argmin(np.abs(grid.times - 1.0)))
        t = grid.times[idx]
        assert curve[idx] == pytest.approx(0.5 - t * math.exp(-2 * t), rel=1e-12)

    def test_value_at_zero(self, grid):
        spec = Spectrum(np.array([0.0, 2.0, 5.0]))
        f = np.array([1.0, -1.0, 0.5])
        for n in (0, 1, 2):
            curve, dissipated = max_reg_functional(spec, f, n, grid)
            assert dissipated[0] == 0.0
            assert curve[0] == pytest.approx(
                np.sum(f**2) / 2.0, rel=1e-14
            )

    def test_sums_mode_by_mode(self, grid):
        # the reference adds c_i^2 e^{-2 lam_i t}/2 and (2^n/n!) lam_i^{n+1}
        # c_i^2 times the moment of each mode in turn, with a kernel mode
        spec = Spectrum(np.append(0.0, (np.pi * np.arange(1, 33)) ** 2))
        f = decay_vector(33)
        lam, c2, ts = spec.eigenvalues, f**2, grid.times
        atol = 1e-15 * max(1.0, float(np.sum(c2)))
        for n in (0, 1, 2):
            factor = 2.0**n / math.factorial(n)
            want, want_dissipated = np.zeros(ts.shape), np.zeros(ts.shape)
            for i in range(len(spec)):
                want += c2[i] * np.exp(-2.0 * lam[i] * ts) / 2.0
                if lam[i] > 0:
                    moments = reference_moment(n, -2.0 * lam[i], ts).real
                    want += factor * lam[i] ** (n + 1) * c2[i] * moments
                    want_dissipated += factor * lam[i] ** (n + 1) * c2[i] * moments
            got, dissipated = max_reg_functional(spec, f, n, grid)
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            np.testing.assert_allclose(dissipated, want_dissipated, rtol=0, atol=atol)

    def test_unsupported_order(self, grid):
        with pytest.raises(ValueError):
            max_reg_functional(
                Spectrum(np.array([1.0])), np.array([1.0]), 3, grid
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
        f = np.array([2.0])
        report = resolvent_bound(spec, 0.5, f)
        assert report.margin == pytest.approx(8.0, rel=1e-14)
        assert report.passed and report.tolerance == 0.0

    def test_unit_example(self):
        spec = Spectrum(np.array([1.0]))
        f = np.array([1.0])
        assert resolvent_bound(spec, 1.0, f).margin == pytest.approx(0.75, rel=1e-14)

    def test_sweep_nonnegative(self):
        spec = Spectrum(np.array([0.0, 1.0, 9.0, 100.0]))
        f = decay_vector(4)
        for eps in (1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4):
            report = resolvent_bound(spec, eps, f)
            assert report.passed and report.margin >= 0.0


class TestIdentitySuite:
    def test_all_pass_three_mode(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        reports = identity_checks(pd, grid)
        assert all(r.passed for r in reports)
        assert len(reports) == 8

    def test_corrupted_tolerance_fails(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        reports = identity_checks(pd, grid, dict(TOLERANCES, identity=1e-20))
        assert any(not r.passed for r in reports)

    def test_remainder_data_reports(self, grid):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        reports = remainder_data_checks(pd, grid)
        assert all(r.passed for r in reports)
        note = next(
            r.note for r in reports if r.check_id == "data.remainder1_initial"
        )
        assert "+2 A^2 J u0" in note


class TestEnergyChecks:
    def test_zero_data_passes(self, grid):
        spec = Spectrum(np.array([1.0, 4.0]))
        zero = np.zeros(2)
        pd = ProblemData(spec, 0.1, zero, zero)
        reports = energy_inequality_checks(pd, grid)
        assert all(r.passed for r in reports)

    def test_explicit_constants(self, grid):
        spec = Spectrum(np.array([1.0]))
        one = np.array([1.0])
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
            for r in energy_inequality_checks(pd, grid)
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
        profiles = [pd.corrector_primary, pd.corrector_halfpower]
        profiles += list(pd.remainders)
        ts = standard_grid([eps]).times
        for prof, got in zip(profiles, _energy_lhs_curves(pd, profiles, ts)):
            dp = prof.deriv()
            kinetic = pd.eps * np.sum(sample(dp, ts) ** 2, axis=1)
            potential = np.sum(sample(prof.operator_power(0.5), ts) ** 2, axis=1)
            dissipated = np.zeros(ts.shape)
            for mode in dp.modes:
                dissipated += next(integrate((mode.squared(),), ts))
            want = kinetic + potential + dissipated
            assert got.tobytes() == want.tobytes()


_DIRICHLET_32 = (np.pi * np.arange(1, 33)) ** 2
_NEUMANN_33 = (np.pi * np.arange(0, 33)) ** 2


class _Once(dict):
    """A table dict that fails on a second evaluation of a key."""

    def __setitem__(self, key, value):
        assert key not in self, f"{key} evaluated twice"
        super().__setitem__(key, value)


class TestSharedEvaluationTable:
    """The checks of one problem sample its grid through one evaluation
    table (ProblemData.sample_times); the Duhamel nodes are not kept."""

    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_each_grid_value_is_evaluated_once_per_problem(self, eps, monkeypatch):
        pd = make_problem(_DIRICHLET_32, eps)
        grid = standard_grid([eps])
        table = pd.sample_times(grid.times)
        table.exps, table.powers, table.diffs = _Once(), _Once(), _Once()
        tables = []  # the table of every accumulate call of sample_together
        accumulate = profiles_module.accumulate

        def recorded(polys, times, rows):
            tables.append(times)
            return accumulate(polys, times, rows)

        monkeypatch.setattr(profiles_module, "accumulate", recorded)
        identity_checks(pd, grid)
        energy_inequality_checks(pd, grid)
        explicit_sup_bound(pd, grid)
        duhamel_residual(pd, grid)
        shared = [t for t in tables if t is table]
        # the identity rows in one pass, 4 energy samples, the sup bound and
        # the closed form of the Duhamel check, each over 32 modes
        assert len(shared) == 7 * 32
        assert table.exps and table.powers and (table.diffs or eps == 0.1)
        # every other table is a Duhamel node block's, used by its one call
        others = [t for t in tables if t is not table]
        assert others
        assert all(t.t.base is not grid.times for t in others)
        counts = collections.Counter(map(id, others))
        assert set(counts.values()) == {32}


class TestIdentityGapsInOnePass:
    """identity_checks takes every row's gap in one norms_together pass,
    with the bits sup_norm_error gives that row alone."""

    @staticmethod
    def _gaps(pd, grid, monkeypatch) -> dict:
        found = {}
        at_most = verification._at_most

        def recorded(check_id, value, *rest):
            found[check_id] = value
            return at_most(check_id, value, *rest)

        monkeypatch.setattr(verification, "_at_most", recorded)
        identity_checks(pd, grid)
        return found

    @staticmethod
    def _assert_per_row(pd, grid, gaps):
        rows = verification._identity_rows(pd)
        assert list(gaps) == [check_id for check_id, _, _, _ in rows]
        for check_id, a, b, _ in rows:
            alone = sup_norm_error(a, b, grid.times)  # a table of its own
            assert np.float64(gaps[check_id]).tobytes() == np.float64(alone).tobytes()

    @pytest.mark.parametrize("lams", [[0.0, 1.0, 4.0], _DIRICHLET_32, _NEUMANN_33],
                             ids=["three-mode", "dirichlet-32", "neumann-33"])
    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_gaps_are_the_per_row_sup_norm_errors(self, lams, eps, monkeypatch):
        pd, grid = make_problem(lams, eps), standard_grid([eps])
        self._assert_per_row(pd, grid, self._gaps(pd, grid, monkeypatch))

    @pytest.mark.parametrize("lams, u0, u1, eps", [
        # rounding gaps near 1e184 square to inf; the superposition gap is 0
        ([1.0, 4.0], [1e200, 1e200], [1e200, -1e200], 0.1),
        # powers of the eigenvalue overflow, and two gaps read NaN
        ([1e250, 1.0], [1.0, 1.0], [0.0, 0.0], 0.5),
    ], ids=["1e200-data", "1e250-eigenvalue"])
    def test_overflowing_sums_take_the_sample_norms_fallback(
        self, lams, u0, u1, eps, monkeypatch
    ):
        # the whole profiles are sampled once, for sample_norms to rescale
        # the times whose sums overflow; every finite sum keeps its bits
        pd = ProblemData(Spectrum(np.array(lams)), eps, np.array(u0), np.array(u1))
        grid = standard_grid([eps])
        whole = []
        together = profiles_module.sample_together
        monkeypatch.setattr(profiles_module, "sample_together",
                            lambda profiles, ts: whole.append(ts) or together(profiles, ts))
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = self._gaps(pd, grid, monkeypatch)
            assert len(whole) == 1 and whole[0] is pd.sample_times(grid.times)
            self._assert_per_row(pd, grid, gaps)


class TestL2TailOnTheProblemsTable:
    """l2_time_norm tests its tail on grid.times, through the problem's
    evaluation table when l2_deviation_bounds calls it."""

    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_same_value_with_and_without_the_table(self, eps):
        pd, grid = make_problem(_DIRICHLET_32, eps), standard_grid([eps])
        table = pd.sample_times(grid.times)
        target = kernel_profile(pd.spec, pd.u0 + eps * pd.u1, 0, 0.0)
        for profile, minus in ((pd.solution, target),
                               (kernel_profile(pd.spec, pd.u1, 0, 0.0), None)):
            alone = l2_time_norm(profile, grid, minus)
            shared = l2_time_norm(profile, grid, minus, table)
            assert np.float64(alone).tobytes() == np.float64(shared).tobytes()

    def test_a_nondecaying_integrand_still_raises(self):
        pd, grid = make_problem([0.0, 1.0], 0.1), standard_grid([0.1])
        constant = kernel_profile(pd.spec, pd.u0, 0, 0.0)  # the kernel mode stays
        for times in (None, pd.sample_times(grid.times)):
            with pytest.raises(NonDecayingIntegrandError):
                l2_time_norm(constant, grid, times=times)

    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_the_bounds_sample_only_values_the_identities_made(self, eps, monkeypatch):
        pd, grid = make_problem(_DIRICHLET_32, eps), standard_grid([eps])
        identity_checks(pd, grid)
        table = pd.sample_times(grid.times)
        kept = [dict(table), dict(table.exps), dict(table.powers), dict(table.diffs)]
        tables = []
        accumulate = profiles_module.accumulate
        monkeypatch.setattr(profiles_module, "accumulate",
                            lambda polys, times, rows: tables.append(times)
                            or accumulate(polys, times, rows))
        reports = l2_deviation_bounds(pd, grid)
        assert [r.passed for r in reports] == [True, True]
        # both integrands on the problem's table, which gains no entry
        assert len(tables) == 2 * 32 and all(t is table for t in tables)
        assert [dict(table), table.exps, table.powers, table.diffs] == kept


class TestSquaredNorms:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sums_squares_in_mode_order(self, order):
        x = np.asarray(np.random.default_rng(1).standard_normal((50, 33)), order=order)
        want = np.zeros(50)
        for i in range(33):
            want = want + x[:, i] * x[:, i]
        before = x.tobytes()
        assert squared_norms(x).tobytes() == want.tobytes()
        assert x.tobytes() == before  # the samples are left as they are
        assert squared_norms(np.zeros((4, 0))).tobytes() == np.zeros(4).tobytes()


def _sup_norm(samples):
    """max over times of |x(t)| of (n_times, n_modes) samples: the sup norm
    that norms_together reduces mode by mode, with the same bits."""
    return float(np.max(sample_norms(samples)))


class TestSupNormOfSamples:
    def test_plain_sums_keep_their_bits(self):
        x = np.random.default_rng(2).standard_normal((40, 33)) * 1e150
        want = float(np.max(np.sqrt(squared_norms(x.copy()))))
        assert _sup_norm(x) == want

    def test_overflowing_sum_of_finite_samples_is_finite(self):
        # the squares of 1e200 overflow; the norm of each row does not
        x = np.array([[1e200, 1e200], [3e200, 4e200], [1.0, 2.0]])
        assert _sup_norm(x) == pytest.approx(5e200, rel=1e-15)

    def test_only_overflowing_rows_are_rescaled(self):
        # a row large enough to be inspected whose sum stays finite keeps
        # its plain bits
        x = np.array([[1.1e154, 3e153]])
        assert _sup_norm(x) == math.sqrt(1.1e154 * 1.1e154 + 3e153 * 3e153)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_samples_stay_nonfinite(self, bad):
        x = np.array([[1e200, bad], [1.0, 0.0]])
        got = _sup_norm(x)
        assert math.isinf(got) if bad == np.inf else math.isnan(got)


class TestBatchedIntegralCallSites:
    """Each call site takes its exact time integrals of all modes from one
    batched call; the references are the per-mode loops with per-rate
    moments that came before, and the results must keep their bits."""

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_energy_curves(self, eps):
        pd = make_problem(_DIRICHLET_32, eps)
        profiles = [pd.corrector_primary, pd.corrector_halfpower, *pd.remainders]
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
            pd.spec, pd.u0 + eps * pd.u1, 0, 0.0
        )
        end = np.array([grid.t_max])
        diff = pd.solution - target
        want = np.zeros(1)
        for mode in diff.modes:
            want += reference_integral(mode.squared(), end)
        got = l2_time_norm(pd.solution, grid, minus=target)
        assert np.float64(got).tobytes() == want[0].tobytes()
        # weighted by t, as the order-1 dissipation functional integrates
        weight = ExpPoly.build([(1, 0.0, 1.0)])
        want = np.zeros(1)
        for mode in pd.corrector_primary.modes:
            want += reference_integral(mode.squared().multiply(weight), end)
        (got,) = squared_integrals((pd.corrector_primary,), end, 1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_dissipation_curves(self, eps):
        # the dissipation is the t^n-weighted squared integral of the profile
        # sqrt(2^n/n!) A^{(n+1)/2} e^{-tA} f, added mode by mode; report
        # margins of M_n are rounding-sized, so its bits are pinned
        spec, f = Spectrum(_DIRICHLET_32), decay_vector(32)
        grid = standard_grid([eps])
        lam, c, ts = spec.eigenvalues, f, grid.times
        for n in (0, 1, 2):
            weight = ExpPoly.build([(n, 0.0, 1.0)])
            scale = math.sqrt(2.0**n / math.factorial(n))
            dissipated = np.zeros(ts.shape)
            for i in range(len(spec)):
                mode = ExpPoly.build([(0, -lam[i], scale * lam[i] ** ((n + 1) / 2) * c[i])])
                square = mode.squared().multiply(weight) if n else mode.squared()
                dissipated += reference_integral(square, ts)
            semigroup = np.zeros(ts.shape)
            for i in range(len(spec)):
                semigroup += (c[i] * np.exp(-lam[i] * ts)) ** 2
            got, got_dissipated = max_reg_functional(spec, f, n, grid)
            assert got_dissipated.tobytes() == dissipated.tobytes()
            np.testing.assert_allclose(got, semigroup / 2.0 + dissipated, rtol=1e-14, atol=0)

    def test_one_integrate_call_and_series_pass_per_eps(self, grid, monkeypatch):
        pd = make_problem(_DIRICHLET_32[:8], 0.01)
        calls, passes = [], []
        integrate, series = profiles_module.integrate, exppoly._batched_series
        monkeypatch.setattr(
            profiles_module, "integrate",
            lambda polys, t: calls.append(1) or integrate(polys, t),
        )
        monkeypatch.setattr(
            exppoly, "_batched_series", lambda pairs: passes.append(1) or series(pairs)
        )
        energy_inequality_checks(pd, grid)
        assert calls == [1]
        assert passes == [1]

    def test_series_pass_works_in_place(self, monkeypatch):
        # dirichlet-32 at eps 0.1: the series of the energy integrals peaks
        # at 6.58 times the bytes it returns under tracemalloc, and at 7.15
        # when each step made new arrays and compacted them
        pd = make_problem(_DIRICHLET_32, 0.1)
        batches, series = [], exppoly._batched_series
        monkeypatch.setattr(
            exppoly, "_batched_series", lambda pairs: batches.append(pairs) or series(pairs)
        )
        energy_inequality_checks(pd, standard_grid([0.1]))
        (pairs,) = batches
        tracemalloc.start()
        try:
            out = series(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.7 * sum(values.nbytes for values in out)


class TestExplicitSupBound:
    def test_u1_zero_case(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.01, np.array([1.0]), np.array([0.0])
        )
        report = explicit_sup_bound(pd, grid)
        assert report.passed
        # bound is 0.1, the measured sup is around eps scale
        assert report.margin == pytest.approx(0.09, abs=0.02)

    def test_u0_zero_case(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.05, np.array([0.0]), np.array([1.0])
        )
        assert explicit_sup_bound(pd, standard_grid([0.1, 0.01, 0.05])).passed

    def test_zero_data(self, grid):
        spec = Spectrum(np.array([1.0]))
        zero = np.array([0.0])
        pd = ProblemData(spec, 0.1, zero, zero)
        report = explicit_sup_bound(pd, grid)
        assert report.passed


class TestL2Bounds:
    def test_single_mode_bound(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.1, np.array([1.0]), np.array([0.0])
        )
        by_id = {r.check_id: r for r in l2_deviation_bounds(pd, grid)}
        report = by_id["bound.l2_deviation_constants_2_7"]
        assert report.passed
        # bound = 2 eps^2 = 0.02
        assert report.margin <= 0.02 + 1e-8

    def test_halfpower_range_integral(self, grid):
        spec = Spectrum(np.array([1.0]))
        pd = ProblemData(
            spec, 0.1, np.array([1.0]), np.array([1.0])
        )
        reports = l2_deviation_bounds(pd, grid)
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
        by_id = {r.check_id: r for r in l2_deviation_bounds(pd, standard_grid([eps]))}
        report = by_id["bound.l2_deviation_constants_2_7"]
        assert report.passed, report.note

    def test_inequality_group_decides_the_halfpower_range(self):
        # u1 with a kernel component is not in the half-power range, and the
        # record says it is skipped; without one, w1 = A^(-1/2) u1 bounds
        # the semigroup integral; a w1 that overflows gives no record
        eps = 0.1
        overflow = ProblemData(
            Spectrum(np.array([1e-320, 1.0])), eps,
            np.array([1.0, 1.0]), np.array([1e150, 0.0]),
        )
        cases = [
            (make_problem([0.0, 1.0, 4.0], eps), "skipped"),
            (make_problem([1.0, 4.0], eps), "semigroup integral"),
            (overflow, None),
        ]
        for pd, note in cases:
            reports = l2_deviation_bounds(pd, standard_grid([eps]))
            by_id = {r.check_id: r for r in reports}
            assert len(by_id) == len(reports) == (1 if note is None else 2)
            assert all(r.passed for r in reports)
            record = by_id.get("bound.l2_semigroup_range_half")
            if note is None:
                assert record is None
            else:
                assert record.note.startswith(note)


def _per_interval_convolution(integrand, ts, eps):
    """The Duhamel quadrature one grid interval at a time: the same Gauss
    subpanels and decay recursion, one sample call per interval."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)
    reach = 45.0 * eps
    local = np.zeros((ts.size - 1, len(integrand.modes)))
    for k in range(ts.size - 1):
        t_right = ts[k + 1]
        width = min(t_right - ts[k], reach)
        if width <= 0:
            continue
        n_sub = max(1, int(np.ceil(width / (verification._PANEL_EPS * eps))))
        edges = np.linspace(-width, 0.0, n_sub + 1)  # offsets from t_right
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        offsets = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        kernel = np.exp(offsets / eps)
        local[k] = (weights * kernel) @ sample(integrand, t_right + offsets)
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
    width = np.minimum(np.diff(ts), reach)
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
        span = width[k_sub]
        step = span / n_sub[k_sub]
        left = j_sub * step - span
        right = np.where(j_sub + 1 == n_sub[k_sub], 0.0, (j_sub + 1) * step - span)
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        offsets = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        weights *= np.exp(offsets / eps)
        nodes = np.repeat(t_right[k_sub], g) + offsets
        for i, mode in enumerate(integrand.modes):
            local[ks, i] = np.add.reduceat(weights * mode.value(nodes), first_sub * g)
    convo = np.zeros((ts.size, len(integrand.modes)))
    for k in range(ts.size - 1):
        decay = math.exp(-(ts[k + 1] - ts[k]) / eps)
        convo[k + 1] = decay * convo[k] + local[k]
    return convo


class TestDuhamel:
    def test_v1_flow_is_built_once_per_eps(self, grid, monkeypatch):
        # the identity and Duhamel groups share the problem's e^{-tA} v1
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        built, kernel = [], profiles_module.kernel_profile

        def counted(spec, coeffs, *args):
            built.extend([args] if coeffs is pd.v1 else [])
            return kernel(spec, coeffs, *args)

        monkeypatch.setattr(profiles_module, "kernel_profile", counted)
        monkeypatch.setattr(verification, "kernel_profile", counted)
        identity_checks(pd, grid)
        duhamel_residual(pd, grid)
        assert built == [(0, 0.0)]

    def test_gauss_legendre_rule_is_leggauss_bit_for_bit(self):
        x, w = np.polynomial.legendre.leggauss(verification._GAUSS_NODES)
        assert verification._GL_NODES.tobytes() == x.tobytes()
        assert verification._GL_WEIGHTS.tobytes() == w.tobytes()

    def test_single_mode_representation(self):
        # the by-parts bound is its own check (the inequalities group)
        pd = make_problem([1.0], 0.1, p=0.0)
        grid = standard_grid([0.1])
        (report,) = duhamel_residual(pd, grid)
        assert report.check_id == "duhamel.representation" and report.passed
        assert byparts_convolution_bound(pd, grid).passed

    def test_zero_layer_data(self):
        pd = make_problem([1.0, 4.0], 0.1, il0=True)
        reports = duhamel_residual(pd, standard_grid([0.1]))
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_batched_quadrature_matches_per_interval(self, eps):
        pd = make_problem([0.0, 1.0, 4.0], eps)
        source = pd.layer_source
        integrand = kernel_profile(pd.spec, pd.v1, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        ts = standard_grid([eps]).times
        batched = _duhamel_convolution(integrand, ts, eps)
        reference = _per_interval_convolution(integrand, ts, eps)
        assert np.max(np.abs(batched - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_block_sampling_is_the_per_mode_loop(self, eps):
        # dirichlet-32: blocks of 8192 nodes reduced one mode at a time by
        # segment_sums, against per-mode value calls, bit for bit
        pd = make_problem(_DIRICHLET_32, eps)
        source = pd.layer_source
        integrand = kernel_profile(pd.spec, pd.v1, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        ts = standard_grid([eps]).times
        got = _duhamel_convolution(integrand, ts, eps)
        assert got.tobytes() == _per_mode_convolution(integrand, ts, eps).tobytes()

    def test_block_size_leaves_the_bits(self, monkeypatch):
        eps = 0.001
        pd = make_problem(_DIRICHLET_32, eps)
        integrand = pd.v1_flow + pd.layer_source.scale(math.sqrt(eps))
        ts = standard_grid([eps]).times
        got = []
        for nodes in (1024, 8192, 16384):
            monkeypatch.setattr(verification, "_DUHAMEL_BLOCK_NODES", nodes)
            got.append(_duhamel_convolution(integrand, ts, eps).tobytes())
        assert got[0] == got[1] == got[2]

    def test_peak_memory_of_one_quadrature(self):
        # dirichlet-32 at eps 0.001: each block is reduced one mode at a
        # time, so the peak is the result and one row's working arrays
        # (2.44 MB under tracemalloc; rows of all of an eps's nodes peak
        # at 9.1 MB)
        eps = 0.001
        pd = make_problem(_DIRICHLET_32, eps)
        integrand = pd.v1_flow + pd.layer_source.scale(math.sqrt(eps))
        ts = standard_grid([eps]).times
        tracemalloc.start()
        try:
            _duhamel_convolution(integrand, ts, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_panel_width_keeps_the_rule_at_rounding_level(self):
        # the widest subpanel, scaled to [-a, a]: the rule integrates e^x to
        # rounding level there (at a = 3.5 it is already 1.1e-14 off)
        a = verification._PANEL_EPS / 2
        rule = a * np.sum(verification._GL_WEIGHTS * np.exp(a * verification._GL_NODES))
        assert abs(rule - 2 * math.sinh(a)) <= 1.5e-15 * 2 * math.sinh(a)

    @pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6, 1e-9])
    def test_convolution_against_50_digit_closed_form(self, eps):
        # int_0^t e^{(s-t)/eps} e^{-lam s} ds, one mode at a time, on the full
        # grid, whose layer points keep the peak near t = eps
        ts = standard_grid([eps]).times
        for lam in (0.0, 1.0, 1e4, (1 + 1e-7) / eps):
            one = kernel_profile(Spectrum(np.array([lam])), np.array([1.0]), 0, 0.0)
            got = _duhamel_convolution(one, ts, eps)[:, 0]
            with mp.workdps(50):
                rate = 1 / mp.mpf(eps) - mp.mpf(lam)
                reference = np.array([
                    float((mp.exp(-mp.mpf(lam) * t) - mp.exp(-mp.mpf(t) / eps)) / rate)
                    for t in ts
                ])
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(got - reference)) <= 2e-15 * scale, lam

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001, 1e-6, 1e-9])
    def test_quadrature_against_four_times_finer_panels(self, eps, monkeypatch):
        # dirichlet-32 with the default decay data; below eps = 1e-3 a short
        # grid, since each interval then costs the same 8 panels
        pd = make_problem((np.pi * np.arange(1, 33)) ** 2, eps)
        source = pd.layer_source
        integrand = kernel_profile(pd.spec, pd.v1, 0, 0.0) + source.scale(
            math.sqrt(eps)
        )
        short = {"t_max": 1.0, "linear_count": 100, "log_count": 50}
        ts = standard_grid([eps], **(short if eps < 1e-3 else {})).times
        convo = _duhamel_convolution(integrand, ts, eps)
        monkeypatch.setattr(verification, "_PANEL_EPS", verification._PANEL_EPS / 4)
        reference = _duhamel_convolution(integrand, ts, eps)
        assert np.max(np.abs(convo - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_byparts_bound_alone(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.01)
        report = byparts_convolution_bound(pd, standard_grid([0.01]))
        assert report.passed
        assert report.margin > 0

    def test_byparts_peak_is_below_one_wide_array(self):
        # dirichlet-32: the convolution is reduced to its norms mode by mode,
        # so no (n_times, n_modes) array is made (stacking them peaked at 4.1)
        pd = make_problem(_DIRICHLET_32, 0.01)
        grid = standard_grid([0.01])
        wide = grid.times.size * len(pd.spec) * 8
        tracemalloc.start()
        try:
            report = byparts_convolution_bound(pd, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < wide


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
    u_eps, v = pd.solution, pd.parabolic
    candidates = {
        "order0_thm11i": lambda: v,
        "order0_thm11ii": lambda: v,
        "order1_theta": lambda: v + pd.theta,
        "order2_mainthm": lambda: pd.main_expansion,
        "cor1": lambda: v - kernel_profile(pd.spec, pd.u0, 1, 2.0, pd.eps),
    }
    if comparison == "cor2":
        return u_eps.deriv(), pd.derivative_expansion
    return u_eps, candidates[comparison]()


def _sweep(spec, u0, u1, eps_list, comparisons):
    """The rate sweep over eps_list, each eps's errors on standard_grid(eps_list)."""
    ts = standard_grid(eps_list).times
    per_eps = [
        (eps, rate_errors(ProblemData(spec, eps, u0, u1), comparisons, ts))
        for eps in eps_list
    ]
    return run_rate_experiment(per_eps, comparisons)


class TestRateExperiments:
    def test_first_order_slope(self):
        spec = Spectrum(np.array([0.0, 1.0, 4.0]))
        u0 = decay_vector(3)
        u1 = decay_vector(3)
        eps_list = [10 ** (-1 - 0.5 * k) for k in range(5)]
        results = _sweep(spec, u0, u1, eps_list, ["order0_thm11ii"])
        _, fit = results["order0_thm11ii"]
        assert fit.slope >= 0.95
        assert fit.r_squared >= 0.99

    def test_unknown_comparison(self):
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        with pytest.raises(ValueError):
            _sweep(spec, one, one, [0.1, 0.01, 0.001], ["nope"])

    def test_cor_requires_compatibility(self):
        # the precondition fails cor1 and cor2 alone; the sweep goes on
        spec = Spectrum(np.array([1.0]))
        one = decay_vector(1)
        results = _sweep(spec, one, one, [0.1, 0.01, 0.001], COMPARISONS)
        for comparison in ("cor1", "cor2"):
            assert isinstance(results[comparison], ValueError)
            assert "u1 + A u0 = 0" in str(results[comparison])
        for comparison in COMPARISONS[:4]:
            curve, fit = results[comparison]
            assert isinstance(curve, ErrorCurve) and np.isfinite(fit.slope)

    @pytest.mark.parametrize("lams", [[0.0, 1.0, 4.0], [(k * math.pi) ** 2 for k in range(33)]])
    def test_sweep_matches_per_comparison_errors(self, lams):
        spec = Spectrum(np.array(lams))
        u0 = decay_vector(len(lams))
        u1 = -spec.eigenvalues * u0
        eps_list = [0.1, 0.02, 0.004, 0.0008]
        results = _sweep(spec, u0, u1, eps_list, COMPARISONS)
        for comparison in COMPARISONS:
            curve, _ = results[comparison]
            want = [
                sup_norm_error(
                    *_comparison_pair(ProblemData(spec, eps, u0, u1), comparison),
                    standard_grid(eps_list).times,
                )
                for eps in eps_list
            ]
            assert curve.errors.tolist() == want, comparison
            assert curve.epsilons.tolist() == eps_list

    def test_fits_keep_their_bits_in_any_eps_order(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1, il0=True)
        eps_list = [0.1, 0.02, 0.004, 0.0008]
        ts = standard_grid(eps_list).times
        per_eps = [
            (eps, rate_errors(ProblemData(pd.spec, eps, pd.u0, pd.u1), COMPARISONS, ts))
            for eps in eps_list
        ]
        want = run_rate_experiment(per_eps, COMPARISONS)
        got = run_rate_experiment([per_eps[k] for k in (2, 0, 3, 1)], COMPARISONS)
        for comparison in COMPARISONS:
            (curve, fit), (want_curve, want_fit) = got[comparison], want[comparison]
            assert curve.epsilons.tobytes() == want_curve.epsilons.tobytes()
            assert curve.errors.tobytes() == want_curve.errors.tobytes()
            assert fit == want_fit

    def test_too_few_eps_fail_every_comparison(self):
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        errors = rate_errors(pd, ["order1_theta"], standard_grid([0.1]).times)
        results = run_rate_experiment([(0.1, errors), (0.01, errors)], ["order1_theta"])
        assert "at least 3 eps" in str(results["order1_theta"])

    def test_failed_precondition_keeps_no_problem_alive(self):
        # the stored error has no traceback, whose frames would hold the
        # problem and every profile of it until the fit
        pd = make_problem([0.0, 1.0, 4.0], 0.1)
        problem = weakref.ref(pd)
        ts = standard_grid([0.1]).times
        errors = rate_errors(pd, ["order0_thm11i", "cor1", "cor2"], ts)
        del pd
        gc.collect()
        assert problem() is None
        assert all("u1 + A u0 = 0" in str(errors[c]) for c in ("cor1", "cor2"))
        assert errors["cor1"].__traceback__ is None

    def test_one_fit_per_distinct_curve(self, monkeypatch):
        calls = []

        def counted(curve):
            calls.append(curve)
            return fit_rate(curve)

        monkeypatch.setattr(verification, "fit_rate", counted)
        pd = make_problem([0.0, 1.0, 4.0], 0.1, il0=True)
        results = _sweep(pd.spec, pd.u0, pd.u1, [0.1, 0.01, 0.001], COMPARISONS)
        # under il0 data theta is 0, so order1_theta's curve is order0's
        curves = {results[c][0].errors.tobytes() for c in COMPARISONS}
        assert len(calls) == len(curves) == 3
        assert results["order0_thm11i"] is results["order0_thm11ii"]
        assert results["cor1"] is results["order2_mainthm"]

    def test_shared_candidate_is_sampled_once(self, monkeypatch):
        # cor1 and order2_mainthm both read main_expansion
        sampled = []

        def recorded(profiles, ts, combine):
            sampled.append(list(profiles))
            return norms_together(profiles, ts, combine)

        monkeypatch.setattr(verification, "norms_together", recorded)
        pd = make_problem([0.0, 1.0, 4.0], 0.1, il0=True)
        grid = standard_grid([0.1])
        errors = rate_errors(pd, COMPARISONS, grid.times)
        (profiles,) = sampled
        assert len({id(p) for p in profiles}) == len(profiles)
        want = sup_norm_error(pd.solution, pd.main_expansion, grid.times)
        assert errors["cor1"] == errors["order2_mainthm"] == want

    def test_peak_memory_is_below_one_wide_sample(self):
        # neumann-33 on the 25-eps run grid of the sweep: the pairs' norms are
        # reduced mode by mode, so no (n_times, n_modes) array is made
        pd = make_problem(_NEUMANN_33, 0.1, il0=True)
        ts = standard_grid([10.0 ** (-1 - 0.125 * k) for k in range(25)]).times
        wide = ts.size * len(pd.spec) * 8
        tracemalloc.start()
        try:
            rate_errors(pd, COMPARISONS, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < wide

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


@pytest.mark.parametrize(
    "value, bound, tolerance",
    [(math.inf, math.inf, 1e-8), (1.0, math.inf, 1e-8), (1.0, 2.0, math.inf),
     (math.nan, 2.0, 1e-8), (-1e308, 1e308, 1e308)],
)
def test_bound_that_is_not_finite_fails_with_a_reason(value, bound, tolerance):
    # an overflowed bound once passed with margin NaN or inf
    report = verification._at_most("bound.x", value, bound, tolerance, "the bound")
    assert not report.passed
    assert report.margin == -math.inf
    assert report.note.startswith("not finite: ") and report.note.endswith("; the bound")
