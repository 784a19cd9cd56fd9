import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from singlim.modes import (
    ForcingTerm,
    ModeParams,
    characteristic_roots,
    rk_reference_path,
    solve_forced,
    solve_homogeneous,
)

from conftest import oracle_at

GRID = np.linspace(0.0, 8.0, 33)


class TestRoots:
    def test_lambda_zero_factorization(self):
        r = characteristic_roots(0.2, 0.0)
        assert r.classification == "degenerate_lambda_zero"
        assert r.mu_plus == 0.0
        assert r.mu_minus == pytest.approx(-5.0, rel=1e-15)

    def test_critical(self):
        r = characteristic_roots(0.25, 1.0)
        assert r.classification == "critical"
        assert r.mu_plus == r.mu_minus == pytest.approx(-2.0, rel=1e-14)
        # root satisfies the characteristic polynomial
        mu = r.mu_plus
        assert abs(0.25 * mu**2 + mu + 1.0) <= 1e-12

    def test_small_eps_values(self):
        r = characteristic_roots(0.01, 1.0)
        assert r.classification == "overdamped"
        assert r.mu_plus.real == pytest.approx(-1.0102051443364382, rel=1e-12)
        assert r.mu_minus.real == pytest.approx(-98.98979485566356, rel=1e-12)
        assert (r.mu_plus + r.mu_minus).real == pytest.approx(-100.0, rel=1e-13)
        assert (r.mu_plus * r.mu_minus).real == pytest.approx(100.0, rel=1e-13)

    def test_underdamped(self):
        r = characteristic_roots(1.0, 1.0)
        assert r.classification == "underdamped"
        assert r.mu_plus.imag > 0
        assert r.mu_plus.real == pytest.approx(-0.5, rel=1e-15)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            characteristic_roots(0.0, 1.0)
        with pytest.raises(ValueError):
            characteristic_roots(0.1, -1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_root_invariants(eps, lam):
    r = characteristic_roots(eps, lam)
    scale = max(1.0, 1.0 / eps, lam / eps)
    assert abs(r.mu_plus + r.mu_minus + 1.0 / eps) <= 1e-12 * scale
    assert abs(r.mu_plus * r.mu_minus - lam / eps) <= 1e-12 * scale
    for mu in (r.mu_plus, r.mu_minus):
        assert mu.real <= 1e-12 * scale
        residual = eps * mu**2 + mu + lam
        assert abs(residual) <= 1e-12 * max(1.0, abs(eps * mu**2), abs(mu), lam)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1e-6, max_value=100.0),
)
def test_slow_root_perturbation_bound(eps, lam):
    # slow root approaches -lam at rate eps when the mode is well overdamped
    if 4.0 * eps * lam > 0.5:
        return
    mu = characteristic_roots(eps, lam).mu_plus.real
    assert -lam - 2.0 * eps * lam**2 <= mu <= -lam


class TestHomogeneous:
    def test_critical_closed_form(self):
        # (1 + 2t) e^{-2t} at t=1 is 3 e^{-2}
        traj = solve_homogeneous(ModeParams(0.25, 1.0, 1.0, 0.0))
        assert traj.value(1.0) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-14)

    def test_lambda_zero_closed_form(self):
        eps, u0, u1 = 0.05, 2.0, -3.0
        traj = solve_homogeneous(ModeParams(eps, 0.0, u0, u1))
        for t in GRID:
            expected = u0 + eps * (1.0 - math.exp(-t / eps)) * u1
            assert traj.value(t) == pytest.approx(expected, abs=1e-14)

    def test_stiff_against_oracle(self):
        p = ModeParams(0.01, 1.0, 1.0, 0.0)
        traj = solve_homogeneous(p)
        y, dy = oracle_at(p, ForcingTerm(0, 0, 0), 1.0, 1e-12)
        assert traj.value(1.0) == pytest.approx(y, rel=1e-9)
        assert traj.derivative(1.0) == pytest.approx(dy, rel=1e-9, abs=1e-12)

    def test_initial_conditions(self):
        for p in [
            ModeParams(0.3, 2.0, 1.5, -0.5),
            ModeParams(0.25, 1.0, -1.0, 2.0),
            ModeParams(0.9, 5.0, 0.2, 0.8),
        ]:
            traj = solve_homogeneous(p)
            scale = max(1.0, abs(p.y0), abs(p.y1))
            assert abs(traj.value(0.0) - p.y0) <= 1e-12 * scale
            assert abs(traj.derivative(0.0) - p.y1) <= 1e-12 * scale


class TestForced:
    def test_zero_forcing_is_homogeneous(self):
        p = ModeParams(0.1, 2.0, 1.0, -1.0)
        a = solve_forced(p, ForcingTerm(0.0, 0.0, 3.0))
        b = solve_homogeneous(p)
        for t in GRID:
            assert a.value(t) == pytest.approx(b.value(t), abs=1e-14)

    def test_nonresonant_particular(self):
        p = ModeParams(0.1, 1.0, 0.0, 0.0)
        traj = solve_forced(p, ForcingTerm(1.0, 0.0, 1.0))
        assert traj.resonance_escalation == 0
        for t in GRID:
            assert abs(traj.residual(t)) <= 1e-10

    def test_term_structure(self):
        # separated rates: plain e^{pt}, e^{nt}, e^{-nu t}, t e^{-nu t}
        p = ModeParams(0.1, 1.0, 0.5, 0.0)
        traj = solve_forced(p, ForcingTerm(1.0, 0.5, 3.0))
        assert len(traj.poly.terms) == 4 and traj.poly.differences == ()
        # forcing rate 1e-6 from the slow root: grouped, no escalation
        nu = -traj.roots.mu_plus.real * (1.0 + 1e-6)
        near = solve_forced(p, ForcingTerm(1.0, 0.5, nu))
        assert near.resonance_escalation == 0
        assert sorted(len(nodes) for nodes, _ in near.poly.differences) == [2, 3]
        assert near.poly.coefficient_scale() < 10.0

    def test_resonance_at_zero_root(self):
        # eps y'' + y' = 1 integrates to t - eps (1 - e^{-t/eps})
        eps = 0.1
        traj = solve_forced(ModeParams(eps, 0.0, 0.0, 0.0), ForcingTerm(1.0, 0.0, 0.0))
        assert traj.resonance_escalation == 1
        for t in GRID:
            expected = t - eps * (1.0 - math.exp(-t / eps))
            assert traj.value(t) == pytest.approx(expected, abs=1e-12)
            assert traj.derivative(t) == pytest.approx(
                1.0 - math.exp(-t / eps), abs=1e-12
            )

    def test_double_root_resonance(self):
        # forcing at the double characteristic root escalates by t^2
        eps = 0.25
        nu = 1.0 / (2.0 * eps)
        traj = solve_forced(
            ModeParams(eps, 1.0 / (4.0 * eps), 0.0, 0.0), ForcingTerm(1.0, 0.5, nu)
        )
        assert traj.resonance_escalation == 2
        for t in GRID:
            assert abs(traj.residual(t)) <= 1e-10

    def test_forced_against_oracle(self):
        p = ModeParams(0.05, 3.0, 0.7, -0.2)
        f = ForcingTerm(1.2, -0.4, 0.8)
        traj = solve_forced(p, f)
        ts = np.linspace(0.2, 4.0, 7)
        ys, dys = rk_reference_path(p, f, ts, 1e-11)
        for t, y, dy in zip(ts, ys, dys):
            assert traj.value(t) == pytest.approx(y, rel=1e-9, abs=1e-12)
            assert traj.derivative(t) == pytest.approx(dy, rel=1e-9, abs=1e-12)


@st.composite
def mode_and_forcing(draw):
    eps = draw(st.floats(min_value=1e-3, max_value=1.0))
    lam = draw(st.floats(min_value=0.0, max_value=30.0))
    y0 = draw(st.floats(min_value=-3.0, max_value=3.0))
    y1 = draw(st.floats(min_value=-3.0, max_value=3.0))
    a = draw(st.floats(min_value=-3.0, max_value=3.0))
    b = draw(st.floats(min_value=-3.0, max_value=3.0))
    nu = draw(st.floats(min_value=0.0, max_value=10.0))
    return ModeParams(eps, lam, y0, y1), ForcingTerm(a, b, nu)


@settings(max_examples=150, deadline=None)
@given(mode_and_forcing())
# a subnormal forcing rate: the gap to the zero root underflows in t*gap
@example((ModeParams(1.0, 0.0, 0.0, 0.0), ForcingTerm(0.0, 1.0, 5e-324)))
def test_ode_residual_property(mf):
    p, f = mf
    traj = solve_forced(p, f)
    scale = max(1.0, abs(p.y0), abs(p.y1), abs(f.a), abs(f.b))
    for t in np.linspace(0.0, 6.0, 13):
        assert abs(traj.residual(t)) <= 1e-9 * scale
    # initial data reproduction: 1e-12 relative, plus a machine-precision
    # floor for near-resonant cases whose internal coefficients are large
    floor = 64 * np.finfo(float).eps * traj.poly.coefficient_scale()
    ic_tol = 1e-12 * scale + floor
    assert abs(traj.value(0.0) - p.y0) <= ic_tol
    assert abs(traj.derivative(0.0) - p.y1) <= ic_tol * max(
        1.0, abs(traj.roots.mu_minus)
    )


def assert_matches_reference(traj, p, f, rel=1e-12):
    ts = np.linspace(0.0, 6.0, 61)
    ys, dys = rk_reference_path(p, f, ts, 1e-12)
    y_err = np.max(np.abs(traj.value(ts) - ys)) / np.max(np.abs(ys))
    dy_err = np.max(np.abs(traj.derivative(ts) - dys)) / np.max(np.abs(dys))
    assert y_err <= rel, (p, f, y_err)
    assert dy_err <= rel, (p, f, dy_err)


@pytest.mark.parametrize(
    "eps,lam,nu",
    [
        # q(-nu) = eps*nu^2 = 6e-5: a b/q^2 particular part would need 2.7e8
        (0.0625, 0.03125, 0.03125),
        (0.5, 0.0078125, 0.0078125),
        (1.0, 5.96e-8, 0.0),  # forcing at rate 0, slow root -6e-8
        (1.0, 0.0, 1e-9),  # forcing rate 1e-9 next to the zero root
    ],
)
def test_near_resonant_regressions(eps, lam, nu):
    p, f = ModeParams(eps, lam, 0.0, 0.0), ForcingTerm(0.0, 1.0, nu)
    assert_matches_reference(solve_forced(p, f), p, f)


GAPS = [s * 10.0**k for k in range(-14, 0) for s in (1.0, -1.0)]


def _slow_root_case(g, eps=0.1, lam=1.0):
    # -nu is the slow root of q(z) - g, so q(-nu) = g
    c = lam - g
    return eps, lam, 2.0 * c / (1.0 + math.sqrt(1.0 - 4.0 * eps * c))


def _fast_root_case(g, eps=0.1, lam=1.0):
    c = lam - g
    return eps, lam, (1.0 + math.sqrt(1.0 - 4.0 * eps * c)) / (2.0 * eps)


def _double_root_case(g, eps=0.25):
    # forcing at the vertex -1/(2 eps); q there is lam - 1/(4 eps) = g
    return eps, 1.0 / (4.0 * eps) + g, 1.0 / (2.0 * eps)


def _zero_root_case(g, eps=0.5):
    if g < 0:  # lam = 0 and q(-nu) = eps nu^2 - nu = g
        return eps, 0.0, -2.0 * g / (1.0 + math.sqrt(1.0 + 4.0 * eps * g))
    return eps, g, 0.0  # forcing at rate 0, slow root near -g


@pytest.mark.parametrize(
    "case", [_slow_root_case, _fast_root_case, _double_root_case, _zero_root_case]
)
def test_swept_resonance_gap(case):
    for g in GAPS:
        eps, lam, nu = case(g)
        assert abs(eps * nu**2 - nu + lam - g) <= 1e-15 * (eps * nu**2 + nu + lam)
        for y0, y1, a, b in [(0.0, 0.0, 0.0, 1.0), (1.0, -0.5, 0.7, 0.3)]:
            p, f = ModeParams(eps, lam, y0, y1), ForcingTerm(a, b, nu)
            assert_matches_reference(solve_forced(p, f), p, f)


@pytest.mark.parametrize("eps", [0.25, 0.01])
def test_swept_discriminant(eps):
    zero = ForcingTerm(0.0, 0.0, 0.0)
    for d in [s * 10.0**k for k in range(-14, -1) for s in (1.0, -1.0)]:
        p = ModeParams(eps, (1.0 - d) / (4.0 * eps), 1.0, -0.5)
        assert_matches_reference(solve_homogeneous(p), p, zero)


class TestOracle:
    def test_constant_solution(self):
        p = ModeParams(0.2, 0.0, 1.0, 0.0)
        for t in (0.0, 0.5, 2.0):
            y, dy = oracle_at(p, ForcingTerm(0, 0, 0), t, 1e-10)
            assert y == pytest.approx(1.0, abs=1e-10)
            assert dy == pytest.approx(0.0, abs=1e-10)

    def test_critical_example(self):
        y, _ = oracle_at(ModeParams(0.25, 1.0, 1.0, 0.0), ForcingTerm(0, 0, 0), 1.0, 1e-12)
        assert y == pytest.approx(3.0 * math.exp(-2.0), rel=1e-10)

    def test_tolerance_validation(self):
        p = ModeParams(0.1, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            oracle_at(p, ForcingTerm(0, 0, 0), 1.0, 1e-3)
        with pytest.raises(ValueError):
            oracle_at(p, ForcingTerm(0, 0, 0), -1.0, 1e-10)

    def test_small_eps(self):
        # t/eps = 1e10: no step budget; the error here is about 1.4e-12 of
        # the data, well below the u*t/eps worst case of the docstring
        p = ModeParams(1e-9, 1.0, 1.0, 0.0)
        traj = solve_homogeneous(p)
        y, dy = oracle_at(p, ForcingTerm(0, 0, 0), 10.0, 1e-10)
        assert abs(y - traj.value(10.0)) <= 1e-8
        assert abs(dy - traj.derivative(10.0)) <= 1e-8

    def test_against_adaptive_integrator(self):
        # an explicit eighth-order integrator keeps the oracle itself checked
        cases = [
            (ModeParams(0.5, 2.0, 1.0, -0.5), ForcingTerm(0.7, 0.3, 1.5)),
            (ModeParams(0.1, 0.0, -1.0, 2.0), ForcingTerm(1.0, -0.5, 0.0)),
            (ModeParams(0.05, 10.0, 0.3, 0.0), ForcingTerm(0.0, 1.0, 3.0)),
            (ModeParams(0.01, 1.0, 2.0, 1.0), ForcingTerm(-1.0, 0.2, 0.5)),
        ]
        ts = np.linspace(0.0, 4.0, 9)
        for p, f in cases:
            sol = solve_ivp(
                lambda t, y: (y[1], (f.value(t) - y[1] - p.lam * y[0]) / p.eps),
                (0.0, 4.0),
                (p.y0, p.y1),
                method="DOP853",
                rtol=1e-12,
                atol=1e-12,
                t_eval=ts,
            )
            ys, dys = rk_reference_path(p, f, ts, 1e-12)
            assert np.max(np.abs(ys - sol.y[0])) <= 1e-9, (p, f)
            assert np.max(np.abs(dys - sol.y[1])) <= 1e-9, (p, f)
