"""Verification layer: norms over time, inequality checks, rate regression.

All time integrals of closed-form profiles are evaluated analytically per
mode (the integrands are exponential polynomials); composite Simpson
quadrature on the grid is kept as an independent cross-check.  Checks
return serializable reports with the measured margin, the tolerance used,
and a provenance note.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exppoly import ExpPoly, divided_difference_exp, integrate, power_exp_moment
from .profiles import (
    CorrectorRemainder,
    ProblemData,
    ProfileFunction,
    corrector_halfpower,
    corrector_primary,
    corrector_profile,
    corrector_split,
    exact_solution,
    kernel_profile,
    layer_equation_source,
    main_expansion_profile,
    derivative_expansion_profile,
    parabolic_profile,
    remainder_direct_solve,
    sample_together,
    split_components,
    theta_layer,
)
from .spectral import SpecVector, Spectrum, apply_power, norm, resolvent
from .timegrid import TimeGrid

__all__ = [
    "ErrorCurve",
    "RateFit",
    "CheckReport",
    "NonDecayingIntegrandError",
    "COMPARISONS",
    "sup_norm_error",
    "l2_time_norm",
    "max_reg_functional",
    "resolvent_bound_margin",
    "identity_checks",
    "remainder_data_checks",
    "energy_inequality_checks",
    "explicit_sup_bound",
    "l2_deviation_bounds",
    "byparts_convolution_bound",
    "duhamel_residual",
    "max_reg_checks",
    "fit_rate",
    "run_rate_experiment",
]

# Error values below this are treated as rounding noise by the rate fit.
NOISE_FLOOR = 1e-14

COMPARISONS = (
    "order0_thm11i",
    "order0_thm11ii",
    "order1_theta",
    "order2_mainthm",
    "cor1",
    "cor2",
)

# The two order-0 statements compare the same (reference, candidate)
# profile pair and differ only in their exponent.
_ORDER0_COMPARISONS = ("order0_thm11i", "order0_thm11ii")

# comparison -> the comparison whose error curve it reuses
SHARED_ERROR_CURVE = {c: _ORDER0_COMPARISONS[0] for c in _ORDER0_COMPARISONS[1:]}

# One-sided slope thresholds: an upper-bound statement with exponent p is
# confirmed by any fitted slope >= p - 0.05 (smooth data may decay faster).
COMPARISON_EXPONENTS = {
    "order0_thm11i": 0.5,
    "order0_thm11ii": 1.0,
    "order1_theta": 1.0,
    "order2_mainthm": 1.5,
    "cor1": 1.5,
    "cor2": 1.5,
}


# Gauss-Legendre nodes per subpanel of the Duhamel quadrature.
_GAUSS_NODES = 10

# The Duhamel quadrature samples the nodes of consecutive grid intervals
# together, one ExpPoly.value call per mode for about this many nodes; the
# bound keeps each block's arrays at a few hundred KB whatever the grid.
_DUHAMEL_BLOCK_NODES = 16384


class NonDecayingIntegrandError(ValueError):
    """The integrand has not decayed at the grid end; truncation is invalid."""


@dataclass(frozen=True)
class ErrorCurve:
    """Error values against a descending list of eps."""

    epsilons: np.ndarray
    errors: np.ndarray
    label: str

    def __post_init__(self):
        eps = np.array(self.epsilons, dtype=float)
        err = np.array(self.errors, dtype=float)
        if eps.ndim != 1 or eps.shape != err.shape:
            raise ValueError("eps and error lists must be 1-d and equal length")
        if np.any(~np.isfinite(eps)) or np.any(eps <= 0):
            raise ValueError("eps values must be finite and positive")
        if np.any(~np.isfinite(err)) or np.any(err < 0):
            raise ValueError("errors must be finite and nonnegative")
        eps.setflags(write=False)
        err.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "errors", err)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log10 eps, log10 error)."""

    slope: float
    intercept: float
    r_squared: float
    residuals: tuple[float, ...]
    points_used: int


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    check_id: str
    passed: bool
    margin: float
    tolerance: float
    note: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        return {
            "id": d["check_id"],
            "pass": d["passed"],
            "margin": d["margin"],
            "tolerance": d["tolerance"],
            "note": d["note"],
        }


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(matrix**2, axis=1))


def sup_norm_error(a: ProfileFunction, b: ProfileFunction, grid: TimeGrid) -> float:
    """Max over grid times of the coefficient-space norm of a - b."""
    return _max_gap(a, b, grid.times)


def _squared_mode_integrals(
    profile: ProfileFunction, weight_power: int, ts: np.ndarray
) -> np.ndarray:
    """Analytic cumulative integral of t**w * |profile|^2 at the given times."""
    acc = np.zeros(ts.shape)
    weight = ExpPoly.build([(weight_power, 0.0, 1.0)])
    for mode in profile.modes:
        sq = mode.squared()
        if weight_power:
            sq = sq.multiply(weight)
        acc += sq.integral(ts)
    return acc


def l2_time_norm(
    profile: ProfileFunction, grid: TimeGrid, weight_power: int = 0
) -> float:
    """Integral of t**w * |profile(t)|^2 over [0, t_max], analytic per mode.

    The grid end stands in for infinity, so the integrand must have decayed
    below 1e-14 of its peak by then; otherwise the truncation is reported
    as invalid rather than silently wrong.
    """
    if weight_power < 0:
        raise ValueError("weight power must be a nonnegative integer")
    samp = profile.sample(grid.quad_points)
    integrand = grid.quad_points**weight_power * np.sum(samp**2, axis=1)
    peak = float(np.max(integrand))
    if peak > 0 and integrand[-1] > 1e-14 * peak:
        raise NonDecayingIntegrandError(
            f"integrand at t={grid.t_max:g} is {integrand[-1]:.3e}, "
            f"more than 1e-14 of its peak {peak:.3e}; extend the grid"
        )
    total = _squared_mode_integrals(profile, weight_power, np.array([grid.t_max]))
    return float(total[0])


def l2_time_norm_quadrature(
    profile: ProfileFunction, grid: TimeGrid, weight_power: int = 0
) -> float:
    """Simpson cross-check of l2_time_norm on the same grid."""
    samp = profile.sample(grid.quad_points)
    integrand = grid.quad_points**weight_power * np.sum(samp**2, axis=1)
    return grid.integrate_values(integrand)


def max_reg_functional(
    spec: Spectrum, f: SpecVector, n: int, grid: TimeGrid
) -> np.ndarray:
    """Dissipation functional |e^{-tA}f|^2/2 + (2^n/n!) int_0^t s^n |A^{(n+1)/2}e^{-sA}f|^2 ds.

    Evaluated at every grid time via the closed form of the exponential
    moments, then cross-checked against Simpson quadrature on the grid.
    """
    if n not in (0, 1, 2):
        raise ValueError("weight order n must be 0, 1, or 2")
    if len(f) != len(spec):
        raise ValueError("vector length must match the spectrum")
    lam = spec.eigenvalues
    c2 = f.coefficients**2
    ts = grid.times
    curve = _dissipation_integral_curve(spec, f, n, ts, semigroup=True)

    # quadrature cross-check of the integral part
    qp = grid.quad_points
    integrand = np.zeros(qp.shape)
    for i in range(len(spec)):
        integrand += c2[i] * lam[i] ** (n + 1) * qp**n * np.exp(-2.0 * lam[i] * qp)
    factor = 2.0**n / math.factorial(n)
    quad_curve = factor * grid.cumulative_integral(integrand)
    quad_curve += np.sum(c2 * np.exp(-2.0 * np.outer(ts, lam)), axis=1) / 2.0
    scale = float(np.sum(c2))
    gap = float(np.max(np.abs(curve - quad_curve)))
    if gap > 1e-6 * max(1.0, scale):
        raise ArithmeticError(
            f"analytic and quadrature dissipation curves disagree by {gap:.3e}, "
            f"more than the cross-check gate {1e-6 * max(1.0, scale):.3e}"
        )
    return curve


def resolvent_bound_margin(spec: Spectrum, eps: float, f: SpecVector) -> float:
    """Margin of |A^{1/2} J_eps f|^2 <= (1/eps) |f|^2 (nonnegative when it holds)."""
    jf = resolvent(spec, eps, f)
    half = apply_power(spec, 0.5, jf)
    return (1.0 / eps) * norm(f) ** 2 - norm(half) ** 2


# ---------------------------------------------------------------------------
# decomposition identity checks


def _max_gap(a: ProfileFunction, b: ProfileFunction, ts: np.ndarray) -> float:
    sa, sb = sample_together((a, b), ts)
    sa -= sb  # in place: a third wide array costs page faults in a fresh process
    return float(np.max(_row_norms(sa)))


def identity_checks(
    pd: ProblemData,
    grid: TimeGrid,
    remainders: tuple[CorrectorRemainder, CorrectorRemainder],
    tol: float = 1e-8,
) -> list[CheckReport]:
    """All closed-form decomposition identities on the grid.

    Each identity compares two independently constructed closed forms;
    residuals are measured in the vector norm and compared against
    tol * (|u0| + |u1|).  ``remainders`` are ``corrector_remainder(pd, j)``
    for j = 1, 2.
    """
    ts = grid.times
    scale = max(pd.data_scale, 1e-30)
    tolerance = tol * scale
    eps = pd.eps
    spec = pd.spec
    reports: list[CheckReport] = []

    u_eps = exact_solution(pd)
    u_one, u_two = split_components(pd)

    def add(check_id: str, residual: float, note: str, tolerance=tolerance) -> None:
        passed, margin = residual <= tolerance, tolerance - residual
        reports.append(CheckReport(check_id, passed, margin, tolerance, note))

    # solution = smoothed semigroup + eps * primary corrector slope
    ju1 = resolvent(spec, eps, pd.u1)
    smoothed = kernel_profile(
        spec, pd.u0.coefficients + eps * ju1.coefficients, 0, 0.0
    )
    gap = _max_gap(u_eps, smoothed + corrector_primary(pd).deriv().scale(eps), ts)
    add(
        "identity.primary_decomposition",
        gap,
        "solution equals smoothed semigroup flow plus eps times the "
        "primary corrector slope",
    )

    # first split component = semigroup + eps * A^{1/2} * halfpower corrector
    z = corrector_halfpower(pd)
    gap = _max_gap(
        u_one,
        parabolic_profile(pd) + z.operator_power(0.5).scale(eps),
        ts,
    )
    add(
        "identity.halfpower_decomposition",
        gap,
        "first split component equals the semigroup flow plus eps times "
        "the half-power corrector (forcing sign chosen to make this hold)",
    )

    # split components against their smoothed semigroups
    ju0 = resolvent(spec, eps, pd.u0)
    gap = _max_gap(
        u_one,
        kernel_profile(spec, ju0.coefficients, 0, 0.0)
        + corrector_split(pd, 1).deriv().scale(eps),
        ts,
    )
    add(
        "identity.split_corrector_1",
        gap,
        "first split component equals smoothed semigroup plus eps times "
        "the first split corrector slope",
    )
    jv1 = resolvent(spec, eps, pd.v1)
    gap = _max_gap(
        u_two,
        kernel_profile(spec, jv1.coefficients, 0, 0.0).scale(eps)
        + corrector_split(pd, 2).deriv().scale(eps),
        ts,
    )
    add(
        "identity.split_corrector_2",
        gap,
        "second split component equals eps times smoothed semigroup plus "
        "eps times the second split corrector slope",
    )

    # remainder reconstruction: residual-route remainder vs direct solve
    for j, rem in enumerate(remainders, start=1):
        direct = remainder_direct_solve(pd, j, rem.initial_value, rem.initial_slope)
        u_tilde = corrector_split(pd, j)
        v_part = corrector_profile(pd, j)
        recon = v_part + direct.scale(eps)
        if j == 2:
            recon = recon - u_two
        gap = _max_gap(u_tilde, recon, ts)
        add(
            f"identity.remainder_reconstruction_{j}",
            gap,
            "split corrector equals its explicit profile part plus eps "
            "times the directly solved remainder"
            + (" minus the second split component" if j == 2 else ""),
        )

    # superposition of the split
    add(
        "identity.superposition",
        _max_gap(u_one + u_two, u_eps, ts),
        "the two split components add up to the solution",
        tolerance=1e-10 * scale,
    )

    # relaxation equation of the second split component
    source = layer_equation_source(pd, remainders[1])
    lhs = u_two.deriv().scale(eps) + u_two
    rhs = kernel_profile(spec, pd.v1.coefficients, 0, 0.0).scale(
        eps
    ) + source.scale(eps**1.5)
    gap = _max_gap(lhs, rhs, ts)
    add(
        "identity.layer_relaxation",
        gap,
        "eps * (second split)' + (second split) equals eps times the "
        "semigroup of v1 plus eps^(3/2) times the layer source",
    )
    return reports


def remainder_data_checks(
    pd: ProblemData, remainders: tuple[CorrectorRemainder, CorrectorRemainder]
) -> list[CheckReport]:
    """Realized initial data of the remainder correctors, ``remainders`` =
    ``corrector_remainder(pd, j)`` for j = 1, 2.

    The second remainder must start at (J v1, -2 A J v1).  The first
    remainder's realized slope is +2 A^2 J u0: the decomposition forces
    the positive sign, so the commonly assumed negative value is flagged
    as inconsistent rather than enforced.
    """
    eps = pd.eps
    spec = pd.spec
    lam = spec.eigenvalues
    scale = max(pd.data_scale, 1e-30)
    tolerance = 1e-8 * scale * max(1.0, float(np.max(lam)) ** 2)
    rem1, rem2 = remainders
    jv1 = resolvent(spec, eps, pd.v1).coefficients
    ju0 = resolvent(spec, eps, pd.u0).coefficients
    expected = [  # (check id, remainder, initial value, initial slope, note)
        ("data.remainder2_initial", rem2, jv1, -2.0 * lam * jv1,
         "second remainder starts at (J v1, -2 A J v1)"),
        ("data.remainder1_initial", rem1, -lam * ju0, 2.0 * lam**2 * ju0,
         "first remainder starts at (-A J u0, +2 A^2 J u0); the slope sign is "
         "forced by the decomposition, a value of -2 A^2 J u0 would be "
         "inconsistent with it"),
    ]
    reports = []
    for check_id, rem, value, slope, note in expected:
        gap_val = float(np.max(np.abs(rem.initial_value.coefficients - value)))
        gap_slope = float(np.max(np.abs(rem.initial_slope.coefficients - slope)))
        gap = max(gap_val, gap_slope)
        reports.append(
            CheckReport(check_id, gap <= tolerance, tolerance - gap, tolerance, note)
        )
    return reports


# ---------------------------------------------------------------------------
# energy and explicit-constant inequality checks


def _energy_lhs_curves(
    pd: ProblemData, profiles: list[ProfileFunction], ts: np.ndarray
) -> list[np.ndarray]:
    """eps|p'(t)|^2 + |A^{1/2} p(t)|^2 + int_0^t |p'|^2 for each profile p,
    analytic in t.

    The profiles share their rates, so the dissipated integrals of all of
    them are taken together mode by mode; each profile's two samples are
    taken together, one profile at a time, which keeps two sample arrays
    alive instead of two per profile.
    """
    derivs = [p.deriv() for p in profiles]
    dissipated = [np.zeros(ts.shape) for _ in profiles]
    for modes in zip(*(dp.modes for dp in derivs)):
        integrals = integrate([m.squared() for m in modes], ts)
        for acc, integral in zip(dissipated, integrals):
            acc += integral
    curves = []
    for p, dp, integral in zip(profiles, derivs, dissipated):
        slope, half = sample_together((dp, p.operator_power(0.5)), ts)
        kinetic = pd.eps * np.sum(slope**2, axis=1)
        curves.append(kinetic + np.sum(half**2, axis=1) + integral)
    return curves


def energy_inequality_checks(
    pd: ProblemData,
    grid: TimeGrid,
    slack: float = 1e-8,
    remainders: tuple[CorrectorRemainder, ...] = (),
) -> list[CheckReport]:
    """Energy bounds for the corrector ladder.

    The primary corrector is bounded by |A^{1/2}u0|^2 + 3 eps |u1|^2 and
    the half-power corrector by |A u0|^2 / 2, both with explicit
    constants.  The remainder correctors have no explicit constants, so
    for each of the given ``remainders`` (from ``corrector_remainder``)
    the smallest constant making its bound hold is measured and reported
    instead of asserted.
    """
    primary, halfpower, *remainder_curves = _energy_lhs_curves(
        pd,
        [corrector_primary(pd), corrector_halfpower(pd)]
        + [rem.profile for rem in remainders],
        grid.times,
    )
    explicit = [
        ("energy.primary_constant3", primary,
         norm(apply_power(pd.spec, 0.5, pd.u0)) ** 2 + 3.0 * pd.eps * norm(pd.u1) ** 2,
         "energy of the primary corrector stays below |A^(1/2)u0|^2 + 3 eps |u1|^2"),
        ("energy.halfpower_constant_half", halfpower,
         norm(apply_power(pd.spec, 1.0, pd.u0)) ** 2 / 2.0,
         "energy of the half-power corrector stays below |A u0|^2 / 2"),
    ]
    reports = []
    for check_id, curve, bound, note in explicit:
        lhs = float(np.max(curve))
        tolerance = slack * max(1.0, bound)
        margin = bound + tolerance - lhs
        reports.append(
            CheckReport(check_id, lhs <= bound + tolerance, margin, tolerance, note)
        )

    # measured constants for the remainder correctors
    seminorms = {
        1: norm(apply_power(pd.spec, 1.5, pd.u0)) ** 2,
        2: norm(apply_power(pd.spec, 0.5, pd.v1)) ** 2,
    }
    for rem, curve in zip(remainders, remainder_curves):
        j, rhs = rem.component, seminorms[rem.component]
        lhs = float(np.max(curve))
        measured = lhs / rhs if rhs > 0 else 0.0
        reports.append(
            CheckReport(
                check_id=f"energy.remainder{j}_measured",
                passed=True,
                margin=measured,
                tolerance=float("inf"),
                note=(
                    f"smallest constant bounding the remainder-{j} energy "
                    f"by the data seminorm: {measured:.6g} (measured, "
                    "no explicit constant is asserted)"
                    if rhs > 0
                    else f"data seminorm vanishes; remainder-{j} energy "
                    f"max is {lhs:.3e}"
                ),
            )
        )
    return reports


def explicit_sup_bound(
    pd: ProblemData, grid: TimeGrid, slack: float = 1e-10
) -> CheckReport:
    """Explicit first-order bound: sup_t |u_eps - e^{-tA}u0| <=
    eps|u1| + sqrt(eps) * (|A^{1/2}u0|^2 + 3 eps |u1|^2)^{1/2}."""
    sup = sup_norm_error(exact_solution(pd), parabolic_profile(pd), grid)
    bound = pd.eps * norm(pd.u1) + math.sqrt(pd.eps) * math.sqrt(
        norm(apply_power(pd.spec, 0.5, pd.u0)) ** 2 + 3.0 * pd.eps * norm(pd.u1) ** 2
    )
    return CheckReport(
        check_id="bound.sup_error_explicit",
        passed=sup <= bound + slack,
        margin=bound + slack - sup,
        tolerance=slack,
        note="sup error of the first-order limit stays below the explicit "
        "eps |u1| + sqrt(eps) energy bound",
    )


def _l2_bound_report(
    check_id: str, profile: ProfileFunction, grid: TimeGrid, bound: float,
    slack: float, note: str,
) -> CheckReport:
    """int_0^inf |profile|^2 dt <= bound; a grid too short to stand in for
    infinity gives a FAIL whose note is the reason."""
    tolerance = slack * max(1.0, bound)
    try:
        value = l2_time_norm(profile, grid)
    except NonDecayingIntegrandError as exc:
        return CheckReport(check_id, False, float("-inf"), tolerance, str(exc))
    return CheckReport(
        check_id, value <= bound + tolerance, bound + tolerance - value, tolerance, note
    )


def l2_deviation_bounds(
    pd: ProblemData,
    grid: TimeGrid,
    w1: SpecVector | None = None,
    slack: float = 1e-8,
) -> list[CheckReport]:
    """Squared-in-time bounds for the deviation from the smoothed flow.

    Checks int_0^inf |u_eps - e^{-tA}(u0 + eps u1)|^2 dt against
    2 eps^2 |A^{1/2}u0|^2 + 7 eps^3 |u1|^2, and, when u1 = A^{1/2} w1 is
    certified by a supplied w1, the semigroup integral
    int_0^inf |e^{-tA}u1|^2 dt against |w1|^2 / 2.
    """
    eps = pd.eps
    spec = pd.spec

    target = kernel_profile(
        spec, pd.u0.coefficients + eps * pd.u1.coefficients, 0, 0.0
    )
    bound = (
        2.0 * eps**2 * norm(apply_power(spec, 0.5, pd.u0)) ** 2
        + 7.0 * eps**3 * norm(pd.u1) ** 2
    )
    reports = [
        _l2_bound_report(
            "bound.l2_deviation_constants_2_7",
            exact_solution(pd) - target,
            grid,
            bound,
            slack,
            "time-integrated squared deviation from the smoothed flow "
            "stays below 2 eps^2 |A^(1/2)u0|^2 + 7 eps^3 |u1|^2",
        )
    ]

    if w1 is not None:
        recovered = apply_power(spec, 0.5, w1)
        gap = norm(recovered - pd.u1)
        if gap > 1e-12 * max(1.0, norm(pd.u1)):
            raise ValueError(
                "w1 does not certify u1: |A^(1/2) w1 - u1| = " f"{gap:.3e}"
            )
        reports.append(
            _l2_bound_report(
                "bound.l2_semigroup_range_half",
                kernel_profile(spec, pd.u1.coefficients, 0, 0.0),
                grid,
                norm(w1) ** 2 / 2.0,
                slack,
                "semigroup integral of u1 in the half-power range "
                "stays below |w1|^2 / 2",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# convolution (variation-of-constants) representation


def byparts_convolution_bound(
    pd: ProblemData, grid: TimeGrid, slack: float = 1e-8
) -> CheckReport:
    """Integrated-by-parts bound for the operator-weighted convolution:
    sup_t |eps int_0^t e^{(s-t)/eps} A e^{-sA} v1 ds| <= eps^{3/2}/2 * |A^{1/2}v1|.

    The inner integral int_0^t e^{(s-t)/eps} e^{-lam s} ds is the divided
    difference exp[-lam, -1/eps](t), evaluated analytically per mode.
    """
    eps = pd.eps
    lam = pd.spec.eigenvalues
    kernels = np.stack(  # (n_t, n_modes)
        [divided_difference_exp((-l, -1.0 / eps), grid.times).real for l in lam],
        axis=1,
    )
    weighted = eps * lam[np.newaxis, :] * pd.v1.coefficients[np.newaxis, :] * kernels
    sup = float(np.max(_row_norms(weighted)))
    bound = eps**1.5 / 2.0 * norm(apply_power(pd.spec, 0.5, pd.v1))
    tolerance = slack * max(1.0, bound)
    return CheckReport(
        check_id="bound.byparts_convolution",
        passed=sup <= bound + tolerance,
        margin=bound + tolerance - sup,
        tolerance=tolerance,
        note="operator-weighted convolution of the semigroup of v1 "
        "stays below eps^(3/2)/2 * |A^(1/2) v1|",
    )


def _duhamel_convolution(
    integrand: ProfileFunction, ts: np.ndarray, eps: float
) -> np.ndarray:
    """int_0^t e^{(s-t)/eps} integrand(s) ds at the times ts, shape (len(ts), n_modes).

    Gauss-Legendre subpanels per grid interval, refined on the eps scale
    near each right endpoint; earlier history enters through the exact
    interval-to-interval decay factor, so the kernel never overflows.  The
    nodes of consecutive intervals are sampled together: a block holds the
    intervals whose first node falls in one window of _DUHAMEL_BLOCK_NODES
    nodes, so it has at most that many plus one interval's 1200.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    reach = 45.0 * eps  # kernel support: e^{-45} is below double rounding
    t_right = ts[1:]
    lo = np.maximum(ts[:-1], t_right - reach)
    width = t_right - lo
    n_sub = np.where(
        width > 0, np.clip(np.ceil(width / (eps / 2.0)), 1, 120), 0
    ).astype(int)
    with_nodes = np.flatnonzero(n_sub)
    first_node = (np.cumsum(n_sub[with_nodes]) - n_sub[with_nodes]) * _GAUSS_NODES
    window = first_node // _DUHAMEL_BLOCK_NODES
    blocks = np.split(with_nodes, np.flatnonzero(np.diff(window)) + 1)

    local = np.zeros((ts.size - 1, len(integrand.modes)))
    for ks in blocks:
        # subpanel edges as np.linspace(lo, t_right, n_sub + 1) per interval
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
        weights *= np.exp((nodes - np.repeat(t_right[k_sub], _GAUSS_NODES)) / eps)
        for i, mode in enumerate(integrand.modes):
            local[ks, i] = np.add.reduceat(
                weights * mode.value(nodes), first_sub * _GAUSS_NODES
            )

    convo = np.zeros((ts.size, len(integrand.modes)))
    for k in range(ts.size - 1):
        decay = math.exp(-(ts[k + 1] - ts[k]) / eps)
        convo[k + 1] = decay * convo[k] + local[k]
    return convo


def duhamel_residual(
    pd: ProblemData,
    grid: TimeGrid,
    remainder2: CorrectorRemainder,
    tol: float = 1e-6,
    include_byparts: bool = True,
) -> list[CheckReport]:
    """Variation-of-constants representation of the second split component.

    Reconstructs the component as the exponentially weighted time
    convolution of the semigroup of v1 plus sqrt(eps) times the layer
    source (built from ``remainder2 = corrector_remainder(pd, 2)``), using
    panel-wise Gauss quadrature refined on the eps scale, and compares
    with the closed form.  Also checks the integrated-by-parts bound
    eps^{3/2}/2 * |A^{1/2} v1| for the operator-weighted convolution.
    """
    eps = pd.eps
    spec = pd.spec
    ts = grid.times
    _, u_two = split_components(pd)
    source = layer_equation_source(pd, remainder2)
    sm_v1 = kernel_profile(spec, pd.v1.coefficients, 0, 0.0)
    integrand = sm_v1 + source.scale(math.sqrt(eps))
    convo = _duhamel_convolution(integrand, ts, eps)

    residual = float(np.max(_row_norms(u_two.sample(ts) - convo)))
    tolerance = tol * max(norm(pd.v1), 1e-30)
    reports = [
        CheckReport(
            check_id="duhamel.representation",
            passed=residual <= tolerance,
            margin=tolerance - residual,
            tolerance=tolerance,
            note="second split component matches its exponentially weighted "
            "convolution representation (quadrature-limited tolerance)",
        )
    ]
    if include_byparts:
        reports.append(byparts_convolution_bound(pd, grid))
    return reports


# ---------------------------------------------------------------------------
# dissipation functional checks


def _dissipation_integral_curve(
    spec: Spectrum, f: SpecVector, n: int, ts: np.ndarray, semigroup: bool = False
) -> np.ndarray:
    """Cumulative weighted dissipation (2^n/n!) int_0^t s^n |A^{(n+1)/2}e^{-sA}f|^2.

    With ``semigroup`` the semigroup part |e^{-tA}f|^2/2 is added mode by
    mode as well, which gives the whole functional of max_reg_functional.
    """
    lam = spec.eigenvalues
    c2 = f.coefficients**2
    factor = 2.0**n / math.factorial(n)
    curve = np.zeros(ts.shape)
    for i in range(len(spec)):
        if semigroup:
            curve += c2[i] * np.exp(-2.0 * lam[i] * ts) / 2.0
        if lam[i] > 0:
            moments = power_exp_moment(n, -2.0 * lam[i], ts).real
            curve += factor * lam[i] ** (n + 1) * c2[i] * moments
    return curve


def max_reg_checks(
    spec: Spectrum, f: SpecVector, grid: TimeGrid
) -> list[CheckReport]:
    """Behaviour of the dissipation functionals M_n on the grid.

    M_0 is constant at |f|^2/2 exactly.  For n >= 1 the cumulative
    dissipation term is nondecreasing and the full functional stays below
    |f|^2/2, reaching it only in the relaxed limit.  The full functional
    provably dips below its endpoints at finite times (every positive mode
    contributes 1/2 - t e^{-2 lam t}-type behaviour), so the finite-time
    gap is measured and documented rather than treated as zero.
    """
    reports = []
    half_norm2 = norm(f) ** 2 / 2.0
    scale = max(1.0, norm(f) ** 2)
    min_pos = spec.min_positive
    t_limit = grid.t_max if min_pos is None else min(grid.t_max, 20.0 / min_pos)
    for n in (0, 1, 2):
        try:
            mn = max_reg_functional(spec, f, n, grid)
        except ArithmeticError as exc:
            # the closed form failed its quadrature cross-check: every record
            # of this order is a FAIL whose note gives the gap
            kinds = (
                ["monotone_bounded", "limit", "finite_time_gap"] if n else ["constant"]
            )
            reports.extend(
                CheckReport(f"maxreg.{k}_n{n}", False, -np.inf, 1e-6 * scale, str(exc))
                for k in kinds
            )
            continue
        if n == 0:
            gap = float(np.max(np.abs(mn - half_norm2)))
            tolerance = 1e-8 * scale
            reports.append(
                CheckReport(
                    check_id="maxreg.constant_n0",
                    passed=gap <= tolerance,
                    margin=tolerance - gap,
                    tolerance=tolerance,
                    note="order-0 dissipation functional is identically |f|^2/2",
                )
            )
            continue
        dissipated = _dissipation_integral_curve(spec, f, n, grid.times)
        drops = float(np.min(np.diff(dissipated)))
        overshoot = float(np.max(mn - half_norm2))
        tolerance = 1e-8 * scale
        reports.append(
            CheckReport(
                check_id=f"maxreg.monotone_bounded_n{n}",
                passed=(drops >= -tolerance) and (overshoot <= tolerance),
                margin=min(drops + tolerance, tolerance - overshoot),
                tolerance=tolerance,
                note=f"order-{n} cumulative dissipation is nondecreasing and "
                "the full functional is bounded by |f|^2/2 (the functional "
                "itself is not monotone: its semigroup part decays faster "
                "than the integral refills at small times)",
            )
        )
        idx = int(np.searchsorted(grid.times, t_limit))
        idx = min(idx, grid.times.size - 1)
        limit_gap = float(abs(mn[idx] - half_norm2))
        tolerance = 1e-6 * scale
        reports.append(
            CheckReport(
                check_id=f"maxreg.limit_n{n}",
                passed=limit_gap <= tolerance,
                margin=tolerance - limit_gap,
                tolerance=tolerance,
                note=f"order-{n} functional reaches |f|^2/2 once every "
                "positive mode has relaxed (t ~ 20 / min positive eigenvalue)",
            )
        )
        # documentation of the finite-time equality gap (not enforced)
        interior = mn[(grid.times > 0.0) & (grid.times < t_limit)]
        max_gap = float(half_norm2 - np.min(interior)) if interior.size else 0.0
        reports.append(
            CheckReport(
                check_id=f"maxreg.finite_time_gap_n{n}",
                passed=True,
                margin=max_gap,
                tolerance=float("inf"),
                note=(
                    f"order-{n} functional sits strictly below |f|^2/2 at "
                    f"finite times (largest observed gap {max_gap:.3e}); a "
                    "claim of equality at every finite time does not hold "
                    "for n >= 1, only the bound and the limit do"
                ),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# rate experiments


def fit_rate(curve: ErrorCurve) -> RateFit:
    """Least squares on (log10 eps, log10 error), above the noise floor."""
    mask = curve.errors > NOISE_FLOOR
    if int(np.sum(mask)) < 3:
        raise ValueError(
            f"need at least 3 error values above the noise floor, "
            f"got {int(np.sum(mask))}"
        )
    x = np.log10(curve.epsilons[mask])
    y = np.log10(curve.errors[mask])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residuals = y - predicted
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        residuals=tuple(float(r) for r in residuals),
        points_used=int(np.sum(mask)),
    )


def _comparison_profiles(
    pd: ProblemData, comparison: str
) -> tuple[ProfileFunction, ProfileFunction]:
    """The (reference, candidate) profile pair for a rate comparison."""
    u_eps = exact_solution(pd)
    v = parabolic_profile(pd)
    if comparison in _ORDER0_COMPARISONS:
        return u_eps, v
    if comparison == "order1_theta":
        return u_eps, v + theta_layer(pd)
    if comparison == "order2_mainthm":
        return u_eps, main_expansion_profile(pd)
    if comparison == "cor1":
        if not pd.il0_satisfied:
            raise ValueError("cor1 requires compatible data u1 + A u0 = 0")
        candidate = v - kernel_profile(pd.spec, pd.u0.coefficients, 1, 2.0, pd.eps)
        return u_eps, candidate
    if comparison == "cor2":
        return u_eps.deriv(), derivative_expansion_profile(pd)
    raise ValueError(f"unknown comparison {comparison!r}")


def run_rate_experiment(
    spec: Spectrum,
    u0: SpecVector,
    u1: SpecVector,
    eps_values,
    comparison: str,
    grid: TimeGrid,
) -> tuple[ErrorCurve, RateFit]:
    """Sup-norm error of one comparison over an eps sweep, with a rate fit.

    The grid is augmented with layer points for each eps so the transient
    peak is always sampled.
    """
    if comparison not in COMPARISONS:
        raise ValueError(f"unknown comparison {comparison!r}")
    eps_values = sorted((float(e) for e in eps_values), reverse=True)
    if len(eps_values) < 3:
        raise ValueError("need at least 3 eps values for a rate fit")
    errors = []
    for eps in eps_values:
        pd = ProblemData(spec, eps, u0, u1)
        refined = grid.with_layer_points([eps])
        a, b = _comparison_profiles(pd, comparison)
        errors.append(sup_norm_error(a, b, refined))
    curve = ErrorCurve(
        np.array(eps_values), np.array(errors), label=comparison
    )
    return curve, fit_rate(curve)
