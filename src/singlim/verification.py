"""Verification layer: norms over time, inequality checks, rate regression.

All time integrals of closed-form profiles are evaluated analytically per
mode (the integrands are exponential polynomials); composite Simpson
quadrature on the grid is kept as an independent cross-check.  Each
decomposition identity compares two independent constructions (a split
corrector against its profile part plus eps times the directly solved
remainder, for instance), so the identities keep holding as eps -> 0
rather than measure rounding.  Checks return serializable reports with
the measured margin, the tolerance used, and a provenance note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly, divided_difference_exp, integrate, moment_tables
from .profiles import (
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
    "inequality_checks",
    "duhamel_residual",
    "max_reg_checks",
    "fit_rate",
    "run_rate_experiment",
    "squared_norms",
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
# profile pair and differ only in their exponent: comparison -> the
# comparison whose error curve it shares.
_SAME_PAIR = {"order0_thm11ii": "order0_thm11i"}

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


# Gauss-Legendre nodes per subpanel of the Duhamel quadrature, and the
# subpanel width in units of eps: 10 nodes on 2 eps keep the quadrature
# error of the e^{(s-t)/eps}-weighted integrands near 1e-16 relative.
_GAUSS_NODES = 10
_PANEL_EPS = 2.0

# The Duhamel quadrature samples the nodes of consecutive grid intervals
# together, one sample_together call per block of nodes.  A block's
# mode-major buffer holds at most _DUHAMEL_BLOCK_VALUES values (512 KB, no
# more than a grid sample of 32 modes, so it adds nothing to the peak
# memory), and each mode's row at most _DUHAMEL_BLOCK_NODES, which keeps
# the per-mode working arrays at about 100 KB whatever the grid (the
# scaling and squaring of a 3-node difference holds a dozen of them).
_DUHAMEL_BLOCK_VALUES = 2**16
_DUHAMEL_BLOCK_NODES = 8192


# A difference of profiles keeps a rounding residue of a few ulps of the
# coefficients that cancel in it, which need not decay (a kernel mode's
# constant terms); l2_time_norm does not count it as an undecayed tail.
_ROUNDING_ULPS = 8.0


class NonDecayingIntegrandError(ValueError):
    """The integrand has not decayed at the grid end; truncation is invalid."""


@dataclass(frozen=True)
class ErrorCurve:
    """Error values against a descending list of eps."""

    epsilons: np.ndarray
    errors: np.ndarray

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
        return {
            "id": self.check_id,
            "pass": self.passed,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "note": self.note,
        }


def _at_most(
    check_id: str, value: float, bound: float, tolerance: float, note: str
) -> CheckReport:
    """The check value <= bound + tolerance, with margin bound + tolerance - value."""
    return CheckReport(
        check_id, value <= bound + tolerance, bound + tolerance - value, tolerance, note
    )


def _measured(check_id: str, value: float, note: str) -> CheckReport:
    """A record that only measures: it passes, with the value as its margin
    and an infinite tolerance."""
    return CheckReport(check_id, True, value, float("inf"), note)


def squared_norms(samples: np.ndarray) -> np.ndarray:
    """|x(t)|^2 for each time of samples (n_times, n_modes): the squares
    added over the modes one mode at a time, in mode order, whatever the
    memory layout.  The samples are squared in place, so no second wide
    array is made: callers pass a buffer they own and no longer need."""
    samples *= samples
    total = np.zeros(samples.shape[0])
    for column in samples.T:
        total += column
    return total


def sup_norm_error(a: ProfileFunction, b: ProfileFunction, grid: TimeGrid) -> float:
    """Max over grid times of the coefficient-space norm of a - b."""
    return _max_gap(a, b, grid.times)


def _squared_mode_integrals(
    profile: ProfileFunction, weight_power: int, ts: np.ndarray
) -> np.ndarray:
    """Cumulative integral of t**w * |profile|^2 at ts, from one integrate call."""
    weight = ExpPoly.build([(weight_power, 0.0, 1.0)])
    squares = [m.squared() for m in profile.modes]
    squares = [sq.multiply(weight) for sq in squares] if weight_power else squares
    return sum(integrate(squares, ts), np.zeros(ts.shape))


def l2_time_norm(
    profile: ProfileFunction,
    grid: TimeGrid,
    weight_power: int = 0,
    minus: ProfileFunction | None = None,
) -> float:
    """Integral of t**w * |profile(t) - minus(t)|^2 over [0, t_max], analytic
    per mode (minus defaults to 0).

    The grid end stands in for infinity, so the integrand must have decayed
    by then: below 1e-14 of its peak, or below the rounding envelope of
    the difference, _ROUNDING_ULPS ulps of the coefficients that cancel in
    it (mode by mode, the coefficient scales of profile and minus).  Otherwise
    the truncation is reported as invalid rather than silently wrong.
    """
    if weight_power < 0:
        raise ValueError("weight power must be a nonnegative integer")
    operands = (profile,) if minus is None else (profile, minus)
    diff = profile if minus is None else profile - minus
    samp = diff.sample(grid.quad_points)
    integrand = grid.quad_points**weight_power * squared_norms(samp)
    peak = float(np.max(integrand))
    scales = sum(np.array([m.coefficient_scale() for m in p.modes]) for p in operands)
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * scales
    envelope = grid.t_max**weight_power * float(np.sum(rounding**2))
    if peak > 0 and integrand[-1] > max(1e-14 * peak, envelope):
        raise NonDecayingIntegrandError(
            f"integrand at t={grid.t_max:g} is {integrand[-1]:.3e}, "
            f"more than 1e-14 of its peak {peak:.3e} and than its rounding "
            f"envelope {envelope:.3e}; extend the grid"
        )
    total = _squared_mode_integrals(diff, weight_power, np.array([grid.t_max]))
    return float(total[0])


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
    return float(np.max(np.sqrt(squared_norms(sa))))


def identity_checks(
    pd: ProblemData,
    grid: TimeGrid,
    remainders: tuple[ProfileFunction, ProfileFunction],
    tol: float = 1e-8,
    superposition_tol: float = 1e-10,
) -> list[CheckReport]:
    """All closed-form decomposition identities on the grid.

    Each identity compares two independently constructed closed forms;
    residuals are measured in the vector norm and compared against
    tol * (|u0| + |u1|), the superposition of the split against
    superposition_tol * (|u0| + |u1|).  ``remainders`` are
    ``corrector_remainder(pd, j)`` for j = 1, 2.
    """
    ts = grid.times
    scale = max(pd.data_scale, 1e-30)
    tolerance = tol * scale
    eps = pd.eps
    spec = pd.spec
    reports: list[CheckReport] = []

    u_eps = exact_solution(pd)
    u_one, u_two = split_components(pd)
    splits = (corrector_split(pd, 1), corrector_split(pd, 2))

    def add(check_id: str, residual: float, note: str, tolerance=tolerance) -> None:
        reports.append(_at_most(check_id, residual, 0.0, tolerance, note))

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
        + splits[0].deriv().scale(eps),
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
        + splits[1].deriv().scale(eps),
        ts,
    )
    add(
        "identity.split_corrector_2",
        gap,
        "second split component equals eps times smoothed semigroup plus "
        "eps times the second split corrector slope",
    )

    # remainder reconstruction: split corrector = profile part + eps * remainder
    for j, (split, w) in enumerate(zip(splits, remainders), start=1):
        recon = corrector_profile(pd, j) + w.scale(eps)
        if j == 2:
            recon = recon - u_two
        add(
            f"identity.remainder_reconstruction_{j}",
            _max_gap(split, recon, ts),
            "split corrector equals its explicit profile part plus eps "
            "times the directly solved remainder"
            + (" minus the second split component" if j == 2 else ""),
        )

    # superposition of the split
    add(
        "identity.superposition",
        _max_gap(u_one + u_two, u_eps, ts),
        "the two split components add up to the solution",
        tolerance=superposition_tol * scale,
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
    pd: ProblemData, remainders: tuple[ProfileFunction, ProfileFunction]
) -> list[CheckReport]:
    """Realized initial data w(0), w'(0) of the remainder correctors,
    ``remainders`` = ``corrector_remainder(pd, j)`` for j = 1, 2.

    The remainders are solved from (-A J u0, +2 A^2 J u0) for j = 1 and
    (J v1, -2 A J v1) for j = 2, so these records check that the solved
    profiles reproduce their initial data, a check of the solver and the
    representation.  Whether that data is right, such as the positive sign
    of the first slope, is decided by identity.remainder_reconstruction_j.
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
         "solved second remainder reproduces its initial data (J v1, -2 A J v1)"),
        ("data.remainder1_initial", rem1, -lam * ju0, 2.0 * lam**2 * ju0,
         "solved first remainder reproduces its initial data "
         "(-A J u0, +2 A^2 J u0); identity.remainder_reconstruction_1 "
         "decides the slope sign"),
    ]
    reports = []
    for check_id, w, value, slope, note in expected:
        gap_val = float(np.max(np.abs(w.value(0.0).coefficients - value)))
        gap_slope = float(np.max(np.abs(w.derivative(0.0).coefficients - slope)))
        reports.append(_at_most(check_id, max(gap_val, gap_slope), 0.0, tolerance, note))
    return reports


# ---------------------------------------------------------------------------
# energy and explicit-constant inequality checks


def _energy_lhs_curves(
    pd: ProblemData, profiles: list[ProfileFunction], ts: np.ndarray
) -> list[np.ndarray]:
    """eps|p'(t)|^2 + |A^{1/2} p(t)|^2 + int_0^t |p'|^2 for each profile p,
    analytic in t.

    The dissipated integrals of all of them stream from one integrate
    call, mode-major, into each profile's sum in mode order; each
    profile's two samples are taken together, one profile at a time,
    which keeps two sample arrays alive instead of two per profile.
    """
    derivs = [p.deriv() for p in profiles]
    dissipated = [np.zeros(ts.shape) for _ in profiles]
    squares = [m.squared() for ms in zip(*(dp.modes for dp in derivs)) for m in ms]
    for j, integral in enumerate(integrate(squares, ts)):
        dissipated[j % len(profiles)] += integral
    curves = []
    for p, dp, integral in zip(profiles, derivs, dissipated):
        slope, half = sample_together((dp, p.operator_power(0.5)), ts)
        kinetic = pd.eps * squared_norms(slope)
        curves.append(kinetic + squared_norms(half) + integral)
    return curves


def energy_inequality_checks(
    pd: ProblemData,
    grid: TimeGrid,
    slack: float = 1e-8,
    remainders: tuple[ProfileFunction, ProfileFunction] | None = None,
) -> list[CheckReport]:
    """Energy bounds for the corrector ladder.

    The primary corrector is bounded by |A^{1/2}u0|^2 + 3 eps |u1|^2 and
    the half-power corrector by |A u0|^2 / 2, both with explicit
    constants.  The remainder correctors have no explicit constants, so
    when ``remainders`` = (``corrector_remainder(pd, 1)``,
    ``corrector_remainder(pd, 2)``) is given, the smallest constant making
    each bound hold is measured and reported instead of asserted.
    """
    profiles = [corrector_primary(pd), corrector_halfpower(pd)]
    if remainders is not None:
        rem1, rem2 = remainders
        profiles += [rem1, rem2]
    primary, halfpower, *remainder_curves = _energy_lhs_curves(
        pd, profiles, grid.times
    )
    explicit = [
        ("energy.primary_constant3", primary,
         norm(apply_power(pd.spec, 0.5, pd.u0)) ** 2 + 3.0 * pd.eps * norm(pd.u1) ** 2,
         "energy of the primary corrector stays below |A^(1/2)u0|^2 + 3 eps |u1|^2"),
        ("energy.halfpower_constant_half", halfpower,
         norm(apply_power(pd.spec, 1.0, pd.u0)) ** 2 / 2.0,
         "energy of the half-power corrector stays below |A u0|^2 / 2"),
    ]
    reports = [
        _at_most(check_id, float(np.max(curve)), bound, slack * max(1.0, bound), note)
        for check_id, curve, bound, note in explicit
    ]

    # measured constants for the remainder correctors
    seminorms = {
        1: norm(apply_power(pd.spec, 1.5, pd.u0)) ** 2,
        2: norm(apply_power(pd.spec, 0.5, pd.v1)) ** 2,
    }
    for j, curve in enumerate(remainder_curves, start=1):
        rhs = seminorms[j]
        lhs = float(np.max(curve))
        measured = lhs / rhs if rhs > 0 else 0.0
        reports.append(
            _measured(
                f"energy.remainder{j}_measured",
                measured,
                f"smallest constant bounding the remainder-{j} energy "
                f"by the data seminorm: {measured:.6g} (measured, "
                "no explicit constant is asserted)"
                if rhs > 0
                else f"data seminorm vanishes; remainder-{j} energy "
                f"max is {lhs:.3e}",
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
    return _at_most(
        "bound.sup_error_explicit", sup, bound, slack,
        "sup error of the first-order limit stays below the explicit "
        "eps |u1| + sqrt(eps) energy bound",
    )


def _l2_bound_report(
    check_id: str, profile: ProfileFunction, grid: TimeGrid, bound: float,
    slack: float, note: str, minus: ProfileFunction | None = None,
) -> CheckReport:
    """int_0^inf |profile - minus|^2 dt <= bound; a grid too short to stand
    in for infinity gives a FAIL whose note is the reason."""
    tolerance = slack * max(1.0, bound)
    try:
        value = l2_time_norm(profile, grid, minus=minus)
    except NonDecayingIntegrandError as exc:
        return CheckReport(check_id, False, float("-inf"), tolerance, str(exc))
    return _at_most(check_id, value, bound, tolerance, note)


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
            exact_solution(pd),
            grid,
            bound,
            slack,
            "time-integrated squared deviation from the smoothed flow "
            "stays below 2 eps^2 |A^(1/2)u0|^2 + 7 eps^3 |u1|^2",
            minus=target,
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
    sup = float(np.max(np.sqrt(squared_norms(weighted))))
    bound = eps**1.5 / 2.0 * norm(apply_power(pd.spec, 0.5, pd.v1))
    return _at_most(
        "bound.byparts_convolution", sup, bound, slack * max(1.0, bound),
        "operator-weighted convolution of the semigroup of v1 "
        "stays below eps^(3/2)/2 * |A^(1/2) v1|",
    )


def inequality_checks(
    pd: ProblemData, grid: TimeGrid, slack: float = 1e-8, sup_slack: float = 1e-10
) -> list[CheckReport]:
    """The explicit-constant inequalities of one eps: the resolvent bound for
    the initial data and the layer slope, the sup bound (with sup_slack),
    and the L2 deviation and by-parts convolution bounds (with slack).

    u1 is in the half-power range when it has no kernel component; then
    w1 = A^{-1/2} u1 bounds its semigroup integral, and otherwise that
    record says it is skipped.  A w1 that overflows certifies nothing and
    gives no record.
    """
    lam, u1 = pd.spec.eigenvalues, pd.u1.coefficients
    margin = min(resolvent_bound_margin(pd.spec, pd.eps, f) for f in (pd.u0, pd.u1, pd.v1))
    reports = [
        CheckReport(
            "bound.resolvent_halfpower", margin >= 0.0, margin, 0.0,
            "smoothed half-power norm stays below |f|^2/eps for the initial "
            "data and the layer slope",
        ),
        explicit_sup_bound(pd, grid, slack=sup_slack),
    ]
    kernel = bool(np.any((lam == 0) & (u1 != 0)))
    with np.errstate(over="ignore"):
        w = np.where(lam > 0, u1 / np.sqrt(np.where(lam > 0, lam, 1.0)), 0.0)
    w1 = SpecVector(w) if not kernel and np.all(np.isfinite(w)) else None
    reports += l2_deviation_bounds(pd, grid, w1=w1, slack=slack)
    if kernel:
        reports.append(
            CheckReport(
                "bound.l2_semigroup_range_half", True, 0.0, 0.0,
                "skipped: u1 has a stationary kernel component, so it is not "
                "in the half-power range and its semigroup flow is not square "
                "integrable in time",
            )
        )
    reports.append(byparts_convolution_bound(pd, grid, slack=slack))
    return reports


def _duhamel_convolution(
    integrand: ProfileFunction, ts: np.ndarray, eps: float
) -> np.ndarray:
    """int_0^t e^{(s-t)/eps} integrand(s) ds at the times ts, shape (len(ts), n_modes).

    Gauss-Legendre subpanels of width at most _PANEL_EPS * eps cover the
    kernel's reach (45 eps) before each right endpoint; earlier history
    enters through the exact interval-to-interval decay factor, so the
    kernel never overflows.  The nodes of consecutive intervals are sampled
    together, in one sample_together call per block: a block holds the
    intervals whose first node falls in one window of the block size (see
    _DUHAMEL_BLOCK_VALUES), so it has at most that many plus one
    interval's 230.  Each interval's weighted values are summed per mode
    by one reduceat over the block's mode-major rows.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    reach = 45.0 * eps  # kernel support: e^{-45} is below double rounding
    t_right = ts[1:]
    lo = np.maximum(ts[:-1], t_right - reach)
    width = t_right - lo
    n_sub = np.where(
        width > 0, np.maximum(np.ceil(width / (_PANEL_EPS * eps)), 1), 0
    ).astype(int)
    with_nodes = np.flatnonzero(n_sub)
    first_node = (np.cumsum(n_sub[with_nodes]) - n_sub[with_nodes]) * _GAUSS_NODES
    n_modes = len(integrand.modes)
    size = max(min(_DUHAMEL_BLOCK_VALUES // n_modes, _DUHAMEL_BLOCK_NODES), 1)
    window = first_node // size
    blocks = np.split(with_nodes, np.flatnonzero(np.diff(window)) + 1)

    # interval k's own integral goes to convo[k + 1]; the decay recursion
    # then adds the history in place
    convo = np.zeros((ts.size, n_modes))
    local = convo[1:]
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
        rows = integrand.sample(nodes).T  # mode-major, one row per mode
        rows *= weights
        local[ks] = np.add.reduceat(rows, first_sub * _GAUSS_NODES, axis=1).T

    for k in range(ts.size - 1):
        convo[k + 1] += math.exp(-(ts[k + 1] - ts[k]) / eps) * convo[k]
    return convo


def duhamel_residual(
    pd: ProblemData,
    grid: TimeGrid,
    remainder2: ProfileFunction,
    tol: float = 1e-6,
) -> list[CheckReport]:
    """Variation-of-constants representation of the second split component.

    Reconstructs the component as the exponentially weighted time
    convolution of the semigroup of v1 plus sqrt(eps) times the layer
    source (built from ``remainder2 = corrector_remainder(pd, 2)``), using
    panel-wise Gauss quadrature refined on the eps scale, and compares
    with the closed form.
    """
    eps = pd.eps
    spec = pd.spec
    ts = grid.times
    _, u_two = split_components(pd)
    source = layer_equation_source(pd, remainder2)
    sm_v1 = kernel_profile(spec, pd.v1.coefficients, 0, 0.0)
    integrand = sm_v1 + source.scale(math.sqrt(eps))
    convo = _duhamel_convolution(integrand, ts, eps)

    residual = float(np.max(np.sqrt(squared_norms(u_two.sample(ts) - convo))))
    return [
        _at_most(
            "duhamel.representation", residual, 0.0, tol * max(norm(pd.v1), 1e-30),
            "second split component matches its exponentially weighted "
            "convolution representation (quadrature-limited tolerance)",
        )
    ]


# ---------------------------------------------------------------------------
# dissipation functional checks


def _dissipation_integral_curve(
    spec: Spectrum, f: SpecVector, n: int, ts: np.ndarray, semigroup: bool = False
) -> np.ndarray:
    """Cumulative weighted dissipation (2^n/n!) int_0^t s^n |A^{(n+1)/2}e^{-sA}f|^2.

    The moments at the real rates -2 lam come from one moment_tables call.
    With ``semigroup`` the semigroup part |e^{-tA}f|^2/2 is added mode by
    mode as well, which gives the whole functional of max_reg_functional.
    """
    lam = spec.eigenvalues
    c2 = f.coefficients**2
    factor = 2.0**n / math.factorial(n)
    tables = moment_tables([(-2.0 * x, [n]) for x in lam if x > 0], ts)
    curve = np.zeros(ts.shape)
    for i in range(len(spec)):
        if semigroup:
            curve += c2[i] * np.exp(-2.0 * lam[i] * ts) / 2.0
        if lam[i] > 0:
            curve += factor * lam[i] ** (n + 1) * c2[i] * next(tables)[n].real
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
            reports.append(
                _at_most(
                    "maxreg.constant_n0", gap, 0.0, 1e-8 * scale,
                    "order-0 dissipation functional is identically |f|^2/2",
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
        reports.append(
            _at_most(
                f"maxreg.limit_n{n}", limit_gap, 0.0, 1e-6 * scale,
                f"order-{n} functional reaches |f|^2/2 once every "
                "positive mode has relaxed (t ~ 20 / min positive eigenvalue)",
            )
        )
        # documentation of the finite-time equality gap (not enforced)
        interior = mn[(grid.times > 0.0) & (grid.times < t_limit)]
        max_gap = float(half_norm2 - np.min(interior)) if interior.size else 0.0
        reports.append(
            _measured(
                f"maxreg.finite_time_gap_n{n}",
                max_gap,
                f"order-{n} functional sits strictly below |f|^2/2 at "
                f"finite times (largest observed gap {max_gap:.3e}); a "
                "claim of equality at every finite time does not hold "
                "for n >= 1, only the bound and the limit do",
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


def _candidate(pd: ProblemData, comparison: str, v: ProfileFunction) -> ProfileFunction:
    """The profile a comparison measures against the exact solution (against
    its derivative for cor2); v is the parabolic profile."""
    if comparison == "order0_thm11i":
        return v
    if comparison == "order1_theta":
        return v + theta_layer(pd)
    if comparison == "order2_mainthm":
        return main_expansion_profile(pd)
    if comparison == "cor1":
        if not pd.il0_satisfied:
            raise ValueError("cor1 requires compatible data u1 + A u0 = 0")
        return v - kernel_profile(pd.spec, pd.u0.coefficients, 1, 2.0, pd.eps)
    return derivative_expansion_profile(pd)


def run_rate_experiment(
    spec: Spectrum,
    u0: SpecVector,
    u1: SpecVector,
    eps_values,
    comparisons,
    grid: TimeGrid,
) -> dict[str, tuple[ErrorCurve, RateFit] | ValueError]:
    """Sup-norm errors of the requested comparisons over one eps sweep, with
    a rate fit each: {comparison: (curve, fit), or the ValueError it raised}.

    eps is the outer loop.  Per eps the grid gains layer points for that
    eps, so the transient peak is always sampled, and the exact solution u
    and each requested candidate are built once and sampled together in one
    ``sample_together`` call (with u' for cor2).  Each error is the largest
    row norm of a candidate's samples minus its reference's, so it equals
    ``sup_norm_error`` of the pair bit for bit.  The two order-0 statements
    share one curve and one fit.  Unknown comparison names raise up front,
    and with no comparison nothing is sampled.
    """
    unknown = [c for c in comparisons if c not in COMPARISONS]
    if unknown:
        raise ValueError(f"unknown comparison {unknown[0]!r}")
    if not comparisons:
        return {}
    eps_values = sorted((float(e) for e in eps_values), reverse=True)
    if len(eps_values) < 3:
        error = ValueError("need at least 3 eps values for a rate fit")
        return {c: error for c in comparisons}
    # one entry per profile pair: its error list, or the ValueError it raised
    pairs = {_SAME_PAIR.get(c, c): [] for c in comparisons}
    for eps in eps_values:
        pd = ProblemData(spec, eps, u0, u1)
        u = exact_solution(pd)
        v = parabolic_profile(pd)
        profiles, measured = [u], []
        for name, errors in pairs.items():
            if isinstance(errors, ValueError):
                continue
            try:
                profiles.append(_candidate(pd, name, v))
            except ValueError as exc:
                pairs[name] = exc
                continue
            measured.append(name)
        if "cor2" in measured:
            profiles.append(u.deriv())
        samples = sample_together(profiles, grid.with_layer_points([eps]).times)
        for k, name in enumerate(measured, start=1):
            # in place: fresh wide arrays cost page faults
            samples[k] -= samples[-1] if name == "cor2" else samples[0]
            pairs[name].append(float(np.max(np.sqrt(squared_norms(samples[k])))))
        del samples  # free this eps's samples before the next are made
    for name, errors in pairs.items():
        if isinstance(errors, ValueError):
            continue
        try:
            curve = ErrorCurve(np.array(eps_values), np.array(errors))
            pairs[name] = curve, fit_rate(curve)
        except ValueError as exc:
            pairs[name] = exc
    return {c: pairs[_SAME_PAIR.get(c, c)] for c in comparisons}
