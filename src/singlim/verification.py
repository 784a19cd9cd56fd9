"""Verification layer: norms over time, inequality checks, rate regression.

All time integrals of closed-form profiles are exact (through
profiles.squared_integrals); the module's one quadrature rule,
Gauss-Legendre panels (_gauss_panels), serves the Duhamel check and the
cross-check of the dissipation functionals.  Each decomposition identity
compares two independent constructions (a split corrector against its
profile part plus eps times the directly solved remainder, for instance),
so the identities keep holding as eps -> 0 rather than measure rounding.  They
are one table of rows (id, a, b, note), measured in one pass by
_sup_norm_errors, the one sup-over-times gap of the module, which the
rate errors take too.  The L2 bounds derive w1 = A^{-1/2} u1 from the
data themselves.  Each per-eps check group takes
(pd, grid, tol), where tol maps the names of TOLERANCES to their values,
and reads its own keys.  Checks return serializable reports with the
measured margin, the tolerance used, and a provenance note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import (ProblemData, ProfileFunction, kernel_profile, norms_together,
                       sample_together, segment_sums, squared_integrals,
                       squared_norms_together)
from .spectral import Spectrum, norm
from .timegrid import TimeGrid

__all__ = [
    "ErrorCurve",
    "RateFit",
    "CheckReport",
    "NonDecayingIntegrandError",
    "COMPARISONS",
    "TOLERANCES",
    "sup_norm_error",
    "l2_time_norm",
    "max_reg_functional",
    "resolvent_bound",
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
    "rate_errors",
    "run_rate_experiment",
    "rate_checks",
]

# Error values below this are treated as rounding noise by the rate fit.
NOISE_FLOOR = 1e-14

# The checks' default tolerances, by config field tolerances.<name> (cli.FIELDS).
TOLERANCES = {"identity": 1e-8, "superposition": 1e-10, "inequality_slack": 1e-8,
              "sup_bound_slack": 1e-10, "duhamel": 1e-6}


def _cor1_pair(pd: ProblemData) -> tuple[ProfileFunction, ProfileFunction]:
    if not pd.il0_satisfied:
        raise ValueError("cor1 requires compatible data u1 + A u0 = 0")
    # il0_satisfied holds |v1| to a tolerance, not to 0: for data that are
    # only nearly compatible, cor1's curve keeps the layer terms
    # eps v1 (e^{-tA} - e^{-t/eps}), which are below that tolerance
    return pd.solution, pd.main_expansion


# The rate statements error <= C eps^p: comparison -> (p, the (reference,
# candidate) profile pair it measures in a problem, or the ValueError of a
# precondition).
_STATEMENTS = {
    "order0_thm11i": (0.5, lambda pd: (pd.solution, pd.parabolic)),
    "order0_thm11ii": (1.0, lambda pd: (pd.solution, pd.parabolic)),
    "order1_theta": (1.0, lambda pd: (pd.solution, pd.parabolic + pd.theta)),
    "order2_mainthm": (1.5, lambda pd: (pd.solution, pd.main_expansion)),
    "cor1": (1.5, _cor1_pair),
    "cor2": (1.5, lambda pd: (pd.solution.deriv(), pd.derivative_expansion)),
}

COMPARISONS = tuple(_STATEMENTS)


# Gauss-Legendre nodes per panel of the module's quadrature, and the
# widest Duhamel subpanel in units of eps.  The 10-node rule integrates
# e^x on [-a, a] to 2.3e-16 relative at a = 2, 9.9e-16 at a = 3 and
# 1.1e-14 at a = 3.5 (measured at 40 digits), so 6 eps panels keep the kernel
# e^{(s-t)/eps} at rounding level.  They also cover the default grid's
# step at eps = 1e-3 (20/1999 = 10.005 eps) in two panels, where 5 eps
# panels would take three.
_GAUSS_NODES = 10
_PANEL_EPS = 6.0

# The 10-point Gauss-Legendre rule on [-1, 1], bit for bit as
# np.polynomial.legendre.leggauss(10) gives it (the rule is symmetric);
# written out, so that no run imports numpy.polynomial.
_GL_HALF_NODES = np.array([
    0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
])
_GL_HALF_WEIGHTS = np.array([
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _gauss_panels(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nodes and weights of the 10-point Gauss-Legendre rule on each
    panel [left[k], right[k]], flat and panel by panel (_GAUSS_NODES each)."""
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


# The largest gap, relative to max(1, |f|^2), between a dissipation curve
# and its quadrature cross-check (max_reg_functional).
_DISSIPATION_GATE = 1e-6

# The Duhamel quadrature evaluates the nodes of consecutive grid intervals
# together, in blocks of at most _DUHAMEL_BLOCK_NODES nodes (plus one
# interval's), and reduces each block one mode at a time
# (profiles.segment_sums): a mode's row of a block is 64 KB, and the
# per-mode working arrays of its evaluation stay near 100 KB whatever the
# grid and the number of modes (the scaling and squaring of a 3-node
# difference holds a dozen of them).  Longer rows take fewer numpy calls
# per term; on dirichlet-32 the quadrature's time levels off from 8192
# nodes on, while its peak memory keeps growing.
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
    """The check value <= bound + tolerance, with margin bound + tolerance - value.

    An overflow certifies nothing: when the value, the bound or the margin
    is not finite, the record is a FAIL with margin -inf, and its note
    gives the numbers.
    """
    margin = bound + tolerance - value
    if not all(math.isfinite(x) for x in (value, bound, margin)):
        return CheckReport(
            check_id, False, float("-inf"), tolerance,
            f"not finite: value {value:.6g}, bound {bound:.6g}, tolerance "
            f"{tolerance:.6g}; {note}",
        )
    return CheckReport(check_id, value <= bound + tolerance, margin, tolerance, note)


def _measured(check_id: str, value: float, note: str) -> CheckReport:
    """A record that only measures: it passes, with the value as its margin
    and an infinite tolerance.  A value that is not finite measures nothing:
    the record is a FAIL with margin -inf, and its note gives the value."""
    if not math.isfinite(value):
        return CheckReport(
            check_id, False, float("-inf"), float("inf"),
            f"not finite: value {value:.6g}; {note}",
        )
    return CheckReport(check_id, True, value, float("inf"), note)


def _norm_sq(f: np.ndarray) -> float:
    """|f|^2, inf where that overflows (norm(f) ** 2 would raise)."""
    return norm(f) * norm(f)


def _dissipation_gate(f: np.ndarray) -> float:
    """The dissipation cross-check's gate, _DISSIPATION_GATE max(1, |f|^2):
    the one value max_reg_functional tests and max_reg_checks reports."""
    return _DISSIPATION_GATE * max(1.0, _norm_sq(f))


def _sup_norm_errors(pairs, times) -> list[float]:
    """[sup_norm_error(a, b, times) for a, b in pairs], bit for bit: every
    distinct profile of the pairs is evaluated once, in one norms_together
    call that reduces each pair's a - b mode by mode.  Its sum of squares
    at each time has the bits of that pair alone, and so does the
    sample_norms fallback, which keeps every finite sum."""
    profiles = {id(p): p for pair in pairs for p in pair}
    index = {key: j for j, key in enumerate(profiles)}
    at = [(index[id(a)], index[id(b)]) for a, b in pairs]
    gaps = norms_together(
        list(profiles.values()), times,
        lambda i, values: [values[a] - values[b] for a, b in at],
    )
    return [float(np.max(gap)) for gap in gaps]


def sup_norm_error(a: ProfileFunction, b: ProfileFunction, times) -> float:
    """Max over times of the coefficient-space norm of a - b, reduced mode by
    mode (norms_together).  times is an array of times or a problem's
    evaluation table of one (ProblemData.sample_times); the value is the
    same bit for bit."""
    return _sup_norm_errors([(a, b)], times)[0]


def l2_time_norm(
    profile: ProfileFunction, grid: TimeGrid, minus: ProfileFunction | None = None,
    times=None,
) -> float:
    """Integral of |profile(t) - minus(t)|^2 over [0, t_max], analytic per
    mode (minus defaults to 0).

    The grid end stands in for infinity, so the integrand must have decayed
    by then: below 1e-14 of its peak over grid.times, or below the rounding
    envelope of the difference, _ROUNDING_ULPS ulps of the coefficients
    that cancel in it (mode by mode, the coefficient scales of profile and
    minus).  Otherwise the truncation is reported as invalid rather than
    silently wrong.  The integrand is sampled on times, a problem's
    evaluation table of grid.times (ProblemData.sample_times), or on
    grid.times itself by default; the value is the same.
    """
    operands = (profile,) if minus is None else (profile, minus)
    diff = profile if minus is None else profile - minus
    (integrand,) = squared_norms_together(
        (diff,), grid.times if times is None else times
    )
    peak = float(np.max(integrand))
    scales = sum(p.coefficient_scales() for p in operands)
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * scales
    envelope = float(np.sum(rounding**2))
    if peak > 0 and integrand[-1] > max(1e-14 * peak, envelope):
        raise NonDecayingIntegrandError(
            f"integrand at t={grid.t_max:g} is {integrand[-1]:.3e}, "
            f"more than 1e-14 of its peak {peak:.3e} and than its rounding "
            f"envelope {envelope:.3e}; extend the grid"
        )
    return float(squared_integrals((diff,), [grid.t_max])[0][0])


def max_reg_functional(
    spec: Spectrum, f: np.ndarray, n: int, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Dissipation functional |e^{-tA}f|^2/2 + (2^n/n!) int_0^t s^n |A^{(n+1)/2}e^{-sA}f|^2 ds
    at every grid time, and its cumulative dissipation (the integral) alone.

    The integral is exact per mode, as the integral of the squared profile
    sqrt(2^n/n!) A^{(n+1)/2} e^{-tA} f weighted by t^n.  It is cross-checked
    against the 10-point Gauss-Legendre rule of the Duhamel check, on one
    panel per interval of the grid times merged with the times h0 2^j,
    h0 = 3.5 / max(lam): on [0, h0] the fastest factor e^{-2 lam s} spans
    e^x on [-3.5, 3.5], which the rule integrates to 1.1e-14 relative, and
    beyond h0 it keeps at most e^{-7} of its mass, on panels no wider than
    their left end, as every slower mode does on its own scale.  A gap
    above _DISSIPATION_GATE max(1, |f|^2), or one that is not a number,
    raises ArithmeticError.
    """
    if n not in (0, 1, 2):
        raise ValueError("weight order n must be 0, 1, or 2")
    if len(f) != len(spec):
        raise ValueError("vector length must match the spectrum")
    ts = grid.times
    weighted = kernel_profile(
        spec, f, 0, (n + 1) / 2, math.sqrt(2.0**n / math.factorial(n))
    )
    (dissipated,) = squared_integrals((weighted,), ts, n)
    (semigroup,) = squared_norms_together((kernel_profile(spec, f, 0, 0.0),), ts)
    curve = semigroup / 2.0 + dissipated

    # quadrature cross-check of the integral part; a zero-width panel, where
    # an h0 2^j is a grid time, adds exactly 0
    edges = ts
    top = float(np.max(spec.eigenvalues))
    if top > 0:
        h0 = 3.5 / top
        count = math.floor(math.log2(grid.t_max) - math.log2(h0)) + 1
        edges = np.sort(np.concatenate([ts, np.ldexp(h0, np.arange(count))]))
    nodes, weights = _gauss_panels(edges[:-1], edges[1:])
    (integrand,) = squared_norms_together((weighted,), nodes)
    panels = (nodes**n * integrand * weights).reshape(-1, _GAUSS_NODES).sum(axis=1)
    quad = np.concatenate(([0.0], np.cumsum(panels)))[np.searchsorted(edges, ts)]
    gate = _dissipation_gate(f)
    # taken on the whole curve, so that a semigroup part that is not finite
    # fails the gate too
    gap = float(np.max(np.abs(curve - (semigroup / 2.0 + quad))))
    if not gap <= gate:
        raise ArithmeticError(
            f"analytic and quadrature dissipation curves disagree by {gap:.3e}, "
            f"not within the cross-check gate {gate:.3e}"
        )
    return curve, dissipated


def resolvent_bound(spec: Spectrum, eps: float, f: np.ndarray) -> CheckReport:
    """The record of |A^{1/2} J_eps f|^2 <= (1/eps) |f|^2, with tolerance 0:
    its margin is nonnegative when the bound holds."""
    half = spec.eigenvalues**0.5 * (f / (1.0 + eps * spec.eigenvalues))
    return _at_most(
        "bound.resolvent_halfpower", _norm_sq(half), (1.0 / eps) * _norm_sq(f), 0.0,
        "smoothed half-power norm stays below |f|^2/eps for the initial "
        "data and the layer slope",
    )


# ---------------------------------------------------------------------------
# decomposition identity checks


def _identity_rows(pd: ProblemData) -> list[tuple]:
    """The decomposition identities of pd, as rows (check id, a, b, note) of
    the identity a = b."""
    eps, spec = pd.eps, pd.spec
    u_eps = pd.solution
    u_one, u_two = pd.splits
    split_1, split_2 = pd.split_correctors
    part_1, part_2 = pd.corrector_profiles
    remainder_1, remainder_2 = pd.remainders
    return [
        ("identity.primary_decomposition", u_eps,
         kernel_profile(spec, pd.u0 + eps * pd.ju1, 0, 0.0)
         + pd.corrector_primary.deriv().scale(eps),
         "solution equals smoothed semigroup flow plus eps times the "
         "primary corrector slope"),
        ("identity.halfpower_decomposition", u_one,
         pd.parabolic + pd.corrector_halfpower.operator_power(0.5).scale(eps),
         "first split component equals the semigroup flow plus eps times "
         "the half-power corrector (forcing sign chosen to make this hold)"),
        ("identity.split_corrector_1", u_one,
         kernel_profile(spec, pd.ju0, 0, 0.0) + split_1.deriv().scale(eps),
         "first split component equals smoothed semigroup plus eps times "
         "the first split corrector slope"),
        ("identity.split_corrector_2", u_two,
         kernel_profile(spec, pd.jv1, 0, 0.0).scale(eps) + split_2.deriv().scale(eps),
         "second split component equals eps times smoothed semigroup plus "
         "eps times the second split corrector slope"),
        ("identity.remainder_reconstruction_1", split_1,
         part_1 + remainder_1.scale(eps),
         "split corrector equals its explicit profile part plus eps "
         "times the directly solved remainder"),
        ("identity.remainder_reconstruction_2", split_2,
         part_2 + remainder_2.scale(eps) - u_two,
         "split corrector equals its explicit profile part plus eps "
         "times the directly solved remainder minus the second split component"),
        ("identity.superposition", u_one + u_two, u_eps,
         "the two split components add up to the solution"),
        ("identity.layer_relaxation", u_two.deriv().scale(eps) + u_two,
         pd.v1_flow.scale(eps) + pd.layer_source.scale(eps**1.5),
         "eps * (second split)' + (second split) equals eps times the "
         "semigroup of v1 plus eps^(3/2) times the layer source"),
    ]


def identity_checks(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """All closed-form decomposition identities on the grid.

    Each identity compares two independently constructed closed forms;
    residuals are measured in the vector norm and compared against
    tol["identity"] * (|u0| + |u1|), the superposition of the split against
    tol["superposition"] * (|u0| + |u1|).  The gaps of all rows are taken
    in one pass (_sup_norm_errors) on the problem's evaluation table of
    grid.times, each with the bits sup_norm_error gives its row.
    """
    scale = max(pd.data_scale, 1e-30)
    tolerances = {"identity.superposition": tol["superposition"]}
    rows = _identity_rows(pd)
    gaps = _sup_norm_errors([(a, b) for _, a, b, _ in rows], pd.sample_times(grid.times))
    return [
        _at_most(check_id, gap, 0.0,
                 tolerances.get(check_id, tol["identity"]) * scale, note)
        for (check_id, _, _, note), gap in zip(rows, gaps)
    ]


def remainder_data_checks(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """Realized initial data w(0), w'(0) of the remainder correctors.

    The remainders are solved from (-A J u0, +2 A^2 J u0) for j = 1 and
    (J v1, -2 A J v1) for j = 2, so these records check that the solved
    profiles reproduce their initial data, a check of the solver and the
    representation.  Whether that data is right, such as the positive sign
    of the first slope, is decided by identity.remainder_reconstruction_j.
    The records are taken at t = 0, to 1e-8 (|u0| + |u1|) max(1, max lam)^2
    (grid and tol are unused); a tolerance that overflows is inf, and
    _at_most FAILs the record.
    """
    lam = pd.spec.eigenvalues
    scale = max(pd.data_scale, 1e-30)
    rem1, rem2 = pd.remainders
    ju0, jv1 = pd.ju0, pd.jv1
    with np.errstate(over="ignore"):
        tolerance = 1e-8 * scale * max(1.0, float(np.max(lam) ** 2))
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
        w0, w1 = sample_together((w, w.deriv()), np.zeros(1))
        gap = float(np.max(np.abs(np.concatenate([w0 - value, w1 - slope]))))
        reports.append(_at_most(check_id, gap, 0.0, tolerance, note))
    return reports


# ---------------------------------------------------------------------------
# energy and explicit-constant inequality checks


def _energy_lhs_curves(
    pd: ProblemData, profiles: list[ProfileFunction], ts: np.ndarray
) -> list[np.ndarray]:
    """eps|p'(t)|^2 + |A^{1/2} p(t)|^2 + int_0^t |p'|^2 for each profile p,
    analytic in t, at the read-only times ts.

    The dissipated integrals come from one squared_integrals call; each
    profile's two squared norms are reduced together, one profile at a
    time, on the problem's evaluation table of ts.
    """
    derivs = [p.deriv() for p in profiles]
    times = pd.sample_times(ts)
    curves = []
    for p, dp, integral in zip(profiles, derivs, squared_integrals(derivs, ts)):
        slope, half = squared_norms_together((dp, p.operator_power(0.5)), times)
        curves.append(pd.eps * slope + half + integral)
    return curves


def energy_inequality_checks(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """Energy bounds for the corrector ladder.

    The primary corrector is bounded by |A^{1/2}u0|^2 + 3 eps |u1|^2 and
    the half-power corrector by |A u0|^2 / 2, both with explicit
    constants.  The remainder correctors have no explicit constants, so
    the smallest constant making each bound hold is measured and reported
    instead of asserted.  The explicit bounds take tol["inequality_slack"].
    """
    lam = pd.spec.eigenvalues
    profiles = [pd.corrector_primary, pd.corrector_halfpower, *pd.remainders]
    # data whose squares overflow give curves that are not finite, and
    # _at_most turns those into FAIL records
    with np.errstate(over="ignore", invalid="ignore"):
        primary, halfpower, *remainder_curves = _energy_lhs_curves(
            pd, profiles, grid.times
        )
    explicit = [
        ("energy.primary_constant3", primary,
         _norm_sq(lam**0.5 * pd.u0) + 3.0 * pd.eps * _norm_sq(pd.u1),
         "energy of the primary corrector stays below |A^(1/2)u0|^2 + 3 eps |u1|^2"),
        ("energy.halfpower_constant_half", halfpower,
         _norm_sq(lam * pd.u0) / 2.0,
         "energy of the half-power corrector stays below |A u0|^2 / 2"),
    ]
    reports = [
        _at_most(check_id, float(np.max(curve)), bound,
                 tol["inequality_slack"] * max(1.0, bound), note)
        for check_id, curve, bound, note in explicit
    ]

    # measured constants for the remainder correctors
    with np.errstate(over="ignore"):  # an overflow makes a not-finite record
        seminorms = {
            1: _norm_sq(lam**1.5 * pd.u0),
            2: _norm_sq(lam**0.5 * pd.v1),
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
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> CheckReport:
    """Explicit first-order bound: sup_t |u_eps - e^{-tA}u0| <=
    eps|u1| + sqrt(eps) * (|A^{1/2}u0|^2 + 3 eps |u1|^2)^{1/2}, with the
    absolute slack tol["sup_bound_slack"].  The root is taken as a hypot,
    which stays finite where the squares would overflow."""
    sup = sup_norm_error(pd.solution, pd.parabolic, pd.sample_times(grid.times))
    half, size = norm(pd.spec.eigenvalues**0.5 * pd.u0), norm(pd.u1)
    root = math.hypot(half, math.sqrt(3.0 * pd.eps) * size)
    bound = pd.eps * size + math.sqrt(pd.eps) * root
    return _at_most(
        "bound.sup_error_explicit", sup, bound, tol["sup_bound_slack"],
        "sup error of the first-order limit stays below the explicit "
        "eps |u1| + sqrt(eps) energy bound",
    )


def _l2_bound_report(
    check_id: str, pd: ProblemData, profile: ProfileFunction, grid: TimeGrid,
    bound: float, tol: dict, note: str, minus: ProfileFunction | None = None,
) -> CheckReport:
    """int_0^inf |profile - minus|^2 dt <= bound, with the slack
    tol["inequality_slack"], its tail tested on pd's evaluation table of
    grid.times; a grid too short to stand in for infinity gives a FAIL
    whose note is the reason."""
    tolerance = tol["inequality_slack"] * max(1.0, bound)
    try:
        # an integral that overflows is not finite, and _at_most FAILs it
        with np.errstate(over="ignore", invalid="ignore"):
            value = l2_time_norm(profile, grid, minus, pd.sample_times(grid.times))
    except NonDecayingIntegrandError as exc:
        return CheckReport(check_id, False, float("-inf"), tolerance, str(exc))
    return _at_most(check_id, value, bound, tolerance, note)


def l2_deviation_bounds(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """Squared-in-time bounds for the deviation from the smoothed flow.

    Checks int_0^inf |u_eps - e^{-tA}(u0 + eps u1)|^2 dt against
    2 eps^2 |A^{1/2}u0|^2 + 7 eps^3 |u1|^2, and the semigroup integral
    int_0^inf |e^{-tA}u1|^2 dt against |w1|^2 / 2 for w1 = A^{-1/2} u1.
    u1 is in the half-power range when it has no kernel component;
    otherwise the range record says it is skipped.  A w1 that overflows
    certifies nothing and gives no record.
    """
    eps, spec = pd.eps, pd.spec
    lam, u1 = spec.eigenvalues, pd.u1
    bound = 2.0 * eps**2 * _norm_sq(lam**0.5 * pd.u0) + 7.0 * eps**3 * _norm_sq(u1)
    reports = [
        _l2_bound_report(
            "bound.l2_deviation_constants_2_7", pd, pd.solution, grid, bound, tol,
            "time-integrated squared deviation from the smoothed flow "
            "stays below 2 eps^2 |A^(1/2)u0|^2 + 7 eps^3 |u1|^2",
            minus=kernel_profile(spec, pd.u0 + eps * u1, 0, 0.0),
        )
    ]
    with np.errstate(over="ignore"):
        w1 = np.where(lam > 0, u1 / np.sqrt(np.where(lam > 0, lam, 1.0)), 0.0)
    if np.any((lam == 0) & (u1 != 0)):
        reports.append(
            CheckReport(
                "bound.l2_semigroup_range_half", True, 0.0, 0.0,
                "skipped: u1 has a stationary kernel component, so it is not "
                "in the half-power range and its semigroup flow is not square "
                "integrable in time",
            )
        )
    elif np.all(np.isfinite(w1)):
        reports.append(
            _l2_bound_report(
                "bound.l2_semigroup_range_half", pd, kernel_profile(spec, u1, 0, 0.0),
                grid, _norm_sq(w1) / 2.0, tol,
                "semigroup integral of u1 in the half-power range "
                "stays below |w1|^2 / 2",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# convolution (variation-of-constants) representation


def byparts_convolution_bound(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> CheckReport:
    """Integrated-by-parts bound for the operator-weighted convolution:
    sup_t |eps int_0^t e^{(s-t)/eps} A e^{-sA} v1 ds| <= eps^{3/2}/2 * |A^{1/2}v1|,
    with the slack tol["inequality_slack"].

    The convolution is exact per mode (ProblemData.weighted_convolution),
    and reduced to its norm at each time mode by mode (norms_together).
    """
    (norms,) = norms_together((pd.weighted_convolution,), grid.times)
    sup = float(np.max(norms))
    with np.errstate(over="ignore"):  # an overflow makes a not-finite record
        bound = pd.eps**1.5 / 2.0 * norm(pd.spec.eigenvalues**0.5 * pd.v1)
    return _at_most(
        "bound.byparts_convolution", sup, bound,
        tol["inequality_slack"] * max(1.0, bound),
        "operator-weighted convolution of the semigroup of v1 "
        "stays below eps^(3/2)/2 * |A^(1/2) v1|",
    )


def inequality_checks(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """The explicit-constant inequalities of one eps: the resolvent bound for
    the initial data and the layer slope, the sup bound, and the L2
    deviation and by-parts convolution bounds, each with its slack in tol."""
    return [
        # the f with the least margin; one that is not finite has margin -inf
        min(
            (resolvent_bound(pd.spec, pd.eps, f) for f in (pd.u0, pd.u1, pd.v1)),
            key=lambda r: r.margin,
        ),
        explicit_sup_bound(pd, grid, tol),
        *l2_deviation_bounds(pd, grid, tol),
        byparts_convolution_bound(pd, grid, tol),
    ]


def _duhamel_convolution(
    integrand: ProfileFunction, ts: np.ndarray, eps: float
) -> np.ndarray:
    """int_0^t e^{(s-t)/eps} integrand(s) ds at the times ts, shape (len(ts), n_modes).

    Gauss-Legendre subpanels of width at most _PANEL_EPS * eps cover the
    kernel's reach (45 eps) before each right endpoint; earlier history
    enters through the exact interval-to-interval decay factor, so the
    kernel never overflows.  The nodes of consecutive intervals are
    evaluated together: a block holds the intervals whose first node falls
    in one window of _DUHAMEL_BLOCK_NODES nodes, so it has at most that
    many plus one interval's 80 (8 panels).  profiles.segment_sums
    evaluates a block one mode at a time and sums each interval's weighted
    values straight into that mode's column of the result, so the values
    are the same whatever the block size.

    The panels are laid out as offsets from the right endpoint, and the
    kernel is e^{offset/eps}, so it keeps its digits at small eps: an
    absolute node time near t = 20 is rounded by ulp(20), which is
    3.6e-6 eps at eps = 1e-9.
    """
    reach = 45.0 * eps  # kernel support: e^{-45} is below double rounding
    t_right = ts[1:]
    width = np.minimum(np.diff(ts), reach)
    n_sub = np.where(
        width > 0, np.maximum(np.ceil(width / (_PANEL_EPS * eps)), 1), 0
    ).astype(int)
    with_nodes = np.flatnonzero(n_sub)
    first_node = (np.cumsum(n_sub[with_nodes]) - n_sub[with_nodes]) * _GAUSS_NODES
    window = first_node // _DUHAMEL_BLOCK_NODES
    blocks = np.split(with_nodes, np.flatnonzero(np.diff(window)) + 1)

    # interval k's own integral goes to convo[k + 1]; the decay recursion
    # then adds the history in place
    convo = np.zeros((ts.size, len(integrand.spectrum)))
    local = convo[1:]
    for ks in blocks:
        # subpanel edges as offsets from t_right, np.linspace(-width, 0,
        # n_sub + 1) per interval
        counts = n_sub[ks]
        first_sub = np.cumsum(counts) - counts
        k_sub = np.repeat(ks, counts)
        j_sub = np.arange(k_sub.size) - np.repeat(first_sub, counts)
        span = width[k_sub]
        step = span / n_sub[k_sub]
        left = j_sub * step - span
        right = np.where(j_sub + 1 == n_sub[k_sub], 0.0, (j_sub + 1) * step - span)
        offsets, weights = _gauss_panels(left, right)
        weights *= np.exp(offsets / eps)
        nodes = np.repeat(t_right[k_sub], _GAUSS_NODES) + offsets
        segment_sums(integrand, nodes, weights, first_sub * _GAUSS_NODES, local, ks)

    rows = list(convo)
    times = ts.tolist()
    for a, b, prev, row in zip(times, times[1:], rows, rows[1:]):
        row += math.exp(-(b - a) / eps) * prev
    return convo


def duhamel_residual(
    pd: ProblemData, grid: TimeGrid, tol: dict = TOLERANCES
) -> list[CheckReport]:
    """Variation-of-constants representation of the second split component.

    Reconstructs the component as the exponentially weighted time
    convolution of the semigroup of v1 plus sqrt(eps) times the layer
    source, using panel-wise Gauss quadrature refined on the eps scale,
    and compares with the closed form, sampled on the problem's evaluation
    table of grid.times, to tol["duhamel"] |v1|; the gap is reduced to its
    norm mode by mode.  The quadrature nodes are evaluated once each, on
    tables of their own, and reduced mode by mode too.
    """
    eps = pd.eps
    ts = grid.times
    _, u_two = pd.splits
    integrand = pd.v1_flow + pd.layer_source.scale(math.sqrt(eps))
    convo = _duhamel_convolution(integrand, ts, eps)

    (gaps,) = norms_together(
        (u_two,), pd.sample_times(ts), lambda i, closed: [closed[0] - convo[:, i]]
    )
    residual = float(np.max(gaps))
    return [
        _at_most(
            "duhamel.representation", residual, 0.0,
            tol["duhamel"] * max(norm(pd.v1), 1e-30),
            "second split component matches its exponentially weighted "
            "convolution representation (quadrature-limited tolerance)",
        )
    ]


# ---------------------------------------------------------------------------
# dissipation functional checks


def max_reg_checks(
    spec: Spectrum, f: np.ndarray, grid: TimeGrid
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
    half_norm2 = _norm_sq(f) / 2.0
    scale = max(1.0, _norm_sq(f))
    min_pos = spec.min_positive
    t_limit = grid.t_max if min_pos is None else min(grid.t_max, 20.0 / min_pos)
    for n in (0, 1, 2):
        try:
            # data whose squares overflow give curves that are not finite,
            # and the cross-check turns those into FAIL records
            with np.errstate(over="ignore", invalid="ignore"):
                mn, dissipated = max_reg_functional(spec, f, n, grid)
        except ArithmeticError as exc:
            # the closed form failed its quadrature cross-check: every record
            # of this order is a FAIL whose note gives the gap
            kinds = (
                ["monotone_bounded", "limit", "finite_time_gap"] if n else ["constant"]
            )
            tol = _dissipation_gate(f)
            reports.extend(
                CheckReport(f"maxreg.{k}_n{n}", False, -np.inf, tol, str(exc)) for k in kinds
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
        drops = float(np.min(np.diff(dissipated)))
        overshoot = float(np.max(mn - half_norm2))
        reports.append(
            _at_most(
                f"maxreg.monotone_bounded_n{n}",
                float(np.maximum(-drops, overshoot)),  # a NaN in either stays
                0.0,
                1e-8 * scale,
                f"order-{n} cumulative dissipation is nondecreasing and "
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
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
    )


def rate_errors(pd: ProblemData, comparisons, ts) -> dict[str, float | ValueError]:
    """{comparison: its sup-norm error at pd's eps over the times ts, or the
    ValueError its pair raised}.  Every distinct profile of the pairs is
    evaluated once, in one pass (_sup_norm_errors), and comparisons that
    name the same two profiles share one error; each error equals
    ``sup_norm_error`` of its pair bit for bit."""
    unknown = [c for c in comparisons if c not in COMPARISONS]
    if unknown:
        raise ValueError(f"unknown comparison {unknown[0]!r}")
    errors, pairs = {}, {}  # (reference id, candidate id) -> (pair, its comparisons)
    for name in comparisons:
        try:
            pair = _STATEMENTS[name][1](pd)
        except ValueError as exc:
            # a fresh error without the traceback, whose frames hold pd
            errors[name] = ValueError(*exc.args)
            continue
        pairs.setdefault(tuple(map(id, pair)), (pair, []))[1].append(name)
    gaps = _sup_norm_errors([pair for pair, _ in pairs.values()], ts)
    for (_, names), gap in zip(pairs.values(), gaps):
        errors.update(dict.fromkeys(names, gap))
    return errors


def run_rate_experiment(
    per_eps, comparisons
) -> dict[str, tuple[ErrorCurve, RateFit] | ValueError]:
    """{comparison: (curve, fit), or the ValueError it raised} over one
    (eps, rate_errors) pair per eps of a sweep, taken in descending eps, so
    the curves and fits keep their bits in any eps order.  Each eps's errors
    must come from times that hold its layer points eps, 2 eps, 5 eps, 10 eps
    up to t_max, as standard_grid(eps_values) does for every eps, so that
    each transient peak is sampled.  A comparison whose pair raised takes
    the ValueError of its largest eps; comparisons with the same error
    values share one curve and one fit."""
    per_eps = sorted(per_eps, key=lambda item: item[0], reverse=True)
    if len(per_eps) < 3:
        error = ValueError("need at least 3 eps values for a rate fit")
        return {c: error for c in comparisons}
    epsilons = np.array([eps for eps, _ in per_eps])
    results, fits = {}, {}  # fits: error values -> (curve, fit) or ValueError
    for name in comparisons:
        errors = tuple(found[name] for _, found in per_eps)
        failed = [e for e in errors if isinstance(e, ValueError)]
        if failed:
            results[name] = failed[0]
            continue
        if errors not in fits:
            try:
                curve = ErrorCurve(epsilons, np.array(errors))
                fits[errors] = curve, fit_rate(curve)
            except ValueError as exc:
                fits[errors] = exc
        results[name] = fits[errors]
    return results


def rate_checks(per_eps, comparisons) -> list[CheckReport]:
    """The rate.slope_<comparison> records of a sweep (run_rate_experiment).
    An upper bound with exponent p is confirmed by any fitted slope >=
    p - 0.05 (smooth data may decay faster) with r^2 >= 0.99."""
    reports = []
    for comp, result in run_rate_experiment(per_eps, comparisons).items():
        threshold = _STATEMENTS[comp][0] - 0.05
        if isinstance(result, ValueError):
            passed, margin = False, float("-inf")
            note = f"precondition violated: {result}"
        else:
            _, fit = result
            passed = fit.slope >= threshold and fit.r_squared >= 0.99
            margin = min(fit.slope - threshold, fit.r_squared - 0.99)
            note = (
                f"fitted slope {fit.slope:.4f} (threshold {threshold:g}), "
                f"r^2 {fit.r_squared:.6f}"
            )
        reports.append(CheckReport(f"rate.slope_{comp}", passed, margin, threshold, note))
    return reports
