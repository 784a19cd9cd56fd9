"""Closed-form trajectory profiles for the damped problem and its limit.

Every profile is stored per eigenmode as an exponential polynomial, so
values, derivatives, and time integrals are all analytic.  Besides the
exact solution and the first-order limit this module builds the initial
layer, the second-order expansion profiles, the two-way splitting of the
solution, and the ladder of corrector functions whose decomposition
identities and energy bounds the verification layer checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly, evaluate
from .modes import ForcingTerm, ModeParams, solve_forced, solve_homogeneous
from .spectral import SpecVector, Spectrum, apply_power, norm, resolvent
from .timegrid import standard_grid

__all__ = [
    "ProblemData",
    "ProfileFunction",
    "sample_together",
    "CorrectorRemainder",
    "RemainderConsistencyError",
    "kernel_profile",
    "exact_solution",
    "parabolic_profile",
    "theta_layer",
    "main_expansion_profile",
    "derivative_expansion_profile",
    "split_components",
    "corrector_primary",
    "corrector_halfpower",
    "corrector_split",
    "corrector_profile",
    "corrector_remainder",
    "remainder_direct_solve",
    "layer_equation_source",
]

# Tolerance deciding whether the data satisfies the compatibility condition
# v1 = A u0 + u1 = 0 (which switches off the initial layer).
_IL0_TOL = 1e-12

# Machine-precision multiplier for the floating-point floor of the
# remainder ODE residual check.
_RESIDUAL_FLOOR_ULPS = 64.0


class RemainderConsistencyError(RuntimeError):
    """A remainder corrector failed its own forced-equation residual check."""


@dataclass(frozen=True)
class ProblemData:
    """Problem instance: eps in (0, 1], initial data, derived slope v1."""

    spec: Spectrum
    eps: float
    u0: SpecVector
    u1: SpecVector

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if len(self.u0) != len(self.spec) or len(self.u1) != len(self.spec):
            raise ValueError("initial data length must match the spectrum")

    @property
    def v1(self) -> SpecVector:
        """Combined slope A u0 + u1 that drives the initial layer."""
        return SpecVector(
            self.spec.eigenvalues * self.u0.coefficients + self.u1.coefficients
        )

    @property
    def il0_satisfied(self) -> bool:
        au0 = apply_power(self.spec, 1.0, self.u0)
        return norm(self.v1) <= _IL0_TOL * (norm(au0) + norm(self.u1) + 1.0)

    @property
    def data_scale(self) -> float:
        return norm(self.u0) + norm(self.u1)


@dataclass(frozen=True)
class ProfileFunction:
    """Time-dependent vector profile, one exponential polynomial per mode."""

    spectrum: Spectrum
    modes: tuple[ExpPoly, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.spectrum):
            raise ValueError("one mode polynomial per eigenvalue required")

    def value(self, t: float) -> SpecVector:
        return SpecVector(np.array([m.value(t) for m in self.modes]))

    def derivative(self, t: float) -> SpecVector:
        return SpecVector(np.array([m.derivative().value(t) for m in self.modes]))

    def sample(self, ts) -> np.ndarray:
        """Values on an array of times, shape (len(ts), n_modes)."""
        return sample_together((self,), ts)[0]

    def deriv(self) -> "ProfileFunction":
        return ProfileFunction(self.spectrum, tuple(m.derivative() for m in self.modes))

    def __add__(self, other: "ProfileFunction") -> "ProfileFunction":
        self._check(other)
        return ProfileFunction(
            self.spectrum, tuple(a + b for a, b in zip(self.modes, other.modes))
        )

    def __sub__(self, other: "ProfileFunction") -> "ProfileFunction":
        self._check(other)
        return ProfileFunction(
            self.spectrum, tuple(a - b for a, b in zip(self.modes, other.modes))
        )

    def scale(self, alpha: float) -> "ProfileFunction":
        return ProfileFunction(self.spectrum, tuple(m.scale(alpha) for m in self.modes))

    def operator_power(self, s: float) -> "ProfileFunction":
        """Apply a fractional operator power mode by mode."""
        if s < 0:
            raise ValueError("negative operator powers are not defined")
        lam = self.spectrum.eigenvalues
        return ProfileFunction(
            self.spectrum,
            tuple(m.scale(lam[i] ** s) for i, m in enumerate(self.modes)),
        )

    def _check(self, other: "ProfileFunction") -> None:
        if len(self.modes) != len(other.modes):
            raise ValueError("profiles live on different spectra")


def sample_together(profiles, ts) -> list[np.ndarray]:
    """[p.sample(ts) for p in profiles], for profiles on one spectrum.

    Mode by mode the profiles share one table of exponentials and powers
    (exppoly.evaluate), so a rate they have in common is evaluated once;
    the values are the same, bit for bit, as sampling them one by one.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    for p in profiles[1:]:
        profiles[0]._check(p)
    samples = [np.empty((ts.size, len(p.modes))) for p in profiles]
    for i, modes in enumerate(zip(*(p.modes for p in profiles))):
        for sample, values in zip(samples, evaluate(modes, ts)):
            sample[:, i] = values
    return samples


def kernel_profile(
    spec: Spectrum, coeffs: np.ndarray, n: int, m: float, scale: float = 1.0
) -> ProfileFunction:
    """Profile scale * t**n * A**m * e^{-tA} applied to the coefficients."""
    lam = spec.eigenvalues
    modes = tuple(
        ExpPoly.build([(n, -lam[i], scale * lam[i] ** m * coeffs[i])])
        for i in range(len(spec))
    )
    return ProfileFunction(spec, modes)


def exact_solution(pd: ProblemData) -> ProfileFunction:
    """Solution of eps*u'' + A u + u' = 0 with data (u0, u1), mode by mode."""
    lam = pd.spec.eigenvalues
    u0, u1 = pd.u0.coefficients, pd.u1.coefficients
    modes = tuple(
        solve_homogeneous(ModeParams(pd.eps, lam[i], u0[i], u1[i])).poly
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def parabolic_profile(pd: ProblemData) -> ProfileFunction:
    """First-order limit flow e^{-tA} u0."""
    return kernel_profile(pd.spec, pd.u0.coefficients, 0, 0.0)


def theta_layer(pd: ProblemData) -> ProfileFunction:
    """Initial layer eps*(1 - e^{-t/eps}) * v1: zero at t=0, slope v1."""
    v1 = pd.v1.coefficients
    modes = tuple(
        ExpPoly.build([(0, 0.0, pd.eps * c), (0, -1.0 / pd.eps, -pd.eps * c)])
        for c in v1
    )
    return ProfileFunction(pd.spec, modes)


def main_expansion_profile(pd: ProblemData) -> ProfileFunction:
    """Second-order profile: e^{-tA}u0 + eps*(e^{-tA}v1 - t A^2 e^{-tA}u0 - e^{-t/eps}v1)."""
    eps = pd.eps
    lam = pd.spec.eigenvalues
    u0, v1 = pd.u0.coefficients, pd.v1.coefficients
    modes = tuple(
        ExpPoly.build(
            [
                (0, -lam[i], u0[i] + eps * v1[i]),
                (1, -lam[i], -eps * lam[i] ** 2 * u0[i]),
                (0, -1.0 / eps, -eps * v1[i]),
            ]
        )
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def derivative_expansion_profile(pd: ProblemData) -> ProfileFunction:
    """Second-order profile for u'; defined only for compatible data (v1 = 0)."""
    if not pd.il0_satisfied:
        raise ValueError(
            "derivative expansion requires compatible data u1 + A u0 = 0"
        )
    eps = pd.eps
    lam = pd.spec.eigenvalues
    u0 = pd.u0.coefficients
    modes = tuple(
        ExpPoly.build(
            [
                (0, -lam[i], -lam[i] * u0[i] - eps * lam[i] ** 2 * u0[i]),
                (1, -lam[i], eps * lam[i] ** 3 * u0[i]),
                (0, -1.0 / eps, eps * lam[i] ** 2 * u0[i]),
            ]
        )
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def split_components(pd: ProblemData) -> tuple[ProfileFunction, ProfileFunction]:
    """Split of the solution into the (u0, -A u0) part and the (0, v1) part."""
    lam = pd.spec.eigenvalues
    u0, v1 = pd.u0.coefficients, pd.v1.coefficients
    first = tuple(
        solve_homogeneous(ModeParams(pd.eps, lam[i], u0[i], -lam[i] * u0[i])).poly
        for i in range(len(pd.spec))
    )
    second = tuple(
        solve_homogeneous(ModeParams(pd.eps, lam[i], 0.0, v1[i])).poly
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, first), ProfileFunction(pd.spec, second)


def _forced_profile(
    pd: ProblemData,
    forcing_coeffs: np.ndarray,
    data0: np.ndarray,
    data1: np.ndarray,
) -> ProfileFunction:
    """Per-mode forced solve with forcing a_i * e^{-lam_i t} and given data."""
    lam = pd.spec.eigenvalues
    modes = tuple(
        solve_forced(
            ModeParams(pd.eps, lam[i], data0[i], data1[i]),
            ForcingTerm(forcing_coeffs[i], 0.0, lam[i]),
        ).poly
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def corrector_primary(pd: ProblemData) -> ProfileFunction:
    """Corrector whose eps-scaled slope closes the gap between the solution
    and the resolvent-smoothed semigroup flow e^{-tA}(u0 + eps*J u1)."""
    ju1 = resolvent(pd.spec, pd.eps, pd.u1).coefficients
    g = pd.u0.coefficients + pd.eps * ju1
    lam = pd.spec.eigenvalues
    return _forced_profile(pd, lam * g, -pd.eps * ju1, -ju1)


def corrector_halfpower(pd: ProblemData) -> ProfileFunction:
    """Corrector entering through a half power of the operator: the first
    split component equals e^{-tA}u0 + eps * A^{1/2} * (this profile)."""
    lam = pd.spec.eigenvalues
    u0 = pd.u0.coefficients
    zeros = np.zeros(len(pd.spec))
    return _forced_profile(pd, -(lam**1.5) * u0, zeros, zeros)


def corrector_split(pd: ProblemData, j: int) -> ProfileFunction:
    """Correctors for the two split components against smoothed semigroups."""
    lam = pd.spec.eigenvalues
    if j == 1:
        ju0 = resolvent(pd.spec, pd.eps, pd.u0).coefficients
        return _forced_profile(pd, lam * ju0, pd.eps * lam * ju0, lam * ju0)
    if j == 2:
        jv1 = resolvent(pd.spec, pd.eps, pd.v1).coefficients
        return _forced_profile(pd, pd.eps * lam * jv1, -pd.eps * jv1, -jv1)
    raise ValueError("component index must be 1 or 2")


def corrector_profile(pd: ProblemData, j: int) -> ProfileFunction:
    """Explicit semigroup-kernel part of the split correctors."""
    eps = pd.eps
    lam = pd.spec.eigenvalues
    if j == 1:
        ju0 = resolvent(pd.spec, eps, pd.u0).coefficients
        modes = tuple(
            ExpPoly.build(
                [(0, -lam[i], 2 * eps * lam[i] * ju0[i]), (1, -lam[i], lam[i] * ju0[i])]
            )
            for i in range(len(pd.spec))
        )
        return ProfileFunction(pd.spec, modes)
    if j == 2:
        jv1 = resolvent(pd.spec, eps, pd.v1).coefficients
        modes = tuple(
            ExpPoly.build(
                [(0, -lam[i], -2 * eps * jv1[i]), (1, -lam[i], eps * lam[i] * jv1[i])]
            )
            for i in range(len(pd.spec))
        )
        return ProfileFunction(pd.spec, modes)
    raise ValueError("component index must be 1 or 2")


@dataclass(frozen=True)
class CorrectorRemainder:
    """Remainder corrector with its realized initial data and residual.

    The remainder is defined as a decomposition residual (never solved
    first), then verified against the forced equation it must satisfy,
    with the forcing given by minus the second derivative of the explicit
    profile part.  The initial data actually realized is recorded so
    report layers can compare it with expectations.
    """

    profile: ProfileFunction
    component: int
    initial_value: SpecVector
    initial_slope: SpecVector
    forcing: ProfileFunction  # minus the profile part's second derivative
    max_ode_residual: float
    residual_tolerance: float


def _remainder_residual_floor(
    pd: ProblemData, w: ProfileFunction, forcing: ProfileFunction, t_max: float
) -> float:
    """Rounding-noise bound for the remainder equation residual.

    The remainder is formed as (split corrector - profile part)/eps, so its
    coefficients are O(1/eps) and cancel pointwise: the achievable residual
    is limited by machine precision times the magnitude of the cancelling
    parts.  A divided difference c*exp[z_0..z_n] is bounded like
    c/n! * t**n * e^{max Re z_j t} (Hermite-Genocchi).
    """

    def envelope(poly: ExpPoly) -> float:
        total = 0.0
        bounds = list(poly.terms)
        for nodes, c in poly.differences:
            n = len(nodes) - 1
            bounds.append((n, max(nodes, key=lambda z: z.real), c / math.factorial(n)))
        for k, mu, c in bounds:
            r = mu.real
            if r >= 0:
                peak = t_max**k
            elif k == 0:
                peak = 1.0
            else:
                ts = min(t_max, k / abs(r))
                peak = ts**k * np.exp(r * ts)
            total += abs(c) * peak
        return total

    lam = pd.spec.eigenvalues
    per_mode = np.array(
        [
            pd.eps * envelope(w.modes[i].derivative().derivative())
            + envelope(w.modes[i].derivative())
            + lam[i] * envelope(w.modes[i])
            + envelope(forcing.modes[i])
            for i in range(len(pd.spec))
        ]
    )
    return _RESIDUAL_FLOOR_ULPS * np.finfo(float).eps * float(
        np.sqrt(np.sum(per_mode**2))
    )


def corrector_remainder(
    pd: ProblemData, j: int, residual_tol: float = 1e-8
) -> CorrectorRemainder:
    """Remainder after removing the explicit profile part of a split corrector.

    Defined by the residual (split corrector - profile part)/eps, plus the
    second split component itself when j = 2; verified to satisfy the
    forced damped equation driven by minus the profile part's second
    derivative.
    """
    if j not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    eps = pd.eps
    u_tilde = corrector_split(pd, j)
    v_part = corrector_profile(pd, j)
    if j == 1:
        w = (u_tilde - v_part).scale(1.0 / eps)
    else:
        _, u2 = split_components(pd)
        w = (u_tilde - v_part + u2).scale(1.0 / eps)
    forcing = v_part.deriv().deriv().scale(-1.0)

    grid = standard_grid([eps])
    ts = grid.times
    lam = pd.spec.eigenvalues
    w1 = w.deriv()
    w2 = w1.deriv()
    s2, s1, s0, sf = sample_together((w2, w1, w, forcing), ts)
    residual = eps * s2 + s1 + lam[np.newaxis, :] * s0 - sf
    max_residual = float(np.max(np.sqrt(np.sum(residual**2, axis=1))))

    scale = max(
        1.0,
        norm(w.value(0.0)),
        norm(w.derivative(0.0)),
        norm(forcing.value(0.0)),
    )
    floor = _remainder_residual_floor(pd, w, forcing, grid.t_max)
    tolerance = max(residual_tol * scale, floor)
    if max_residual > tolerance:
        raise RemainderConsistencyError(
            f"remainder {j} violates its forced equation: residual "
            f"{max_residual:.3e} > tolerance {tolerance:.3e}"
        )
    return CorrectorRemainder(
        profile=w,
        component=j,
        initial_value=w.value(0.0),
        initial_slope=w.derivative(0.0),
        forcing=forcing,
        max_ode_residual=max_residual,
        residual_tolerance=tolerance,
    )


def remainder_direct_solve(
    pd: ProblemData, j: int, value0: SpecVector, slope0: SpecVector
) -> ProfileFunction:
    """Independent route to the remainder corrector: solve its forced damped
    equation mode by mode from the given initial data, instead of forming
    the decomposition residual.  Used to cross-check the residual route."""
    if j not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    lam = pd.spec.eigenvalues
    forcing = corrector_profile(pd, j).deriv().deriv().scale(-1.0)
    modes = []
    for i in range(len(pd.spec)):
        a = b = 0.0
        for k, mu, c in forcing.modes[i].terms:
            if k == 0:
                a = c.real
            elif k == 1:
                b = c.real
        modes.append(
            solve_forced(
                ModeParams(pd.eps, lam[i], value0.coefficients[i], slope0.coefficients[i]),
                ForcingTerm(a, b, lam[i]),
            ).poly
        )
    return ProfileFunction(pd.spec, tuple(modes))


def layer_equation_source(
    pd: ProblemData, remainder2: CorrectorRemainder
) -> ProfileFunction:
    """Higher-order source in the relaxation equation for the second split
    component: sqrt(eps)*W' + sqrt(eps)*(2A e^{-tA}J v1 - t A^2 e^{-tA}J v1),
    with W the second remainder, ``corrector_remainder(pd, 2)``."""
    if remainder2.component != 2:
        raise ValueError("the layer source needs the second remainder")
    eps = pd.eps
    jv1 = resolvent(pd.spec, eps, pd.v1).coefficients
    kernel = kernel_profile(pd.spec, jv1, 0, 1.0, 2.0) - kernel_profile(
        pd.spec, jv1, 1, 2.0, 1.0
    )
    return (remainder2.profile.deriv() + kernel).scale(np.sqrt(eps))
