"""Closed-form trajectory profiles for the damped problem and its limit.

Every profile is stored per eigenmode as an exponential polynomial, so
values, derivatives, and time integrals are all analytic.  Besides the
exact solution and the first-order limit this module builds the initial
layer, the second-order expansion profiles, the two-way splitting of the
solution, and the ladder of corrector functions whose decomposition
identities and energy bounds the verification layer checks.  The
correctors and their remainders are solved as forced mode equations from
closed-form data rather than formed as differences of other profiles, so
they stay accurate as eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly, SampleTimes, accumulate
from .modes import ForcingTerm, ModeParams, solve_forced, solve_homogeneous
from .spectral import SpecVector, Spectrum, apply_power, norm, resolvent

__all__ = [
    "ProblemData",
    "ProfileFunction",
    "sample_together",
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
    "layer_equation_source",
]

# Tolerance deciding whether the data satisfies the compatibility condition
# v1 = A u0 + u1 = 0 (which switches off the initial layer).
_IL0_TOL = 1e-12

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
        """Values on an array of times, shape (len(ts), n_modes), mode-major
        (see sample_together)."""
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

    Each profile is sampled into a zeroed mode-major (n_modes, n_times)
    buffer, returned as its transposed (n_times, n_modes) view.  Mode by
    mode, exppoly.accumulate adds the modes' terms into their rows in
    place, sharing one table of exponentials and powers, so a rate the
    profiles have in common, or its conjugate, is evaluated once; the live
    times of each decay rate are found once for all modes.  Each value is
    the real termwise sum of its mode's terms, the same bit for bit as
    sampling the profiles one by one.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    for p in profiles[1:]:
        profiles[0]._check(p)
    times = SampleTimes(ts)
    buffers = [np.zeros((len(p.modes), ts.size)) for p in profiles]
    for i, modes in enumerate(zip(*(p.modes for p in profiles))):
        accumulate(modes, times, [buffer[i] for buffer in buffers])
    return [buffer.T for buffer in buffers]


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


def _profile_part(pd: ProblemData, j: int):
    """Split corrector j's explicit part (c0 + c1 t) e^{-tA} and the initial
    data (w(0), w'(0)) of its remainder, as ((c0, c1), (w0, w1)) per mode."""
    eps = pd.eps
    lam = pd.spec.eigenvalues
    if j == 1:
        ju0 = resolvent(pd.spec, eps, pd.u0).coefficients
        return (2 * eps * lam * ju0, lam * ju0), (-lam * ju0, 2.0 * lam**2 * ju0)
    if j == 2:
        jv1 = resolvent(pd.spec, eps, pd.v1).coefficients
        return (-2 * eps * jv1, eps * lam * jv1), (jv1, -2.0 * lam * jv1)
    raise ValueError("component index must be 1 or 2")


def corrector_profile(pd: ProblemData, j: int) -> ProfileFunction:
    """Explicit semigroup-kernel part of the split correctors."""
    lam = pd.spec.eigenvalues
    (c0, c1), _ = _profile_part(pd, j)
    modes = tuple(
        ExpPoly.build([(0, -lam[i], c0[i]), (1, -lam[i], c1[i])])
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def corrector_remainder(pd: ProblemData, j: int) -> ProfileFunction:
    """Remainder w of split corrector j after its explicit profile part v.

    The split corrector is v + eps*w, minus the second split component
    when j = 2.  w solves the damped equation forced by -v'' mode by mode,
    from (-A J u0, +2 A^2 J u0) for j = 1 and (J v1, -2 A J v1) for j = 2;
    with v = (c0 + c1 t) e^{-tA} the forcing is
    (2 A c1 - A^2 c0 - A^2 c1 t) e^{-tA}.  Solving directly keeps w
    accurate as eps -> 0, where forming (split corrector - v)/eps would
    leave unit roundoff / eps in it; identity_checks compares the two.
    """
    lam = pd.spec.eigenvalues
    (c0, c1), (w0, w1) = _profile_part(pd, j)
    a = 2.0 * lam * c1 - lam**2 * c0
    b = -(lam**2) * c1
    modes = tuple(
        solve_forced(
            ModeParams(pd.eps, lam[i], w0[i], w1[i]), ForcingTerm(a[i], b[i], lam[i])
        ).poly
        for i in range(len(pd.spec))
    )
    return ProfileFunction(pd.spec, modes)


def layer_equation_source(
    pd: ProblemData, remainder2: ProfileFunction
) -> ProfileFunction:
    """Higher-order source in the relaxation equation for the second split
    component: sqrt(eps)*W' + sqrt(eps)*(2A e^{-tA}J v1 - t A^2 e^{-tA}J v1),
    with W the second remainder, ``corrector_remainder(pd, 2)``."""
    eps = pd.eps
    jv1 = resolvent(pd.spec, eps, pd.v1).coefficients
    kernel = kernel_profile(pd.spec, jv1, 0, 1.0, 2.0) - kernel_profile(
        pd.spec, jv1, 1, 2.0, 1.0
    )
    return (remainder2.deriv() + kernel).scale(np.sqrt(eps))
