"""Closed-form trajectory profiles for the damped problem and its limit.

Every profile is stored per eigenmode as an exponential polynomial, so
values, derivatives, and time integrals are all analytic.  Above exppoly
and modes only this module sees that form: callers sample through
sample_together and integrate squares through squared_integrals.  Besides
the exact solution and the first-order limit it builds the initial layer,
the second-order expansion profiles, the two-way splitting of the
solution, and the ladder of corrector functions whose decomposition
identities and energy bounds the verification layer checks.  The
correctors and their remainders are solved as forced mode equations from
closed-form data rather than formed as differences of other profiles, so
they stay accurate as eps -> 0.  ProblemData holds one eps and its data,
and builds each of these profiles once, when it is first read, through one
of two constructors: ProblemData._solved for the solved mode equations and
_explicit for the profiles written out term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exppoly import ExpPoly, SampleTimes, accumulate, divided_difference_exp, integrate
from .modes import ForcingTerm, ModeParams, solve_forced
from .spectral import Spectrum, norm

__all__ = ["ProblemData", "ProfileFunction", "sample_together", "squared_integrals",
           "kernel_profile"]

# Tolerance deciding whether the data satisfies the compatibility condition
# v1 = A u0 + u1 = 0 (which switches off the initial layer).
_IL0_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProblemData:
    """Problem instance: eps in (0, 1], initial data, and the profiles of
    this eps.

    u0 and u1, one finite value per eigenvalue, are kept as read-only float
    copies; the vectors derived from them (v1, ju0, ju1, jv1) are read-only.

    Each profile is a cached property, built on first use and shared by
    every check of this eps (cached_property writes the instance's
    __dict__, which the frozen dataclass allows).  The pairs are indexed
    by the split component j = 1, 2.  The evaluation tables of
    sample_times, one per time array, are kept likewise and dropped with
    the problem.
    """

    spec: Spectrum
    eps: float
    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        for name in ("u0", "u1"):
            data = np.array(getattr(self, name), dtype=float)
            if data.shape != self.spec.eigenvalues.shape or not np.all(np.isfinite(data)):
                raise ValueError(f"{name} must hold one finite value per eigenvalue")
            object.__setattr__(self, name, _readonly(data))

    @cached_property
    def _tables(self) -> dict:
        """id(ts) -> (ts, its evaluation table); holding ts keeps its id."""
        return {}

    def sample_times(self, ts: np.ndarray) -> SampleTimes:
        """The evaluation table of this problem for the read-only 1-D time
        array ts (a TimeGrid's times), made at the first request for that
        array object and returned for every later one: the sample_together
        calls handed it evaluate each exponential, power and divided
        difference of their profiles on ts once for all of them.  Only the
        array object is looked up, never its values, and a writeable array,
        whose values could change under the table, is refused."""
        if ts.ndim != 1 or ts.flags.writeable:
            raise ValueError("an evaluation table needs a read-only 1-D time array")
        if id(ts) not in self._tables:
            self._tables[id(ts)] = ts, SampleTimes(ts)
        return self._tables[id(ts)][1]

    @cached_property
    def v1(self) -> np.ndarray:
        """Combined slope A u0 + u1 that drives the initial layer."""
        return _readonly(self.spec.eigenvalues * self.u0 + self.u1)

    @property
    def il0_satisfied(self) -> bool:
        au0 = self.spec.eigenvalues * self.u0
        return norm(self.v1) <= _IL0_TOL * (norm(au0) + norm(self.u1) + 1.0)

    @property
    def data_scale(self) -> float:
        return norm(self.u0) + norm(self.u1)

    @cached_property
    def ju0(self) -> np.ndarray:
        """J u0, J = (I + eps A)^{-1} the smoothing resolvent."""
        return _readonly(self.u0 / (1.0 + self.eps * self.spec.eigenvalues))

    @cached_property
    def ju1(self) -> np.ndarray:
        """J u1."""
        return _readonly(self.u1 / (1.0 + self.eps * self.spec.eigenvalues))

    @cached_property
    def jv1(self) -> np.ndarray:
        """J v1."""
        return _readonly(self.v1 / (1.0 + self.eps * self.spec.eigenvalues))

    @cached_property
    def solution(self) -> ProfileFunction:
        """Solution of eps*u'' + A u + u' = 0 with data (u0, u1), mode by mode."""
        return self._solved(self.u0, self.u1)

    @cached_property
    def parabolic(self) -> ProfileFunction:
        """First-order limit flow e^{-tA} u0."""
        return kernel_profile(self.spec, self.u0, 0, 0.0)

    @cached_property
    def v1_flow(self) -> ProfileFunction:
        """Semigroup flow e^{-tA} v1 of the layer slope."""
        return kernel_profile(self.spec, self.v1, 0, 0.0)

    def weighted_convolution(self, ts) -> np.ndarray:
        """eps int_0^t e^{(s-t)/eps} A e^{-sA} v1 ds at ts, (len(ts), n_modes):
        eps lam v1 exp[-lam, -1/eps](t) per mode, exact."""
        eps, lam = self.eps, self.spec.eigenvalues
        kernels = [divided_difference_exp((-l, -1.0 / eps), ts).real for l in lam]
        return eps * lam * self.v1 * np.stack(kernels, axis=1)

    @cached_property
    def theta(self) -> ProfileFunction:
        """Initial layer eps*(1 - e^{-t/eps}) * v1: zero at t=0, slope v1."""
        eps, v1 = self.eps, self.v1
        return _explicit(
            self.spec, lambda i: [(0, 0.0, eps * v1[i]), (0, -1.0 / eps, -eps * v1[i])]
        )

    @cached_property
    def main_expansion(self) -> ProfileFunction:
        """Second-order profile: e^{-tA}u0 + eps*(e^{-tA}v1 - t A^2 e^{-tA}u0 - e^{-t/eps}v1)."""
        eps, lam = self.eps, self.spec.eigenvalues
        u0, v1 = self.u0, self.v1
        return _explicit(self.spec, lambda i: [
            (0, -lam[i], u0[i] + eps * v1[i]),
            (1, -lam[i], -eps * lam[i] ** 2 * u0[i]),
            (0, -1.0 / eps, -eps * v1[i]),
        ])

    @cached_property
    def derivative_expansion(self) -> ProfileFunction:
        """Second-order profile for u'; defined only for compatible data (v1 = 0)."""
        if not self.il0_satisfied:
            raise ValueError(
                "derivative expansion requires compatible data u1 + A u0 = 0"
            )
        eps, lam, u0 = self.eps, self.spec.eigenvalues, self.u0
        return _explicit(self.spec, lambda i: [
            (0, -lam[i], -lam[i] * u0[i] - eps * lam[i] ** 2 * u0[i]),
            (1, -lam[i], eps * lam[i] ** 3 * u0[i]),
            (0, -1.0 / eps, eps * lam[i] ** 2 * u0[i]),
        ])

    @cached_property
    def splits(self) -> tuple[ProfileFunction, ProfileFunction]:
        """Split of the solution into the (u0, -A u0) part and the (0, v1) part."""
        lam, u0 = self.spec.eigenvalues, self.u0
        zeros = np.zeros(len(self.spec))
        return self._solved(u0, -lam * u0), self._solved(zeros, self.v1)

    def _solved(self, data0, data1, a=0.0, b=0.0) -> ProfileFunction:
        """Per-mode solve from initial data (data0_i, data1_i) with forcing
        (a_i + b_i t) e^{-lam_i t}, none by default (solve_forced then takes
        the homogeneous solution).  Every solved profile is built here."""
        lam = self.spec.eigenvalues
        a, b = np.broadcast_to(a, lam.shape), np.broadcast_to(b, lam.shape)
        return ProfileFunction(self.spec, tuple(
            solve_forced(ModeParams(self.eps, lam[i], data0[i], data1[i]),
                         ForcingTerm(a[i], b[i], lam[i])).poly
            for i in range(len(lam))
        ))

    @cached_property
    def corrector_primary(self) -> ProfileFunction:
        """Corrector whose eps-scaled slope closes the gap between the solution
        and the resolvent-smoothed semigroup flow e^{-tA}(u0 + eps*J u1)."""
        ju1 = self.ju1
        g = self.u0 + self.eps * ju1
        return self._solved(-self.eps * ju1, -ju1, self.spec.eigenvalues * g)

    @cached_property
    def corrector_halfpower(self) -> ProfileFunction:
        """Corrector entering through a half power of the operator: the first
        split component equals e^{-tA}u0 + eps * A^{1/2} * (this profile)."""
        zeros = np.zeros(len(self.spec))
        a = -(self.spec.eigenvalues**1.5) * self.u0
        return self._solved(zeros, zeros, a)

    @cached_property
    def split_correctors(self) -> tuple[ProfileFunction, ProfileFunction]:
        """Correctors for the two split components against smoothed semigroups."""
        eps, lam, ju0, jv1 = self.eps, self.spec.eigenvalues, self.ju0, self.jv1
        return (
            self._solved(eps * lam * ju0, lam * ju0, lam * ju0),
            self._solved(-eps * jv1, -jv1, eps * lam * jv1),
        )

    @cached_property
    def _split_parts(self):
        """Split corrector j's explicit part (c0 + c1 t) e^{-tA} and the initial
        data (w(0), w'(0)) of its remainder, as ((c0, c1), (w0, w1)) per mode."""
        eps, lam, ju0, jv1 = self.eps, self.spec.eigenvalues, self.ju0, self.jv1
        return (
            ((2 * eps * lam * ju0, lam * ju0), (-lam * ju0, 2.0 * lam**2 * ju0)),
            ((-2 * eps * jv1, eps * lam * jv1), (jv1, -2.0 * lam * jv1)),
        )

    @cached_property
    def corrector_profiles(self) -> tuple[ProfileFunction, ProfileFunction]:
        """Explicit semigroup-kernel parts (c0 + c1 t) e^{-tA} of the split
        correctors."""
        lam = self.spec.eigenvalues
        return tuple(
            _explicit(self.spec, lambda i: [(0, -lam[i], c0[i]), (1, -lam[i], c1[i])])
            for (c0, c1), _ in self._split_parts
        )

    @cached_property
    def remainders(self) -> tuple[ProfileFunction, ProfileFunction]:
        """Remainders w of the split correctors after their explicit parts v.

        Split corrector j is v + eps*w, minus the second split component
        when j = 2.  w solves the damped equation forced by -v'' mode by
        mode, from (-A J u0, +2 A^2 J u0) for j = 1 and (J v1, -2 A J v1)
        for j = 2; with v = (c0 + c1 t) e^{-tA} the forcing is
        (2 A c1 - A^2 c0 - A^2 c1 t) e^{-tA}.  Solving directly keeps w
        accurate as eps -> 0, where forming (split corrector - v)/eps would
        leave unit roundoff / eps in it; identity_checks compares the two.
        """
        lam = self.spec.eigenvalues
        return tuple(
            self._solved(w0, w1, 2.0 * lam * c1 - lam**2 * c0, -(lam**2) * c1)
            for (c0, c1), (w0, w1) in self._split_parts
        )

    @cached_property
    def layer_source(self) -> ProfileFunction:
        """Higher-order source in the relaxation equation for the second split
        component: sqrt(eps)*W' + sqrt(eps)*(2A e^{-tA}J v1 - t A^2 e^{-tA}J v1),
        with W the second remainder."""
        kernel = kernel_profile(self.spec, self.jv1, 0, 1.0, 2.0) - kernel_profile(
            self.spec, self.jv1, 1, 2.0, 1.0
        )
        return (self.remainders[1].deriv() + kernel).scale(np.sqrt(self.eps))


@dataclass(frozen=True)
class ProfileFunction:
    """Time-dependent vector profile, one exponential polynomial per mode."""

    spectrum: Spectrum
    modes: tuple[ExpPoly, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.spectrum):
            raise ValueError("one mode polynomial per eigenvalue required")

    def sample(self, ts) -> np.ndarray:
        """Values on an array of times, shape (len(ts), n_modes), mode-major
        (see sample_together)."""
        return sample_together((self,), ts)[0]

    def coefficient_scales(self) -> np.ndarray:
        """Largest term magnitude of each mode, a conditioning measure."""
        return np.array([m.coefficient_scale() for m in self.modes])

    def deriv(self) -> "ProfileFunction":
        return ProfileFunction(self.spectrum, tuple(m.derivative() for m in self.modes))

    def __add__(self, other: "ProfileFunction") -> "ProfileFunction":
        self._check(other)
        return ProfileFunction(
            self.spectrum, tuple(a + b for a, b in zip(self.modes, other.modes))
        )

    def __sub__(self, other: "ProfileFunction") -> "ProfileFunction":
        return self + other.scale(-1.0)

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
    """[p.sample(ts) for p in profiles], for profiles on one spectrum; ts is
    an array of times, or the evaluation table of one array
    (ProblemData.sample_times).

    Each profile is sampled into a zeroed mode-major (n_modes, n_times)
    buffer, returned as its transposed (n_times, n_modes) view.  Mode by
    mode, exppoly.accumulate adds the modes' terms into their rows in
    place, taking the exponentials, powers and divided differences from
    one table, so a rate the profiles have in common, or its conjugate, is
    evaluated once; the live times of each decay rate are found once for
    all modes.  A table handed in keeps every value for the next call it
    is handed to.  An array gets a table of this call's own, which keeps
    one mode's values at a time: the modes share few rates, and holding
    all of them would only add to the call's peak memory.  Each value is
    the real termwise sum of its mode's terms, the same bit for bit as
    sampling the profiles one by one, with a fresh table or a shared one.
    """
    for p in profiles[1:]:
        profiles[0]._check(p)
    own = not isinstance(ts, SampleTimes)
    times = SampleTimes(np.asarray(ts, dtype=float).reshape(-1)) if own else ts
    buffers = [np.zeros((len(p.modes), times.t.size)) for p in profiles]
    for i, modes in enumerate(zip(*(p.modes for p in profiles))):
        accumulate(modes, times, [buffer[i] for buffer in buffers])
        if own:
            for values in (times.exps, times.powers, times.diffs):
                values.clear()
    return [buffer.T for buffer in buffers]


def squared_integrals(profiles, ts, weight_power: int = 0) -> list[np.ndarray]:
    """[int_0^t s**weight_power |p(s)|^2 ds at ts for p in profiles], exact: one
    integrate call over the squared modes, mode-major, adds into each profile's
    sum in mode order, which has the bits it has for the profile alone."""
    weight = ExpPoly.build([(weight_power, 0.0, 1.0)])
    squares = [m.squared() for ms in zip(*(p.modes for p in profiles)) for m in ms]
    squares = [sq.multiply(weight) for sq in squares] if weight_power else squares
    totals = [np.zeros(np.shape(ts)) for _ in profiles]
    for j, integral in enumerate(integrate(squares, ts)):
        totals[j % len(profiles)] += integral
    return totals


def kernel_profile(
    spec: Spectrum, coeffs: np.ndarray, n: int, m: float, scale: float = 1.0
) -> ProfileFunction:
    """Profile scale * t**n * A**m * e^{-tA} applied to the coefficients."""
    lam = spec.eigenvalues
    return _explicit(spec, lambda i: [(n, -lam[i], scale * lam[i] ** m * coeffs[i])])


def _explicit(spec: Spectrum, terms) -> ProfileFunction:
    """The profile whose mode i is the sum of the plain terms c t**k e^{mu t}
    of terms(i) = [(k, mu, c), ...].  Every profile written out in closed
    form is built here; each coefficient keeps its per-mode scalar form,
    since a vectorized lam**m can differ from lam[i]**m in the last bit."""
    return ProfileFunction(spec, tuple(ExpPoly.build(terms(i)) for i in range(len(spec))))
