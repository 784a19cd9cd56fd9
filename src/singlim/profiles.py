"""Closed-form trajectory profiles for the damped problem and its limit.

Every profile is stored per eigenmode as an exponential polynomial, so
values, derivatives, and time integrals are all analytic.  Above exppoly
and modes only this module sees that form: callers sample through
sample_together, take norms at each time through norms_together and
squared_norms_together and weighted sums over segments of times through
segment_sums, which reduce the values mode by mode, and integrate
squares through squared_integrals.  Besides
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

from .exppoly import ExpPoly, SampleTimes, accumulate, integrate
from .modes import ForcingTerm, ModeParams, solve_forced
from .spectral import Spectrum, norm, sample_norms

__all__ = ["ProblemData", "ProfileFunction", "sample_together", "squared_norms_together",
           "norms_together", "segment_sums", "squared_integrals", "kernel_profile"]

# Tolerance deciding whether the data satisfies the compatibility condition
# v1 = A u0 + u1 = 0 (which switches off the initial layer), relative to
# |A u0| + |u1|, so that the verdict does not depend on the data's scale.
_IL0_TOL = 1e-12

# _OVERFLOW: a coefficient made of a power of a large eigenvalue (lam**2 at
# lam = 1e250) overflows to inf, and an inf coefficient times 0 reads NaN.
# Where such coefficients are made and combined, numpy's overflow and
# invalid-value warnings are off: the records their values enter are not
# finite, and FAIL with that reason.


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

    @cached_property
    def il0_satisfied(self) -> bool:
        au0 = self.spec.eigenvalues * self.u0
        return norm(self.v1) <= _IL0_TOL * (norm(au0) + norm(self.u1))

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

    @cached_property
    def weighted_convolution(self) -> ProfileFunction:
        """Operator-weighted convolution eps int_0^t e^{(s-t)/eps} A e^{-sA} v1 ds,
        eps lam v1 exp[-lam, -1/eps](t) in each mode."""
        eps, lam, v1 = self.eps, self.spec.eigenvalues, self.v1
        return _explicit(self.spec, lambda i: [],
                         lambda i: [((-lam[i], -1.0 / eps), eps * lam[i] * v1[i])])

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
        with np.errstate(over="ignore", invalid="ignore"):  # see _OVERFLOW
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
        with np.errstate(over="ignore"):  # see _OVERFLOW
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
        with np.errstate(over="ignore"):  # see _OVERFLOW
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
        with np.errstate(over="ignore", invalid="ignore"):  # see _OVERFLOW
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

    def coefficient_scales(self) -> np.ndarray:
        """Largest term magnitude of each mode, a conditioning measure."""
        return np.array([m.coefficient_scale() for m in self.modes])

    def deriv(self) -> "ProfileFunction":
        return self._new(m.derivative() for m in self.modes)

    def __add__(self, other: "ProfileFunction") -> "ProfileFunction":
        self._check(other)
        return self._new(a + b for a, b in zip(self.modes, other.modes))

    def __sub__(self, other: "ProfileFunction") -> "ProfileFunction":
        return self + other.scale(-1.0)

    def scale(self, alpha: float) -> "ProfileFunction":
        return self._new(m.scale(alpha) for m in self.modes)

    def operator_power(self, s: float) -> "ProfileFunction":
        """Apply a fractional operator power mode by mode."""
        if s < 0:
            raise ValueError("negative operator powers are not defined")
        lam = self.spectrum.eigenvalues
        return self._new(m.scale(lam[i] ** s) for i, m in enumerate(self.modes))

    def _new(self, modes) -> "ProfileFunction":
        """The profile of these modes on this spectrum (see _OVERFLOW)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return ProfileFunction(self.spectrum, tuple(modes))

    def _check(self, other: "ProfileFunction") -> None:
        if len(self.modes) != len(other.modes):
            raise ValueError("profiles live on different spectra")


def _each_mode(profiles, ts, rows, take=None) -> None:
    """For each mode i in order, add mode i of every profile at ts into
    rows(i), one zeroed row per profile, then call take(i, rows(i)) if
    given.

    ts is an array of times, or the evaluation table of one array
    (ProblemData.sample_times).  Mode by mode, exppoly.accumulate adds the
    modes' terms into the rows in place, taking the exponentials, powers
    and divided differences from one table, so a rate the profiles have in
    common, or its conjugate, is evaluated once; the live times of each
    decay rate are found once for all modes.  A table handed in keeps every
    value for the next call it is handed to.  An array gets a table of this
    call's own, which keeps one mode's values at a time: the modes share
    few rates, and holding all of them would only add to the call's peak
    memory.  Each value is the real termwise sum of its mode's terms, the
    same bit for bit as evaluating the profiles one by one, with a fresh
    table or a shared one.  A coefficient that overflowed to inf reads
    inf * 0 = NaN where its power of t or its divided difference is 0, so
    the loop, take included, runs with numpy's invalid-value warning off:
    the records such values enter FAIL as not finite.
    """
    for p in profiles[1:]:
        profiles[0]._check(p)
    own = not isinstance(ts, SampleTimes)
    times = SampleTimes(np.asarray(ts, dtype=float).reshape(-1)) if own else ts
    with np.errstate(invalid="ignore"):
        for i, modes in enumerate(zip(*(p.modes for p in profiles))):
            values = rows(i)
            accumulate(modes, times, values)
            if own:
                for kept in (times.exps, times.powers, times.diffs):
                    kept.clear()
            if take is not None:
                take(i, values)


def _size(ts) -> int:
    """The number of times in ts, an array of times or its table."""
    return (ts.t if isinstance(ts, SampleTimes) else np.asarray(ts)).size


def sample_together(profiles, ts) -> list[np.ndarray]:
    """The values of each of profiles, on one spectrum, at the times ts as
    _each_mode takes it: each profile is evaluated into a zeroed mode-major
    (n_modes, n_times) array, mode by mode, and returned as its transposed
    (n_times, n_modes) view.  Callers that need a norm of the values at
    each time take norms_together or squared_norms_together instead, which
    hold no such array."""
    samples = [np.zeros((len(p.modes), _size(ts))) for p in profiles]
    _each_mode(profiles, ts, lambda i: [sample[i] for sample in samples])
    return [sample.T for sample in samples]


def _rows(i, values):
    return values


def squared_norms_together(profiles, ts, combine=_rows) -> list[np.ndarray]:
    """|x(t)|^2 at each time of ts for each vector x that combine makes of
    the profiles, with ts as _each_mode takes it.

    Each mode is evaluated into one reused (n_profiles, n_times) buffer.
    combine(i, values) gets values[j], profile j's samples of the modes i,
    and returns the samples of each x at those modes: by default the
    profiles themselves, or differences such as values[0] - values[1].  An
    array of per-mode columns enters as column i, array[:, i].  The squares
    are added mode by mode, into one total per x, so no (n_times, n_modes)
    array is made, and each total has the bits of spectral.squared_norms
    of the samples of x."""
    buffer = np.empty((len(profiles), _size(ts)))
    totals = []

    def zeroed(i):
        buffer.fill(0.0)
        return buffer

    def add(i, values):
        xs = combine(i, values)
        if i == 0:
            totals.extend(np.zeros(x.shape) for x in xs)
        for total, x in zip(totals, xs):
            total += x * x

    _each_mode(profiles, ts, zeroed, add)
    return totals


def segment_sums(profile, ts, weights, starts, out, at) -> None:
    """out[at, i] = np.add.reduceat(weights * p_i(ts), starts) for each mode
    p_i of profile, with ts as _each_mode takes it: the weighted values of
    each mode summed over the segments of ts that begin at starts.

    Each mode is evaluated into one reused row, multiplied by the weights
    in place and reduced straight into its column of out, so no
    (n_modes, n_times) array is made, and each sum has the bits of the
    reduceat of that mode's samples alone."""
    row = np.empty(_size(ts))

    def zeroed(i):
        row.fill(0.0)
        return (row,)

    def reduce(i, values):
        (weighted,) = values
        weighted *= weights
        out[at, i] = np.add.reduceat(weighted, starts)

    _each_mode((profile,), ts, zeroed, reduce)


def norms_together(profiles, ts, combine=_rows) -> list[np.ndarray]:
    """|x(t)| at each time of ts for each x that combine makes of the
    profiles (see squared_norms_together), with the bits of
    spectral.sample_norms of the samples of x: the square roots of the
    mode by mode sums, which is what sample_norms keeps at every time whose
    sum is finite.  Only if some sum reads inf (squares of samples above
    about 1e154 overflow) are the profiles sampled whole, by
    sample_together, and combine(slice(None), samples) gets every mode of
    every profile at once, for sample_norms to rescale those times."""
    with np.errstate(over="ignore"):  # a sum that overflows is taken again below
        totals = squared_norms_together(profiles, ts, combine)
    if not any(np.isinf(total).any() for total in totals):
        return [np.sqrt(total) for total in totals]
    return [sample_norms(x) for x in combine(slice(None), sample_together(profiles, ts))]


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


def _explicit(spec: Spectrum, terms, differences=lambda i: ()) -> ProfileFunction:
    """The profile whose mode i is the sum of the plain terms c t**k e^{mu t}
    of terms(i) = [(k, mu, c), ...] and the divided differences c exp[Z](t)
    of differences(i) = [(Z, c), ...].  Every profile written out in closed
    form is built here; each coefficient keeps its per-mode scalar form,
    since a vectorized lam**m can differ from lam[i]**m in the last bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # see _OVERFLOW
        return ProfileFunction(spec, tuple(ExpPoly.build(terms(i), differences(i))
                                           for i in range(len(spec))))
