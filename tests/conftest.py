import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from singlim.exppoly import ExpPoly
from singlim.modes import ForcingTerm, ModeParams, rk_reference_path
from singlim.spectral import Spectrum
from singlim.profiles import ProblemData, ProfileFunction, sample_together
from singlim.timegrid import TimeGrid


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env() -> dict:
    """Environment for a CLI subprocess, with src/ on its import path."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``singlim`` as a subprocess under the suite's warning policy: a
    RuntimeWarning is an error, so a run that warns ends in a traceback."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "singlim.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def decay_vector(n: int, p: float = 2.0) -> np.ndarray:
    return np.array([(1.0 + i) ** (-p) for i in range(n)])


def make_problem(lams, eps, p=2.0, il0=False) -> ProblemData:
    spec = Spectrum(np.array(lams, dtype=float))
    u0 = decay_vector(len(lams), p)
    if il0:
        u1 = -spec.eigenvalues * u0
    else:
        u1 = decay_vector(len(lams), p)
    return ProblemData(spec, eps, u0, u1)


def oracle_generator_cases(n: int = 50, seed: int = 20240811) -> list:
    """The acceptance suite's oracle-equivalence cases, (params, forcing, ts):
    log10 eps uniform on [-4, 0], lam = 0 with probability 0.2 and else
    log10 lam uniform on [-2, 1.7], y0, y1, a, b uniform on [-2, 2], nu
    uniform on [0, 5], and 20 sorted times uniform on [0, t_end], t_end
    uniform on [0.5, 5]."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        eps = float(10.0 ** rng.uniform(-4.0, 0.0))
        lam = 0.0 if rng.uniform() < 0.2 else float(10.0 ** rng.uniform(-2.0, 1.7))
        y0, y1, a, b = (float(x) for x in rng.uniform(-2.0, 2.0, size=4))
        nu = float(rng.uniform(0.0, 5.0))
        t_end = float(rng.uniform(0.5, 5.0))
        ts = np.sort(rng.uniform(0.0, t_end, size=20))
        cases.append((ModeParams(eps, lam, y0, y1), ForcingTerm(a, b, nu), ts))
    return cases


def oracle_rel_err(closed, oracle) -> float:
    """Worst error relative to max(1, |closed|, |oracle|) over the samples."""
    scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(oracle)))
    return float(np.max(np.abs(closed - oracle) / scale))


def oracle_at(p: ModeParams, f: ForcingTerm, t: float, tol: float):
    """The oracle's (y(t), y'(t)) at a single time."""
    ys, dys = rk_reference_path(p, f, np.array([t]), tol)
    return float(ys[0]), float(dys[0])


def weighted_kernel(
    spec: Spectrum, t: float, n: int, m: float, f: np.ndarray
) -> np.ndarray:
    """Reference weighted heat kernel t**n * A**m * e^{-tA} f, coefficientwise."""
    if t < 0:
        raise ValueError("kernel time must be nonnegative")
    if m < 0:
        raise ValueError("negative operator powers are not defined")
    lam = spec.eigenvalues
    return t**n * lam**m * np.exp(-lam * t) * f


def integral_to_infinity(poly: ExpPoly) -> float:
    """int_0^inf of an exponential polynomial whose every rate decays."""
    rates = [mu for _, mu, _ in poly.terms]
    rates += [z for nodes, _ in poly.differences for z in nodes]
    for mu in rates:
        if mu.real >= 0:
            raise ValueError(f"integrand does not decay (rate {mu}); integral diverges")
    acc = 0j
    for k, mu, c in poly.terms:
        acc += c * (math.factorial(k) / (-mu) ** (k + 1))  # int_0^inf s^k e^{mu s}
    for nodes, c in poly.differences:
        # int_0^inf exp[Z] = (-1/z)[Z] = (-1)**(n+1) / prod Z
        acc += c * (-1) ** len(nodes) / math.prod(nodes)
    return acc.real


def moment_series(k: int, mu: complex, t: np.ndarray) -> np.ndarray:
    """Reference series for int_0^t s^k e^{mu s} ds: one loop per rate and
    order, stopping when all(|term| <= 1e-18 |acc|)."""
    # int_0^t s^k e^{mu s} ds = t^{k+1} * sum_m (mu t)^m / (m! (k+m+1))
    z = mu * t
    term = np.ones(t.shape, dtype=complex) / (k + 1)
    acc = term.copy()
    for m in range(1, 60):
        term = term * z * (k + m) / (m * (k + m + 1))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return t ** (k + 1) * acc


def reference_moment(k: int, mu: complex, t) -> np.ndarray:
    """Reference power_exp_moment: moment_series on the small points |mu t| <
    0.8, the upward recurrence on the others, the first dead point's value
    (Re(mu t) <= -746) on every dead point."""
    t = np.asarray(t, dtype=float)
    if mu == 0:
        return t ** (k + 1) / (k + 1) + 0j
    out = np.empty(t.shape, dtype=complex)
    small = np.abs(mu * t) < 0.8
    dead = mu.real * t <= -746.0
    rest = ~(small | dead)
    if np.any(small):
        out[small] = moment_series(k, mu, t[small])
    for part, times in ((rest, t[rest]), (dead, t[dead][:1])):
        if times.size:
            e = np.exp(mu * times)
            acc = (e - 1.0) / mu
            for j in range(1, k + 1):
                acc = (times**j * e - j * acc) / mu
            out[part] = acc
    return out


def reference_integral(poly: ExpPoly, t):
    """Reference ExpPoly.integral: its terms in order, each moment from
    reference_moment; divided differences through exp[Z, 0]."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    for k, mu, c in poly.terms:
        acc += c * reference_moment(k, mu, t)
    out = acc.real
    if poly.differences:
        anti = ExpPoly.build((), [(z + (0j,), c) for z, c in poly.differences])
        out = out + anti.value(t)
    return out if out.ndim else float(out)


def sample(profile: ProfileFunction, ts) -> np.ndarray:
    """The profile's values on an array of times, shape (len(ts), n_modes):
    sample_together of the profile alone."""
    return sample_together((profile,), ts)[0]


def l2_time_norm_quadrature(profile: ProfileFunction, grid: TimeGrid) -> float:
    """Simpson cross-check of verification.l2_time_norm on the same grid."""
    samp = sample(profile, grid.quad_points)
    return float(grid.cumulative_integral(np.sum(samp**2, axis=1))[-1])


@pytest.fixture
def three_mode() -> Spectrum:
    return Spectrum(np.array([0.0, 1.0, 4.0]))


@pytest.fixture
def single_mode() -> Spectrum:
    return Spectrum(np.array([1.0]))
