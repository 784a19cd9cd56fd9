"""Closed-form solver for the damped scalar mode equation.

Solves eps*y'' + y' + lam*y = (a + b*t)*exp(-nu*t) exactly.  With p, n the
roots of q(z) = eps*z**2 + z + lam and m = -nu, the Laplace transform gives
one formula in divided differences of z -> e^{zt}:

    y = y0 e^{pt} + (y1 - p*y0) exp[p, n]
        + (a/eps) exp[p, n, m] + (b/eps) exp[p, n, m, m].

No coefficient is divided by q(-nu) or by the root gap sqrt(1 - 4*eps*lam),
so the solution stays accurate as the forcing rate approaches a root
(near-resonance) and as the roots approach each other (near-critical).
ExpPoly expands the divided differences: well separated rates become plain
terms, equal rates become powers of t (the exact-collision cases), and
close but unequal rates stay grouped as divided differences evaluated by a
series.  There is no resonance or critical window to tune.  The matrix
exponential of the augmented 4x4 linear system is provided as an independent
numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .exppoly import ExpPoly

__all__ = [
    "ModeParams",
    "RootPair",
    "ForcingTerm",
    "ModeTrajectory",
    "characteristic_roots",
    "solve_homogeneous",
    "solve_forced",
    "rk_reference_path",
]


@dataclass(frozen=True)
class ModeParams:
    """One eigenmode of the damped problem: eps*y'' + y' + lam*y with data."""

    eps: float
    lam: float
    y0: float
    y1: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")


@dataclass(frozen=True)
class RootPair:
    mu_plus: complex
    mu_minus: complex
    classification: str


@dataclass(frozen=True)
class ForcingTerm:
    """Forcing (a + b*t) * exp(-nu*t); the family every profile needs."""

    a: float
    b: float
    nu: float

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("forcing decay rate nu must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.a == 0.0 and self.b == 0.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = (self.a + self.b * t) * np.exp(-self.nu * t)
        return out if out.ndim else float(out)


ZERO_FORCING = ForcingTerm(0.0, 0.0, 0.0)


def characteristic_roots(eps: float, lam: float) -> RootPair:
    """Roots of eps*mu**2 + mu + lam = 0 with a cancellation-safe slow root.

    "critical" means an exactly vanishing discriminant; nearly equal roots
    need no special branch, because the solution is built from divided
    differences of the exponential.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return RootPair(0.0 + 0j, complex(-1.0 / eps), "degenerate_lambda_zero")
    d = 1.0 - 4.0 * eps * lam
    if d == 0.0:
        mu = complex(-1.0 / (2.0 * eps))
        return RootPair(mu, mu, "critical")
    if d > 0:
        sq = math.sqrt(d)
        # rationalized form keeps the slow root accurate when eps*lam << 1
        mu_plus = -2.0 * lam / (1.0 + sq)
        mu_minus = -(1.0 + sq) / (2.0 * eps)
        return RootPair(complex(mu_plus), complex(mu_minus), "overdamped")
    beta = math.sqrt(-d) / (2.0 * eps)
    alpha = -1.0 / (2.0 * eps)
    return RootPair(complex(alpha, beta), complex(alpha, -beta), "underdamped")


def _homogeneous_poly(roots: RootPair, y0: float, y1: float) -> ExpPoly:
    """Homogeneous solution y0 e^{pt} + (y1 - p*y0) exp[p, n] matching
    (y(0), y'(0)) = (y0, y1).

    p is the slow root: with the fast root n ~ -1/eps in its place, the
    coefficient of e^{nt} would come out of cancelling O(|y0|) terms and
    the slope n*c would keep unit roundoff * |y0| / eps of rounding.
    """
    p, n = roots.mu_plus, roots.mu_minus
    return ExpPoly.build([(0, p, y0)], [((p, n), y1 - p * y0)])


@dataclass(frozen=True)
class ModeTrajectory:
    """Closed-form record for one mode: roots, forced part, evaluators.

    Evaluation at 0 reproduces the initial data by construction; the
    residual method recomputes eps*y'' + y' + lam*y - f analytically.
    `particular` is the response to the forcing from zero data.
    `resonance_escalation` counts the characteristic roots equal to the
    forcing rate -nu: the extra powers of t in the forced part (0 plain,
    1 at a simple root, 2 at the double root).  Near but unequal rates
    count 0; they are held as divided differences instead.
    """

    params: ModeParams
    forcing: ForcingTerm
    roots: RootPair
    poly: ExpPoly
    particular: ExpPoly
    resonance_escalation: int

    def value(self, t):
        return self.poly.value(t)

    def derivative(self, t):
        return self.poly.derivative().value(t)

    def residual(self, t):
        p = self.params
        d1 = self.poly.derivative()
        d2 = d1.derivative()
        return (
            p.eps * d2.value(t)
            + d1.value(t)
            + p.lam * self.poly.value(t)
            - self.forcing.value(t)
        )


def solve_homogeneous(p: ModeParams) -> ModeTrajectory:
    """Exact unforced solution y0 e^{pt} + (y1 - p*y0) exp[p, n], with p
    the slow root and n the fast one (see _homogeneous_poly)."""
    roots = characteristic_roots(p.eps, p.lam)
    poly = _homogeneous_poly(roots, p.y0, p.y1)
    return ModeTrajectory(p, ZERO_FORCING, roots, poly, ExpPoly.zero(), 0)


def solve_forced(p: ModeParams, f: ForcingTerm) -> ModeTrajectory:
    """Exact solution with forcing (a + b*t)*exp(-nu*t).

    The forced part (a/eps) exp[p, n, m] + (b/eps) exp[p, n, m, m], m = -nu,
    is the zero-data response; its t-power terms at an exact collision of m
    with a root are the limits of the same formula, so there is no branch
    on q(-nu).  The homogeneous part carries the initial data.
    `resonance_escalation` is the number of roots equal to -nu.
    """
    if f.is_zero:
        traj = solve_homogeneous(p)
        return ModeTrajectory(p, f, traj.roots, traj.poly, ExpPoly.zero(), 0)
    roots = characteristic_roots(p.eps, p.lam)
    mp, mn, m = roots.mu_plus, roots.mu_minus, complex(-f.nu)
    particular = ExpPoly.build(
        (), [((mp, mn, m), f.a / p.eps), ((mp, mn, m, m), f.b / p.eps)]
    )
    homog = _homogeneous_poly(roots, p.y0, p.y1)
    escalation = (mp == m) + (mn == m)
    return ModeTrajectory(p, f, roots, homog + particular, particular, escalation)


def rk_reference_path(p: ModeParams, f: ForcingTerm, ts, tol: float):
    """Oracle values (y, y') at the sample times ts, in any order.

    The state (y, y', e^{-nu t}, t e^{-nu t}) obeys z' = M z with a constant
    4x4 M, so z(t) = expm(t M) z(0) (Van Loan 1978); scipy's Pade scaling
    and squaring shares no code with the closed form.  `tol` is range
    checked for compatibility but no longer changes the computation.

    The rounding error grows like u*t/eps (u the unit roundoff).  Relative
    to max(1, |y|), random modes with lam <= 50 and unit-size data and
    forcing gave at worst 3.4e-9 at eps = 1e-7 on t <= 5 and 1.8e-9 at
    eps = 1e-6 on t <= 20, but 1.9e-8 at eps = 1e-7 on t <= 20: the oracle
    holds a 1e-8 gate while t/eps stays below about 5e7, and no further.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("oracle tolerance must lie in [1e-13, 1e-6]")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("sample times must be nonnegative")
    e, nu = p.eps, f.nu
    m = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-p.lam / e, -1.0 / e, f.a / e, f.b / e],
            [0.0, 0.0, -nu, 0.0],
            [0.0, 0.0, 1.0, -nu],
        ]
    )
    z = expm(ts[..., None, None] * m) @ np.array([p.y0, p.y1, 1.0, 0.0])
    return z[..., 0], z[..., 1]
