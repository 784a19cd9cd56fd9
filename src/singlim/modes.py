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
exponential of the augmented 4x4 linear system, by its own Taylor scaling
and squaring, is provided as an independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly

__all__ = [
    "ModeParams",
    "RootPair",
    "ForcingTerm",
    "ModeTrajectory",
    "characteristic_roots",
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
    """The slow root mu_plus and the fast root mu_minus."""

    mu_plus: complex
    mu_minus: complex


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


def characteristic_roots(eps: float, lam: float) -> RootPair:
    """Roots of eps*mu**2 + mu + lam = 0 with a cancellation-safe slow root.

    Nearly equal roots need no special branch, because the solution is
    built from divided differences of the exponential.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return RootPair(0.0 + 0j, complex(-1.0 / eps))
    d = 1.0 - 4.0 * eps * lam
    if d == 0.0:
        mu = complex(-1.0 / (2.0 * eps))
        return RootPair(mu, mu)
    if d > 0:
        sq = math.sqrt(d)
        # rationalized form keeps the slow root accurate when eps*lam << 1
        mu_plus = -2.0 * lam / (1.0 + sq)
        mu_minus = -(1.0 + sq) / (2.0 * eps)
        return RootPair(complex(mu_plus), complex(mu_minus))
    beta = math.sqrt(-d) / (2.0 * eps)
    alpha = -1.0 / (2.0 * eps)
    return RootPair(complex(alpha, beta), complex(alpha, -beta))


@dataclass(frozen=True)
class ModeTrajectory:
    """Closed-form solution of one mode: its exponential polynomial, and
    `resonance_escalation`, the number of characteristic roots equal to
    the forcing rate -nu: the extra powers of t in the forced part (0
    plain, 1 at a simple root, 2 at the double root).  Near but unequal
    rates count 0; they are held as divided differences instead.
    """

    poly: ExpPoly
    resonance_escalation: int

    def value(self, t):
        return self.poly.value(t)


def solve_forced(p: ModeParams, f: ForcingTerm) -> ModeTrajectory:
    """Exact solution with forcing (a + b*t)*exp(-nu*t).

    The homogeneous part y0 e^{pt} + (y1 - p*y0) exp[p, n] carries the
    initial data, with p the slow root: with the fast root n ~ -1/eps in
    its place, the coefficient of e^{nt} would come out of cancelling
    O(|y0|) terms and the slope n*c would keep unit roundoff * |y0| / eps
    of rounding.  The forced part (a/eps) exp[p, n, m] + (b/eps)
    exp[p, n, m, m], m = -nu, is the zero-data response, added to it
    unless the forcing is zero; its t-power terms at an exact collision of
    m with a root are the limits of the same formula, so there is no
    branch on q(-nu).
    """
    roots = characteristic_roots(p.eps, p.lam)
    mp, mn, m = roots.mu_plus, roots.mu_minus, complex(-f.nu)
    poly = ExpPoly.build([(0, mp, p.y0)], [((mp, mn), p.y1 - mp * p.y0)])
    if f.is_zero:
        return ModeTrajectory(poly, 0)
    particular = ExpPoly.build(
        (), [((mp, mn, m), f.a / p.eps), ((mp, mn, m, m), f.b / p.eps)]
    )
    return ModeTrajectory(poly + particular, (mp == m) + (mn == m))


# _expm's Taylor degree, and the bound on the power norm of a / 2^s that
# sets the number s of squarings.
_TAYLOR_DEGREE = 40
_TAYLOR_THETA = 6.0

# The Taylor coefficients 1/k!, k = 0, ..., _TAYLOR_DEGREE.
_TAYLOR_COEFFS = np.array([1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1)])

# Paterson-Stockmeyer block size: q - 1 products for the powers up to x^q and
# about degree / q for the Horner steps in x^q, fewest near sqrt(degree), so
# q = ceil(sqrt(40)) = 7.
_PS_BLOCK = 7

# _TAYLOR_COEFFS padded with zeros to whole blocks: row b holds the
# coefficients of x^(q b), ..., x^(q b + q - 1).
_PS_COEFFS = np.concatenate(
    [_TAYLOR_COEFFS, np.zeros(-len(_TAYLOR_COEFFS) % _PS_BLOCK)]
).reshape(-1, _PS_BLOCK)


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of the stack a[..., n, n]."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _expm(a) -> np.ndarray:
    """exp(a) for each matrix of a stack a[..., n, n], by scaling and squaring
    a Taylor polynomial, with the scaling of Al-Mohy & Higham (2009).

    alpha = max(|a^6|^(1/6), |a^7|^(1/7)) in the 1-norm.  The series tail
    starts at degree 41 >= 6 * 5, so by their Theorem 4.2 the tail of
    a / 2^s is at most sum_{k>40} 6^k / k! < 3e-18 once alpha / 2^s <= 6,
    however far from normal a is.  alpha is never above |a|_1, and for the
    oracle's matrices it is far below: they carry lam/eps, a/eps and b/eps
    off the diagonal but decay at about 1/eps, and each squaring that a
    1-norm scaling would add doubles the rounding error.  For the same
    reason the bound 6 is large and the degree high: the squarings carry
    most of the rounding error.  Each matrix is squared its own s times,
    and no more; a matrix whose powers overflow is scaled by its 1-norm
    instead.

    The degree-40 polynomial of x = a / 2^s, with c_k = 1/k!, is evaluated
    by Paterson & Stockmeyer (1973; Higham, Functions of Matrices, 2008,
    section 4.2): x^2, ..., x^7 take 6 products, the six blocks
    sum_{j<7} c_{7b+j} x^j are summed in one pass, and Horner's rule in x^7
    over the blocks takes 5 more.  That is 11 products where Horner's rule
    in x takes 40; with the 4 of the scaling and the s squarings, a matrix
    costs 15 + s.  The blocks' sums run in a fixed order per entry and
    every product is one matrix's own, so each matrix's result is the same
    bits whatever else is in the stack.  The stack is sorted by s, most
    squarings first, so that each squaring step squares a leading slice;
    the order is undone at the end.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    a3 = stack @ stack @ stack
    a6 = a3 @ a3
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha = np.maximum(_norm1(a6) ** (1 / 6), _norm1(a6 @ stack) ** (1 / 7))
        s = np.ceil(np.log2(np.fmin(alpha, _norm1(stack)) / _TAYLOR_THETA))
    s = np.where(s > 0, s, 0).astype(int)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    x = stack[order] * np.ldexp(1.0, -s)[:, None, None]
    powers = [np.broadcast_to(np.eye(n), x.shape), x]
    for _ in range(2, _PS_BLOCK):
        powers.append(powers[-1] @ x)
    xq = powers[-1] @ x
    blocks = np.einsum("bj,jmik->bmik", _PS_COEFFS, np.stack(powers))
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = block + xq @ e
    for k in range(s.max(initial=0)):
        live = np.count_nonzero(s > k)
        e[:live] = e[:live] @ e[:live]
    out = np.empty_like(e)
    out[order] = e
    return out.reshape(a.shape)


def rk_reference_path(p: ModeParams, f: ForcingTerm, ts, tol: float):
    """Oracle values (y, y') at the sample times ts, in any order.

    The state (y, y', e^{-nu t}, t e^{-nu t}) obeys z' = M z with a constant
    4x4 M, so z(t) = exp(t M) z(0) (Van Loan 1978); _expm's Taylor scaling
    and squaring shares no code with the closed form.  `tol` is range
    checked for compatibility but no longer changes the computation.

    The rounding error grows with t/eps, through the squarings.  Relative
    to max(1, |y|), the acceptance suite's random modes (eps >= 1e-4,
    t <= 5) gave at worst 2.5e-13, where scipy's expm gives 6.4e-13.
    tools/oracle_range.py samples modes with lam up to 50 and slowly
    decaying forcing of size 2 at t/eps = 1, 2, 5 times 10^k: the worst
    error was 3.3e-13 up to 5e3, 1.2e-9 up to 5e7, 4.6e-9 up to 5e8 and
    9.8e-9 at 1e9, and from 1e7 on the same to two digits as with Horner's
    rule: the oracle holds a 1e-8 gate while t/eps stays below about 5e8,
    and no further.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("oracle tolerance must lie in [1e-13, 1e-6]")
    ts = np.asarray(ts, dtype=float)
    if not np.all((ts >= 0) & (ts < np.inf)):
        raise ValueError("sample times must be finite and nonnegative")
    m = _oracle_matrix(p, f)
    z = _expm(ts[..., None, None] * m) @ np.array([p.y0, p.y1, 1.0, 0.0])
    return z[..., 0], z[..., 1]


def _oracle_matrix(p: ModeParams, f: ForcingTerm) -> np.ndarray:
    """The 4x4 M of z' = M z, z = (y, y', e^{-nu t}, t e^{-nu t})."""
    e, nu = p.eps, f.nu
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-p.lam / e, -1.0 / e, f.a / e, f.b / e],
            [0.0, 0.0, -nu, 0.0],
            [0.0, 0.0, 1.0, -nu],
        ]
    )
