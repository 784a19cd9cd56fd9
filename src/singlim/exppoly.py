"""Exact arithmetic on exponential polynomials sum_j c_j * t**k_j * exp(mu_j*t).

Every closed-form trajectory in this package (damped modes, semigroup
kernels, layer terms) lives in this family, and the family is closed under
differentiation, products, and integration.  That gives analytic time
integrals for the energy functionals, with quadrature demoted to a
cross-check.

Rates mu may be complex; real-valued functions carry conjugate term pairs
and evaluation returns the real part.

Rates that are close but not equal would need large cancelling
coefficients in that form: (e^{at} - e^{bt}) / (a - b) for a near b.  Such
rates are kept together as divided differences of the exponential,
c * exp[z_0, ..., z_n](t), the n-th divided difference of z -> e^{zt} over
the nodes z_j (McCurdy, Ng & Parlett, Math. Comp. 43, 1984).  A plain term
is the confluent case, t**k e^{mu t} = k! * exp[mu, ..., mu](t) with k+1
equal nodes, and the algebra stays closed: d/dt exp[z_0..z_n] =
z_0 exp[z_0..z_n] + exp[z_1..z_n], int_0^t exp[Z] = exp[Z, 0](t), and a
product is a sum over lattice paths of divided differences at the
pairwise node sums.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpPoly", "divided_difference_exp", "evaluate", "integrate", "power_exp_moment"
]

# Below this value of |mu*t| the upward recurrence for the moments
# int_0^t s**k exp(mu*s) ds loses digits to cancellation; use the series.
_SERIES_THRESHOLD = 0.8

# exp(x) rounds to exactly 0 for x below about -745.13 (half the smallest
# subnormal, 2.5e-324), so a term whose Re(mu*t) is at most this value
# contributes exactly 0 and need not be evaluated.
_UNDERFLOW_EXPONENT = -746.0

# Two rates share a divided-difference group when they are closer than this
# fraction of max(1, |z|, |w|) (the 1 is the unit time scale, below which
# rates count as close to 0).  Between groups the partial-fraction weights
# of up to four nodes stay below about _GROUP_GAP**-3 times the size of the
# function, so the plain form loses at most about two digits.
_GROUP_GAP = 0.2

# exp[w_0..w_n](tau) is summed as a Taylor series while max|w|*tau stays
# below this radius; larger times are reached by squaring (scaling and
# squaring of the bidiagonal node matrix).
_SERIES_RADIUS = 0.5


def power_exp_moment(k: int, mu: complex, t):
    """int_0^t s**k * exp(mu*s) ds for scalar mu and scalar or array t."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return _moments(mu, (k,), np.asarray(t, dtype=float))[k]


def _moments(mu: complex, orders, t: np.ndarray) -> dict:
    """{k: int_0^t s**k * exp(mu*s) ds} for each k in orders.

    One upward recurrence to the largest order serves every order, since
    it passes through the lower ones; the series is summed per order.
    """
    if mu == 0:
        return {k: t ** (k + 1) / (k + 1) + 0j for k in orders}
    out = {k: np.empty(t.shape, dtype=complex) for k in orders}
    small = np.abs(mu * t) < _SERIES_THRESHOLD
    # where e^{mu t} is exactly 0 the recurrence does not depend on t
    dead = mu.real * t <= _UNDERFLOW_EXPONENT
    rest = ~(small | dead)
    if np.any(small):
        ts = t[small]
        for k in orders:
            out[k][small] = _moment_series(k, mu, ts)
    # the dead points all take the value of the first one
    for part, times in ((rest, t[rest]), (dead, t[dead][:1])):
        if times.size:
            accs = _moment_recurrence(max(orders), mu, times)
            for k in orders:
                out[k][part] = accs[k]
    return out


def _moment_series(k: int, mu: complex, t: np.ndarray) -> np.ndarray:
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


def _moment_recurrence(k: int, mu: complex, t: np.ndarray) -> list[np.ndarray]:
    """The moments of orders 0..k by the upward recurrence."""
    e = np.exp(mu * t)
    accs = [(e - 1.0) / mu]
    for j in range(1, k + 1):
        accs.append((t**j * e - j * accs[-1]) / mu)
    return accs


def _infinite_moment(k: int, mu: complex) -> complex:
    # int_0^inf s^k e^{mu s} ds, requires Re mu < 0
    return math.factorial(k) / (-mu) ** (k + 1)


def _node_key(z: complex):
    return (z.real, z.imag)


def _groups(nodes: list[complex]) -> list[list[complex]]:
    """Single-linkage groups of nodes closer than the group gap."""
    label = list(range(len(nodes)))
    for i, zi in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            zj = nodes[j]
            near = abs(zi - zj) <= _GROUP_GAP * max(1.0, abs(zi), abs(zj))
            if near and label[j] != label[i]:
                old = label[j]
                label = [label[i] if x == old else x for x in label]
    groups: dict[int, list[complex]] = {}
    for z, x in zip(nodes, label):
        groups.setdefault(x, []).append(z)
    return list(groups.values())


def _pole_weights(poles: list[complex], xs: list[complex]) -> list[complex]:
    """w[x_i, ..., x_r] for i = 0..r, where w(z) = prod_c 1/(z - c).

    Built factor by factor with the Leibniz rule; a single factor has the
    closed form 1/(z - c)[x_i..x_l] = (-1)**(l-i) / prod_m (x_m - c), so
    nothing cancels while the poles stay away from the nodes.
    """
    r = len(xs) - 1
    col = [0j] * r + [1.0 + 0j]
    for c in poles:
        new = []
        for i in range(r + 1):
            f = 1.0 / (xs[i] - c)
            acc = f * col[i]
            for m in range(i + 1, r + 1):
                f = -f / (xs[m] - c)
                acc += f * col[m]
            new.append(acc)
        col = new
    return col


@functools.lru_cache(maxsize=4096)
def _expansion(nodes: tuple[complex, ...]):
    """exp[nodes](t) as plain terms (k, mu, w) and single-group differences
    (sorted nodes, w).

    Partial fractions over the groups: exp[Z] = sum_g (e^{zt} w_g)[G_g] with
    w_g the product of 1/(z - c) over the nodes outside the group, then the
    Leibniz rule (f w)[g_0..g_r] = sum_i f[g_0..g_i] w[g_i..g_r].  Repeated
    nodes go first so that the prefixes f[g_0..g_i] stay plain terms for as
    long as possible; an all-equal prefix is t**i e^{gt} / i!.
    """
    plain, diffs = [], []
    groups = _groups(list(nodes))
    for gi, group in enumerate(groups):
        group = sorted(group, key=lambda z: (-group.count(z), _node_key(z)))
        poles = [z for gj, other in enumerate(groups) if gj != gi for z in other]
        for i, w in enumerate(_pole_weights(poles, group)):
            if w == 0:
                continue
            prefix = group[: i + 1]
            if all(z == prefix[0] for z in prefix):
                plain.append((i, prefix[0], w / math.factorial(i)))
            else:
                diffs.append((tuple(sorted(prefix, key=_node_key)), w))
    return tuple(plain), tuple(diffs)


def _series_order(x: float) -> int:
    """Terms needed for x**(K+1)/(K+1)! to drop below 1e-17."""
    k, term = 0, x
    while term > 1e-17:
        k += 1
        term *= x / (k + 1)
    return k


_MAX_ORDER = _series_order(_SERIES_RADIUS)


@functools.lru_cache(maxsize=4096)
def _difference_table(nodes: tuple[complex, ...]):
    """Shift, radius and normalized Taylor coefficients of exp[w_i..w_j].

    With w = z - shift (shift the node of largest real part, so every
    e^{wt} stays bounded) and x = r*tau, r = max|w|:
    exp[w_i..w_j](tau) = tau**(j-i) * sum_k h_k(w_i/r..w_j/r) x**k / (k+j-i)!
    with h_k the complete homogeneous symmetric polynomial.  Real nodes
    give a real table.
    """
    shift = max(nodes, key=_node_key)
    w = [z - shift for z in nodes]
    r = max(abs(x) for x in w)
    u = [x / r for x in w]
    n = len(nodes) - 1
    table = np.zeros((n + 1, n + 1, _MAX_ORDER + 1), dtype=complex)
    for i in range(n + 1):
        h = np.array([u[i] ** k for k in range(_MAX_ORDER + 1)])
        for j in range(i, n + 1):
            if j > i:
                for k in range(1, _MAX_ORDER + 1):
                    h[k] = h[k] + u[j] * h[k - 1]
            table[i, j] = h / np.array(
                [math.factorial(k + j - i) for k in range(_MAX_ORDER + 1)]
            )
    if all(z.imag == 0 for z in nodes):
        table, shift = table.real.copy(), shift.real
    table.setflags(write=False)
    return shift, r, table


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _difference_value(nodes: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    """exp[nodes](t) for a sorted group of unequal nodes and a float array t."""
    if len(nodes) == 2:
        # e^{bt} * expm1((a - b) t) / (a - b), Re(a - b) <= 0 after sorting
        a, b = nodes
        if a.imag == 0 and b.imag == 0:
            a, b = a.real, b.real
        return np.exp(b * t) * np.expm1((a - b) * t) / (a - b)
    shift, r, table = _difference_table(nodes)
    n = len(nodes) - 1
    flat = t.ravel()
    x = r * flat
    out = np.empty(flat.shape, dtype=table.dtype)
    small = x <= _SERIES_RADIUS
    if np.any(small):
        xs = x[small]
        order = max(_series_order(float(np.max(xs))), 1)
        out[small] = flat[small] ** n * _horner(table[0, n, : order + 1], xs)
    if not np.all(small):
        out[~small] = _scaled_squaring(table, r, flat[~small])
    return out.reshape(t.shape) * np.exp(shift * t)


def _scaled_squaring(table: np.ndarray, r: float, t: np.ndarray) -> np.ndarray:
    """exp[w_0..w_n](t) from the series at t/2**s and s squarings of the
    triangular table exp[w_i..w_j] (exp of the scaled bidiagonal matrix)."""
    n = table.shape[0] - 1
    squarings = np.ceil(np.log2(r * t / _SERIES_RADIUS)).astype(int)
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    tau = np.ldexp(t[order], -squarings)
    span = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    powers = np.where(span >= 0, tau[:, None, None] ** np.maximum(span, 0), 0.0)
    mat = np.zeros((tau.size, n + 1, n + 1), dtype=table.dtype)
    rt = (r * tau)[:, None, None]
    for k in range(table.shape[2] - 1, -1, -1):
        mat = mat * rt + table[None, :, :, k]
    mat *= powers
    # sorted by squarings, the points still to square form a leading slice
    for step in range(int(squarings[0])):
        m = int(np.count_nonzero(squarings > step))
        mat[:m] = mat[:m] @ mat[:m]
    out = np.empty(t.shape, dtype=table.dtype)
    out[order] = mat[:, 0, n]
    return out


def divided_difference_exp(nodes, t):
    """exp[z_0, ..., z_n](t): the n-th divided difference of z -> e^{zt}.

    Any nodes, repeated or not, scalar or array t.  A pair uses
    e^{bt} expm1((a-b)t)/(a-b); more nodes use a Taylor series of the
    shifted nodes while max|w|*t is small and scaling and squaring beyond.
    The relative error is that of the exponentials themselves (a few ulps
    times max|z*t|), whatever the spacing of the nodes.
    """
    nodes = tuple(sorted((complex(z) for z in nodes), key=_node_key))
    t = np.asarray(t, dtype=float)
    n = len(nodes) - 1
    if all(z == nodes[0] for z in nodes):
        out = t**n * np.exp(nodes[0] * t) / math.factorial(n)
    else:
        out = _difference_value(nodes, t) + 0j
    return out if out.ndim else complex(out)


def _lattice_paths(a: tuple, b: tuple):
    """Node tuples of exp[A](t) * exp[B](t) = sum over monotone lattice paths
    from (0, 0) to (len(A)-1, len(B)-1) of exp[a_i + b_j along the path]."""
    na, nb = len(a) - 1, len(b) - 1
    for steps in itertools.combinations(range(na + nb), na):
        i = j = 0
        path = [a[0] + b[0]]
        for s in range(na + nb):
            if s in steps:
                i += 1
            else:
                j += 1
            path.append(a[i] + b[j])
        yield path


@dataclass(frozen=True)
class ExpPoly:
    """Terms ((k, mu, c), ...) for sum c * t**k * e^{mu t}, plus divided
    differences ((nodes, c), ...) for sum c * exp[nodes](t).

    Each divided difference holds one group of close, not all equal, rates
    in sorted order; build() brings any node tuple to that form.
    """

    terms: tuple[tuple[int, complex, complex], ...]
    differences: tuple[tuple[tuple[complex, ...], complex], ...] = ()

    @staticmethod
    def build(terms, differences=()) -> "ExpPoly":
        """Merge duplicates (same power and rate, or same nodes) and drop zero
        coefficients; differences (nodes, c) may have any nodes."""
        merged: dict[tuple[int, complex], complex] = {}
        for k, mu, c in terms:
            if c == 0:
                continue
            key = (int(k), complex(mu))
            merged[key] = merged.get(key, 0j) + complex(c)
        groups: dict[tuple[complex, ...], complex] = {}
        for nodes, c in differences:
            if c == 0:
                continue
            plain, diffs = _expansion(tuple(map(complex, nodes)))
            for k, mu, w in plain:
                merged[(k, mu)] = merged.get((k, mu), 0j) + c * w
            for key, w in diffs:
                groups[key] = groups.get(key, 0j) + c * w
        cleaned = tuple(
            (k, mu, c)
            for (k, mu), c in sorted(
                merged.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag)
            )
            if c != 0
        )
        if not groups:
            return ExpPoly(cleaned)
        grouped = tuple(
            (nodes, c)
            for nodes, c in sorted(
                groups.items(), key=lambda kv: [_node_key(z) for z in kv[0]]
            )
            if c != 0
        )
        return ExpPoly(cleaned, grouped)

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def exponential(c: float, mu: complex) -> "ExpPoly":
        """c * exp(mu*t)."""
        return ExpPoly.build([(0, mu, c)])

    def value(self, t):
        """Evaluate at scalar or array t; returns the real part (see evaluate)."""
        return evaluate((self,), t)[0]

    def derivative(self) -> "ExpPoly":
        terms = []
        for k, mu, c in self.terms:
            if k > 0:
                terms.append((k - 1, mu, k * c))
            terms.append((k, mu, mu * c))
        diffs = []
        for nodes, c in self.differences:
            diffs.append((nodes, nodes[0] * c))
            diffs.append((nodes[1:], c))
        return ExpPoly.build(terms, diffs)

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly.build(
            self.terms + other.terms, self.differences + other.differences
        )

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scale(-1.0)

    def scale(self, alpha: complex) -> "ExpPoly":
        return ExpPoly.build(
            [(k, mu, alpha * c) for k, mu, c in self.terms],
            [(nodes, alpha * c) for nodes, c in self.differences]
            if self.differences
            else (),
        )

    def _as_differences(self):
        """Every term as (nodes, c); t**k e^{mu t} is k! exp[mu, ..., mu]."""
        plain = [((mu,) * (k + 1), c * math.factorial(k)) for k, mu, c in self.terms]
        return plain + list(self.differences)

    def multiply(self, other: "ExpPoly") -> "ExpPoly":
        terms = []
        for k1, mu1, c1 in self.terms:
            for k2, mu2, c2 in other.terms:
                terms.append((k1 + k2, mu1 + mu2, c1 * c2))
        diffs = []
        if self.differences or other.differences:
            for i, (a, ca) in enumerate(self._as_differences()):
                for j, (b, cb) in enumerate(other._as_differences()):
                    if i < len(self.terms) and j < len(other.terms):
                        continue  # plain pairs are multiplied above
                    diffs.extend((path, ca * cb) for path in _lattice_paths(a, b))
        return ExpPoly.build(terms, diffs)

    def squared(self) -> "ExpPoly":
        return self.multiply(self)

    def integral(self, t):
        """int_0^t of the function, evaluated at scalar or array t."""
        return integrate((self,), t)[0]

    def integral_to_infinity(self) -> float:
        """int_0^inf of the function; requires every rate to decay."""
        acc = 0j
        rates = [mu for _, mu, _ in self.terms]
        rates += [z for nodes, _ in self.differences for z in nodes]
        for mu in rates:
            if mu.real >= 0:
                raise ValueError(
                    f"integrand does not decay (rate {mu}); integral diverges"
                )
        for k, mu, c in self.terms:
            acc += c * _infinite_moment(k, mu)
        for nodes, c in self.differences:
            # int_0^inf exp[Z] = (-1/z)[Z] = (-1)**(n+1) / prod Z
            acc += c * (-1) ** len(nodes) / math.prod(nodes)
        return acc.real

    def coefficient_scale(self) -> float:
        """Largest term magnitude; a conditioning measure for evaluations."""
        return max(
            (abs(c) for c in itertools.chain(
                (c for _, _, c in self.terms), (c for _, c in self.differences)
            )),
            default=0.0,
        )


def evaluate(polys, t) -> list:
    """[p.value(t) for p in polys]: real parts at scalar or array t.

    The polynomials share one exponential per rate, one underflow mask per
    decay rate, one power of t per order and one value per divided
    difference, but each adds its own terms in its own order: every value
    is the plain sum of c * t**k * e^{mu t} over its terms, bit for bit.
    A term is evaluated only where its exponential does not underflow to
    0, so at t = inf such a term reads 0 instead of inf * 0 = NaN.
    """
    t = np.asarray(t, dtype=float)
    # a term live at the latest time takes every time (a decaying term
    # underflows there first); a NaN time makes t_max NaN, which keeps
    # every term on every time
    t_max = float(t.max()) if t.size else 0.0
    live = {None: (..., t)}  # decay rate -> (index of the live times, those times)
    powers, exps, diffs = {}, {}, {}
    # drop each exponential after its last use: wide arrays kept alive are slower
    uses = collections.Counter(mu for poly in polys for _, mu, _ in poly.terms)
    values = []
    for poly in polys:
        acc = np.zeros(t.shape, dtype=complex)
        for k, mu, c in poly.terms:
            decay = mu.real if mu.real * t_max <= _UNDERFLOW_EXPONENT else None
            if decay not in live:
                mask = mu.real * t > _UNDERFLOW_EXPONENT
                live[decay] = mask, t[mask]
            mask, tl = live[decay]
            if (k, decay) not in powers:
                powers[k, decay] = tl**k
            if mu not in exps:
                exps[mu] = np.exp(mu * tl)
            uses[mu] -= 1
            e = exps[mu] if uses[mu] else exps.pop(mu)
            acc[mask] += c * powers[k, decay] * e
        for nodes, c in poly.differences:
            if nodes not in diffs:
                diffs[nodes] = _difference_value(nodes, t)
            acc += c * diffs[nodes]
        values.append(acc.real if acc.ndim else float(acc.real))
    return values


def integrate(polys, t) -> list:
    """[p.integral(t) for p in polys]: int_0^t at scalar or array t.

    One moment table per rate serves every polynomial and order (_moments);
    each polynomial adds its own terms in its own order.
    """
    t = np.asarray(t, dtype=float)
    orders: dict[complex, set[int]] = {}
    for poly in polys:
        for k, mu, _ in poly.terms:
            orders.setdefault(mu, set()).add(k)
    moments = {mu: _moments(mu, ks, t) for mu, ks in orders.items()}
    # int_0^t exp[Z] = exp[Z, 0](t)
    antiderivatives = [
        ExpPoly.build((), [(z + (0j,), c) for z, c in p.differences])
        for p in polys
        if p.differences
    ]
    antiderivatives = iter(evaluate(antiderivatives, t))
    values = []
    for poly in polys:
        acc = np.zeros(t.shape, dtype=complex)
        for k, mu, c in poly.terms:
            acc += c * moments[mu][k]
        out = acc.real
        if poly.differences:
            out = out + next(antiderivatives)
        values.append(out if out.ndim else float(out))
    return values
