"""Exact arithmetic on exponential polynomials sum_j c_j * t**k_j * exp(mu_j*t).

Every closed-form trajectory in this package (damped modes, semigroup
kernels, layer terms) lives in this family, and the family is closed under
differentiation, products, and integration.  That gives analytic time
integrals for the energy functionals, with quadrature demoted to a
cross-check.

Rates mu may be complex; real-valued functions carry conjugate term pairs
and evaluation returns the real part, summed in real arithmetic: a real
rate takes a real exponential, and a conjugate pair shares one exponential
and one cosine and sine of its phase.

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

import cmath
import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExpPoly", "SampleTimes", "accumulate", "divided_difference_exp",
           "evaluate", "integrate", "moment_tables"]

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


def moment_tables(orders, t):
    """Yield {k: int_0^t s**k * exp(mu*s) ds for k in ks} for each (mu, ks)
    of orders in turn, at scalar or array t.

    The series on the small points of all (mu, k) runs as one batch first;
    each rate's upward recurrence runs once, to its largest order, when its
    table is taken.  A real mu stays real.  A complex mu whose conjugate
    came earlier with the same orders takes that table conjugated: the same
    values, up to the sign of a zero or NaN part.  That table is kept only
    until then.
    """
    t = np.asarray(t, dtype=float)
    orders = [(mu, tuple(sorted(ks)), _series_points(mu, t)) for mu, ks in orders]
    mirrors, unmatched = {}, set()  # index -> the (mu, ks) it conjugates
    for i, (mu, ks, _) in enumerate(orders):
        if mu.imag and (mu.conjugate(), ks) in unmatched:
            unmatched.remove((mu.conjugate(), ks))
            mirrors[i] = (mu.conjugate(), ks)
        else:
            unmatched.add((mu, ks))
    series = iter(_batched_series([
        (k, mu, t[small])
        for i, (mu, ks, small) in enumerate(orders) if mu != 0 and i not in mirrors
        for k in ks
    ]))
    kept = dict.fromkeys(mirrors.values())  # (mu, ks) -> its table, until mirrored
    for i, (mu, ks, small) in enumerate(orders):
        if i in mirrors:
            yield {k: np.conjugate(v, out=np.empty_like(v))
                   for k, v in kept.pop(mirrors[i]).items()}
            continue
        if mu == 0:
            yield {k: t ** (k + 1) / (k + 1) + 0j for k in ks}
            continue
        # e^{mu t} is exactly 0 at every dead point: they take the first one's value
        dead = mu.real * t <= _UNDERFLOW_EXPONENT
        rest = ~(small | dead)
        accs = _moment_recurrence(ks[-1], mu, np.concatenate([t[rest], t[dead][:1]]))
        out = {k: np.empty(t.shape, dtype=complex) for k in ks}
        for k in ks:  # the first dead time comes last; with none, [-1:] fills nothing
            out[k][small] = next(series)
            out[k][rest], out[k][dead] = accs[k][: np.count_nonzero(rest)], accs[k][-1:]
        if (mu, ks) in kept:
            kept[mu, ks] = out
        yield out


def _series_points(mu: complex, t: np.ndarray) -> np.ndarray:
    """|mu t| < _SERIES_THRESHOLD.  A real mu (zero imaginary part) takes
    |Re(mu) t|, the same mask, since |x + 0i| = hypot(x, +-0) = |x|, NaN and
    infinite products included."""
    if mu.imag == 0:
        return np.abs(mu.real * t) < _SERIES_THRESHOLD
    return np.abs(mu * t) < _SERIES_THRESHOLD


def _batched_series(pairs) -> list[np.ndarray]:
    """[int_0^t s**k * exp(mu*s) ds for (k, mu, t) in pairs] by the series
    t**(k+1) * sum_m (mu t)**m / (m! (k+m+1)), all pairs as one batch.  A
    pair's segment stops at the first term with all(|term| <= 1e-18 |acc|)
    on it, with complex factors, as a loop over it alone does: the bits
    are that loop's."""
    sizes = np.array([t.size for _, _, t in pairs], dtype=int)
    z = np.concatenate([mu * t for _, mu, t in pairs] + [np.empty(0)], dtype=complex)
    order = np.repeat([k for k, _, _ in pairs], sizes).astype(int)
    out = np.empty(z.shape, dtype=complex)
    # the points still summing and the sizes of their segments
    at, live = np.arange(z.size), sizes[sizes > 0]
    term = np.ones(z.shape, dtype=complex) / (order + 1)
    acc = term.copy()
    for m in range(1, 60):
        if not at.size:
            break
        # in place, in the order of term * z * (order + m) / (m * (order + m + 1))
        term *= z
        term *= order + m
        term /= m * (order + m + 1)
        acc += term
        starts = np.cumsum(live) - live
        stop = np.logical_and.reduceat(np.abs(term) <= 1e-18 * np.abs(acc), starts)
        if not stop.any():
            continue
        done, live = np.repeat(stop, live), live[~stop]
        out[at[done]] = acc[done]
        keep = ~done  # one array at a time: few old and new copies alive together
        at = at[keep]
        term = term[keep]
        acc = acc[keep]
        z = z[keep]
        order = order[keep]
    out[at] = acc
    out *= np.concatenate([t ** (k + 1) for k, _, t in pairs] + [np.empty(0)])
    return np.split(out, np.cumsum(sizes))[:-1]


def _moment_recurrence(k: int, mu: complex, t: np.ndarray) -> list[np.ndarray]:
    """The moments of orders 0..k by the upward recurrence."""
    e = np.exp(mu * t)
    accs = [(e - 1.0) / mu]
    for j in range(1, k + 1):
        accs.append((t**j * e - j * accs[-1]) / mu)
    return accs


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
    long as possible; an all-equal prefix is t**i e^{gt} / i!.  A prefix
    grouped only by a later node is expanded (build keeps its normal form).
    """
    plain, diffs = [], []
    groups = _groups(list(nodes))
    for gi, group in enumerate(groups):
        group = sorted(group, key=lambda z: (-group.count(z), _node_key(z)))
        poles = [z for gj, other in enumerate(groups) if gj != gi for z in other]
        for i, w in enumerate(_pole_weights(poles, group)):
            if w == 0:
                continue
            prefix = tuple(sorted(group[: i + 1], key=_node_key))
            if all(z == prefix[0] for z in prefix):
                plain.append((i, prefix[0], w / math.factorial(i)))
            elif len(_groups(list(prefix))) > 1:
                sub_plain, sub_diffs = _expansion(prefix)
                plain.extend((k, mu, w * c) for k, mu, c in sub_plain)
                diffs.extend((key, w * c) for key, c in sub_diffs)
            else:
                diffs.append((prefix, w))
    return tuple(plain), tuple(diffs)


def _series_order(x: float) -> int:
    """Terms needed for x**(K+1)/(K+1)! to drop below 1e-17."""
    k, term = 0, x
    while term > 1e-17:
        k += 1
        term *= x / (k + 1)
    return k


_MAX_ORDER = _series_order(_SERIES_RADIUS)


def _difference_table(nodes: tuple[complex, ...]):
    """Shift, radius, normalized Taylor coefficients of exp[w_i..w_j] and
    the size of the table's zero block (see _normalized_table).

    With w = z - shift (shift the node of largest real part, so every
    e^{wt} stays bounded) and x = r*tau, r = max|w|:
    exp[w_i..w_j](tau) = tau**(j-i) * sum_k h_k(w_i/r..w_j/r) x**k / (k+j-i)!
    with h_k the complete homogeneous symmetric polynomial.  Real nodes
    give a real table.

    The table depends only on u = w/r and realness, so groups with equal
    u share it: two distinct real values give an exact u, such as
    (-1, 0, 0).  The sign of a zero in u, not in the key, reaches only
    zero entries, and a Horner sum ends by adding the nonzero 1/(j-i)!.
    """
    shift = max(nodes, key=_node_key)
    w = [z - shift for z in nodes]
    r = max(abs(x) for x in w)
    real = all(z.imag == 0 for z in nodes)
    table, zeros = _normalized_table(tuple(x / r for x in w), real)
    return (shift.real if real else shift), r, table, zeros


@functools.lru_cache(maxsize=4096)
def _normalized_table(u: tuple[complex, ...], real: bool):
    """The table of the normalized nodes u, and its zero block if real."""
    n = len(u) - 1
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
    if real:
        table = table.real.copy()
    table.setflags(write=False)
    return table, (u.count(0) if real else 0)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _difference_value(nodes: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    """exp[nodes](t) for a sorted group of unequal nodes and a float array t,
    at every time of t.

    Its last node has the largest real part, and the value is e^{z_n t}
    times a bounded factor, so it is exactly +-0 wherever e^{z_n t}
    underflows: its callers pass only the live times of Re z_n.  The
    series order follows the largest small time passed in.

    Each time takes the arithmetic it takes alone: times that do not
    ascend (or hold NaN) are sorted once, and the series times are a
    leading slice.
    """
    if len(nodes) == 2:
        # e^{bt} * expm1((a - b) t) / (a - b), Re(a - b) <= 0 after sorting
        a, b = nodes
        if a.imag == 0 and b.imag == 0:
            a, b = a.real, b.real
        x = (a - b) * t
        # below the normal range x has lost bits (or all of them, rounding
        # to 0 for a subnormal gap); there expm1(x)/(a - b) = t to the ulp.
        # Those points keep t and divide nothing: 0/0 is NaN, and complex
        # division by a subnormal overflows.
        tiny = np.abs(x) < np.finfo(float).tiny
        ratio = np.array(t, dtype=np.result_type(x))
        np.divide(np.expm1(x), a - b, out=ratio, where=~tiny)
        return np.exp(b * t) * ratio
    shift, r, table, zeros = _difference_table(nodes)
    n = len(nodes) - 1
    flat = t.ravel()
    order = None if (flat[1:] >= flat[:-1]).all() else np.argsort(flat, kind="stable")
    flat = flat if order is None else flat[order]
    x = r * flat
    small = int(np.searchsorted(x, _SERIES_RADIUS, side="right"))
    out = np.empty(flat.shape, dtype=table.dtype)
    if small:
        degree = max(_series_order(float(x[small - 1])), 1)
        out[:small] = flat[:small] ** n * _horner(table[0, n, : degree + 1], x[:small])
    if small < flat.size:
        out[small:] = _scaled_squaring(table, zeros, r, flat[small:])
    out = out * np.exp(shift * flat)
    if order is not None:
        out[order] = out.copy()
    return out.reshape(t.shape)


def _scaled_squaring(table: np.ndarray, zeros: int, r: float, t: np.ndarray) -> np.ndarray:
    """exp[w_0..w_n](t) from the series at t/2**s and s squarings of the
    triangular table exp[w_i..w_j] (exp of the scaled bidiagonal matrix).

    The table is held entry by entry, one array over the times per entry
    i <= j, and squared as (E^2)_ij = sum_{i<=k<=j} E_ik E_kj.  A time that
    is not finite has no squaring count and gives NaN.  Through accumulate
    and divided_difference_exp that is a NaN time, or t = inf for a group
    whose largest rate does not decay: a decaying group never gets t = inf,
    which is one of its dead times and reads 0.  On ascending t (NaN
    last) the points still to square are a trailing slice.

    The last zeros nodes of a real table (w = 0) are a block taken with
    the bits of the full arithmetic: an entry of width w is tau**w/w!
    (Horner of 1/w! and zeros), a diagonal entry stays 1 and is not held,
    as 1.0 * x is x, and a width-1 entry, 1.0 * x + x * 1.0, doubles.
    """
    n = table.shape[0] - 1
    block = n + 1 - zeros  # the first node of the zero block
    out = np.full(t.shape, np.nan, dtype=table.dtype)
    finite = int(np.searchsorted(t, np.inf))
    squarings = np.ceil(np.log2(r * t[:finite] / _SERIES_RADIUS)).astype(int)
    squarings = np.maximum.accumulate(squarings)  # a no-op for a monotone log2
    tau = np.ldexp(t[:finite], -squarings)
    rt = r * tau
    entry = {
        (i, j): tau ** (j - i) * (table[i, j, 0] if i >= block else _horner(table[i, j], rt))
        for i in range(n + 1)
        for j in range(i + (i >= block), n + 1)
    }
    # the widest entries go first, so each is squared in place: (E^2)_ij
    # reads only entries no wider than (i, j), and of its width only itself
    keys = sorted(entry, key=lambda ij: ij[0] - ij[1])
    for step in range(squarings[-1] if finite else 0):
        m = int(np.searchsorted(squarings, step, side="right"))
        for i, j in keys:
            e = entry[i, j][m:]
            if i >= block and j == i + 1:
                e *= 2.0
                continue
            acc = e.copy() if i >= block else entry[i, i][m:] * e
            for k in range(i + 1, j + 1):
                acc += e if k == j >= block else entry[i, k][m:] * entry[k, j][m:]
            e[...] = acc
    out[:finite] = entry[0, n]
    return out


def divided_difference_exp(nodes, t):
    """exp[z_0, ..., z_n](t): the n-th divided difference of z -> e^{zt}.

    Any nodes, repeated or not, scalar or array t.  A pair uses
    e^{bt} expm1((a-b)t)/(a-b); more nodes use a Taylor series of the
    shifted nodes while max|w|*t is small and scaling and squaring beyond.
    The relative error is that of the exponentials themselves (a few ulps
    times max|z*t|), whatever the spacing of the nodes.  As in accumulate,
    only the live times of the largest rate are evaluated: elsewhere the
    value is exactly 0, also at t = inf for a decaying group.
    """
    nodes = tuple(sorted((complex(z) for z in nodes), key=_node_key))
    times = SampleTimes(np.asarray(t, dtype=float))
    at, tl = times.live(nodes[-1].real)
    out = np.zeros(times.t.shape, dtype=complex)
    n = len(nodes) - 1
    if all(z == nodes[0] for z in nodes):
        out[at] = tl**n * np.exp(nodes[0] * tl) / math.factorial(n)
    else:
        out[at] = _difference_value(nodes, tl)
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

    def scale(self, alpha: complex) -> "ExpPoly":
        """alpha times this polynomial: build of the scaled terms, without
        the rebuild.  Each coefficient takes build's arithmetic and scalar
        type, 0j + complex(alpha c) for a term and 0j + alpha c (1 + 0j) for
        a difference (the weight _expansion gives a group of its own), zero
        coefficients are dropped, and the order of this normal form is kept."""
        return ExpPoly(
            tuple((k, mu, 0j + complex(s)) for k, mu, c in self.terms
                  if (s := alpha * c) != 0),
            tuple((nodes, 0j + s * (1 + 0j)) for nodes, c in self.differences
                  if (s := alpha * c) != 0),
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

    def coefficient_scale(self) -> float:
        """Largest term magnitude; a conditioning measure for evaluations."""
        return max(
            (abs(c) for c in itertools.chain(
                (c for _, _, c in self.terms), (c for _, c in self.differences)
            )),
            default=0.0,
        )


class SampleTimes(dict):
    """The evaluation table of one array of times t: what accumulate
    evaluates on t, kept for every later evaluation handed the same table.

    The dict maps a decay rate to (index, times), the live times of
    e^{decay t}, the points where it does not underflow, found at the
    rate's first use; the key None holds every time.  A rate live at the
    latest time takes every time (a decaying rate underflows there first);
    NaN times are not counted, and only when every time is NaN does t_max
    read NaN and keep every rate live.  Whether t is 1-D and ascending is
    decided once, here.

    exps, powers and diffs hold the exponentials by (Re mu, |Im mu|), the
    powers of t by (order, decay) and the divided differences by their
    nodes, each evaluated at its first use on the live times it needs.
    Each value depends only on t and its key, so a table serves any
    polynomials on t, and reusing one leaves every sum's bits as they are.
    t is held as a read-only view, and every array the table holds is
    read-only.
    """

    __slots__ = ("t", "t_max", "ascending", "exps", "powers", "diffs")

    def __init__(self, t: np.ndarray):
        self.t = _read_only(t.view())
        self.t_max = float(np.fmax.reduce(t, axis=None)) if t.size else 0.0
        self.ascending = t.ndim == 1 and bool((t[1:] >= t[:-1]).all())
        self.exps, self.powers, self.diffs = {}, {}, {}

    def __missing__(self, decay: float | None):
        at, tl = (..., self.t) if decay is None else _live_times(decay, self)
        self[decay] = live = at, _read_only(tl)
        return live

    def live(self, rate: float):
        """(index, times) of the live times of e^{rate t}."""
        return self[rate if rate * self.t_max <= _UNDERFLOW_EXPONENT else None]


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def evaluate(polys, t) -> list:
    """[p.value(t) for p in polys]: real parts at scalar or array t, each
    accumulated into a fresh zero array."""
    times = SampleTimes(np.asarray(t, dtype=float))
    rows = [np.zeros(times.t.shape) for _ in polys]
    accumulate(polys, times, rows)
    return [row if row.ndim else float(row) for row in rows]


def accumulate(polys, times: SampleTimes, rows) -> None:
    """Add p's values at times.t to row, in place, for p, row in zip(polys, rows).

    Each term adds Re(c * t**k * e^{mu t}) = t**k * (Re c Re e - Im c Im e)
    in float64, and a divided difference d adds Re c Re d - Im c Im d.  A
    real rate takes the real exponential, and a rate 0 takes ones, so a
    constant reads itself at t = inf.  A complex rate's exponential is
    made once per (Re mu, |Im mu|), as e^{Re(mu) t} times the cosine and
    sine of |Im mu| t, and its conjugate reuses it with the sign of Im e
    flipped.  Those exponentials, one power of t per order and decay rate
    and one value per divided difference are taken from the table times,
    and evaluated into it at their first use there: the polynomials of
    this call, and of every later call handed the same table, share them.
    Each polynomial adds its own terms in its own order, so a row that
    starts at zero gets the real termwise sum above, bit for bit.

    A term is evaluated only at the live times of its decay rate (times),
    and a divided difference only at those of its largest rate: elsewhere
    its value is exactly +-0, which leaves a sum started at +0 as it is,
    and at t = inf it reads 0 instead of inf * 0 = NaN.  On sorted 1-D
    times the live times are a leading slice.
    """
    t_max = times.t_max
    powers, exps, diffs = times.powers, times.exps, times.diffs
    for poly, acc in zip(polys, rows):
        for k, mu, c in poly.terms:
            x, y = mu.real, mu.imag
            decay = x if x * t_max <= _UNDERFLOW_EXPONENT else None
            at, tl = times[decay]
            key = (x, abs(y))
            if key not in exps:
                # rate 0 takes ones, as exp(0 * inf) would be NaN; NaN times stay NaN
                r = np.exp(x * tl) if x else np.where(np.isnan(tl), tl, 1.0)
                if y != 0:
                    phase = key[1] * tl
                    exps[key] = (_read_only(r * np.cos(phase)),
                                 _read_only(r * np.sin(phase)))
                else:
                    exps[key] = _read_only(r)
            if y == 0:
                term = c.real * exps[key]
            else:
                re, im = exps[key]
                term = c.real * re - (c.imag if y > 0 else -c.imag) * im
            if k:
                if (k, decay) not in powers:
                    powers[k, decay] = _read_only(tl**k)
                term *= powers[k, decay]
            acc[at] += term
        for nodes, c in poly.differences:
            if nodes not in diffs:
                # sorted nodes: the last has the largest real part
                at, tl = times.live(nodes[-1].real)
                diffs[nodes] = at, _read_only(_difference_value(nodes, tl))
            at, d = diffs[nodes]
            if np.iscomplexobj(d):
                acc[at] += c.real * d.real - c.imag * d.imag
            else:
                acc[at] += c.real * d


def _live_times(decay: float, times: SampleTimes):
    """(index, times) of the points of times.t where e^{decay t} does not
    underflow, NaN times included: a leading slice on ascending 1-D times
    with decay < 0, a mask otherwise."""
    t = times.t
    if decay < 0 and times.ascending:
        # decay * t <= _UNDERFLOW_EXPONENT from the first dead point on;
        # the search lands within rounding of it, the steps settle it
        n = int(np.searchsorted(t, _UNDERFLOW_EXPONENT / decay))
        while n > 0 and decay * t[n - 1] <= _UNDERFLOW_EXPONENT:
            n -= 1
        while n < t.size and not decay * t[n] <= _UNDERFLOW_EXPONENT:
            n += 1
        return slice(0, n), t[:n]
    live = ~(decay * t <= _UNDERFLOW_EXPONENT)
    return live, t[live]


def integrate(polys, t):
    """Yield p.integral(t) for each p of the sequence polys in turn.

    One batched series serves all rates and orders (moment_tables); a
    rate's moments are made at its first use and dropped after its last,
    and each polynomial adds its own terms in its own order.  A plain term
    adds nothing at t = 0, where its moment is exactly 0: a finite
    coefficient adds +-0 there, and one that overflowed is not multiplied
    by that 0, which would read NaN.
    """
    t = np.asarray(t, dtype=float)
    later = t != 0
    orders: dict[complex, set[int]] = {}
    for poly in polys:
        for k, mu, _ in poly.terms:
            orders.setdefault(mu, set()).add(k)
    tables = moment_tables(orders.items(), t)  # in the order of first use
    uses = collections.Counter(mu for poly in polys for _, mu, _ in poly.terms)
    moments = {}
    # int_0^t exp[Z] = exp[Z, 0](t)
    antiderivatives = [
        ExpPoly.build((), [(z + (0j,), c) for z, c in p.differences])
        for p in polys
        if p.differences
    ]
    antiderivatives = iter(evaluate(antiderivatives, t))
    for poly in polys:
        acc = np.zeros(t.shape, dtype=complex)
        for k, mu, c in poly.terms:
            moments[mu] = moments[mu] if mu in moments else next(tables)
            uses[mu] -= 1
            moment = (moments[mu] if uses[mu] else moments.pop(mu))[k]
            if cmath.isfinite(c):
                acc += c * moment
            else:
                acc[later] += c * np.asarray(moment)[later]
        out = acc.real
        if poly.differences:
            out = out + next(antiderivatives)
        yield out if out.ndim else float(out)
