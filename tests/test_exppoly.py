import math
import warnings

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

import singlim.exppoly as exppoly
from singlim.exppoly import (
    ExpPoly,
    _difference_value,
    evaluate,
    integrate,
    moment_tables,
)
from singlim.modes import ForcingTerm, ModeParams, solve_forced

from conftest import (
    integral_to_infinity,
    moment_series,
    reference_integral,
    reference_moment,
)


def test_build_merges_and_drops_zeros():
    p = ExpPoly.build([(0, -1.0, 2.0), (0, -1.0, 3.0), (1, -2.0, 0.0)])
    assert p.terms == ((0, complex(-1.0), complex(5.0)),)


def test_value_matches_direct_formula():
    p = ExpPoly.build([(0, -0.5, 2.0), (2, -3.0, -1.5)])
    ts = np.linspace(0.0, 4.0, 17)
    expected = 2.0 * np.exp(-0.5 * ts) - 1.5 * ts**2 * np.exp(-3.0 * ts)
    np.testing.assert_allclose(p.value(ts), expected, rtol=1e-14)


def test_complex_pair_evaluates_real():
    # cos(2t) e^{-t} as a conjugate pair
    mu = complex(-1.0, 2.0)
    p = ExpPoly.build([(0, mu, 0.5), (0, mu.conjugate(), 0.5)])
    ts = np.linspace(0.0, 3.0, 13)
    np.testing.assert_allclose(
        p.value(ts), np.exp(-ts) * np.cos(2 * ts), rtol=0, atol=1e-14
    )


def test_derivative_exact():
    p = ExpPoly.build([(1, -2.0, 3.0)])  # 3 t e^{-2t}
    d = p.derivative()
    ts = np.linspace(0.0, 2.0, 9)
    expected = 3.0 * np.exp(-2 * ts) - 6.0 * ts * np.exp(-2 * ts)
    np.testing.assert_allclose(d.value(ts), expected, rtol=1e-14)


def test_product():
    a = ExpPoly.build([(0, -1.0, 2.0)])
    b = ExpPoly.build([(1, -0.5, 3.0)])
    prod = a.multiply(b)  # 6 t e^{-1.5 t}
    ts = np.array([0.0, 0.7, 2.1])
    np.testing.assert_allclose(
        prod.value(ts), 6.0 * ts * np.exp(-1.5 * ts), rtol=1e-14
    )


@pytest.mark.parametrize(
    "k,mu,t_end",
    [
        (0, -2.0, 3.0),
        (1, -0.3, 0.5),
        (3, -5.0, 10.0),
        (2, -1e-5, 1.0),  # series regime
        (1, 0.4, 2.0),  # growing rate still integrates on [0, T]
        (2, complex(-1.0, 2.0), 4.0),
    ],
)
def test_moment_against_quadrature(k, mu, t_end):
    got = next(moment_tables([(mu, [k])], t_end))[k]
    real_part = quad(
        lambda s: (s**k * np.exp(complex(mu) * s)).real, 0.0, t_end, limit=200
    )[0]
    imag_part = quad(
        lambda s: (s**k * np.exp(complex(mu) * s)).imag, 0.0, t_end, limit=200
    )[0]
    assert complex(got) == pytest.approx(complex(real_part, imag_part), abs=1e-12)


def test_moment_zero_rate():
    assert complex(next(moment_tables([(0.0, [2])], 3.0))[2]) == pytest.approx(9.0, rel=1e-15)


def test_integral_cumulative_vector():
    p = ExpPoly.build([(0, -1.0, 1.0)])  # e^{-t}
    ts = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(next(integrate((p,), ts)), 1.0 - np.exp(-ts), rtol=1e-14)


def test_integral_to_infinity():
    # t^2 e^{-2t}: Gamma(3) / 2^3 = 1/4
    p = ExpPoly.build([(2, -2.0, 1.0)])
    assert integral_to_infinity(p) == pytest.approx(0.25, rel=1e-14)


def test_integral_to_infinity_rejects_growth():
    p = ExpPoly.build([(0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        integral_to_infinity(p)


def test_squared_integral_matches_quadrature():
    p = ExpPoly.build([(0, -1.0, 1.0), (1, -0.25, -0.5)])
    sq = p.squared()
    expected = quad(lambda s: p.value(np.array([s]))[0] ** 2, 0.0, 6.0, limit=200)[0]
    assert next(integrate((sq,), 6.0)) == pytest.approx(expected, rel=1e-10)


def _difference(nodes, t) -> np.ndarray:
    """exp[nodes](t) by the group kernel, the nodes sorted as build keeps a
    group's."""
    nodes = tuple(sorted(map(complex, nodes), key=exppoly._node_key))
    return _difference_value(nodes, np.asarray(t, dtype=float))


def _built_difference(nodes) -> ExpPoly:
    return ExpPoly.build((), [(nodes, 1.0)])


def test_divided_difference_pair_and_confluent_limit():
    ts = np.linspace(0.0, 6.0, 13)
    # well separated pair: the plain quotient is exact enough
    got = _built_difference((-1.0, -3.0)).value(ts)
    np.testing.assert_allclose(
        got, (np.exp(-ts) - np.exp(-3 * ts)) / 2.0, rtol=1e-14, atol=1e-300
    )
    # a pair 1e-12 apart is t e^{-t} to rounding, where the quotient is not
    got = _built_difference((-1.0, -1.0 + 1e-12)).value(ts)
    np.testing.assert_allclose(got, ts * np.exp(-ts), rtol=1e-11, atol=1e-300)
    # equal nodes are the confluent limit t^2 e^{-2t} / 2
    got = _built_difference((-2.0, -2.0, -2.0)).value(ts)
    np.testing.assert_allclose(got, ts**2 * np.exp(-2 * ts) / 2, rtol=1e-14)


@pytest.mark.parametrize("gap", [5e-324, 3e-321, 1e-310, -5e-324j, 2e-315 + 7e-320j])
def test_divided_difference_pair_subnormal_gap(gap):
    # a gap times t below the normal range rounds to few bits or to 0; the
    # pair is then t e^{bt} to the ulp, not expm1(0)/gap = 0
    ts = np.linspace(0.0, 6.0, 13)
    got = _difference((-gap, 0.0), ts)
    np.testing.assert_allclose(got.real, ts, rtol=1e-15, atol=0)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-300)
    got = _difference((-1.0 - gap, -1.0), ts)
    np.testing.assert_allclose(got.real, ts * np.exp(-ts), rtol=1e-15, atol=1e-300)


@pytest.mark.parametrize("spread", [1e-13, 1e-6, 0.3, 2.0])
def test_divided_difference_three_nodes(spread):
    # series and scaling-and-squaring paths against the partial-fraction form
    # evaluated in extended precision (exact for well separated nodes)
    nodes = (-1.0, -1.0 + spread, -1.0 - 0.7 * spread)
    ts = np.array([0.0, 0.01, 0.5, 3.0, 20.0])
    got = _difference(nodes, ts).real
    z = [np.longdouble(x) for x in nodes]
    for t, g in zip(ts, got):
        if spread < 0.1:
            # exp[z](t) = e^{ct} t^2/2 (1 + O(spread t)) with c the node mean
            c = sum(nodes) / 3.0
            want = np.exp(c * t) * t**2 / 2.0
            assert g == pytest.approx(want, rel=5 * spread * max(t, 1.0) + 1e-13, abs=1e-300)
        else:
            want = sum(
                np.exp(z[i] * np.longdouble(t))
                / np.prod([z[i] - z[j] for j in range(3) if j != i])
                for i in range(3)
            )
            assert g == pytest.approx(float(want), rel=1e-13, abs=1e-18)


def _exp_difference_mp(nodes, t: float) -> complex:
    """exp[nodes](t) at 50 digits: entry (0, n) of the exponential of t times
    the bidiagonal matrix with the nodes on its diagonal and ones above it
    (Opitz's formula), so repeated nodes need no special case."""
    with mp.workdps(50):
        n = len(nodes)
        m = mp.matrix(n, n)
        for i, z in enumerate(nodes):
            m[i, i] = mp.mpc(z.real, z.imag) * t
            if i + 1 < n:
                m[i, i + 1] = t
        return complex(mp.expm(m)[0, n - 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "nodes",
    [
        (-1.0, -1.0, -1.2),  # a root next to a doubled forcing rate
        (-2.0, -2.1, -2.1, -2.3),
        (-0.5, -0.55, -0.6, -0.65, -0.7),
        (-2 + 0.3j, -2 - 0.3j, -2.05),  # underdamped roots near the forcing
        (-2 + 0.3j, -2 - 0.3j, -2.05, -2.05),
        (-1 + 0.1j, -1 - 0.1j, -1.1 + 0.05j, -1.1 - 0.05j, -1.0),
    ],
)
def test_scaled_squaring_against_50_digits(nodes):
    # times where the node spread times t is past the series radius, with
    # up to 8 squarings; the error bound is a few ulps of max|z t| times the
    # Hermite-Genocchi envelope t^n/n! e^{max Re z t} of the difference
    nodes = tuple(complex(z) for z in nodes)
    n = len(nodes) - 1
    spread = max(abs(z - w) for z in nodes for w in nodes)
    ts = np.array([0.6, 1.0, 3.0, 10.0, 40.0, 100.0]) / spread
    got = _difference(nodes, np.append(ts, np.nan))
    assert np.isnan(got[-1])
    for t, value in zip(ts, got):
        envelope = t**n / math.factorial(n) * math.exp(max(z.real for z in nodes) * t)
        zt = max(abs(z) for z in nodes) * t
        bound = 4 * np.finfo(float).eps * zt * envelope
        assert abs(value - _exp_difference_mp(nodes, t)) <= bound


def _near_resonant_poly():
    # (e^{-t} - e^{-(1+1e-9)t})/1e-9 style terms plus plain ones
    return ExpPoly.build(
        [(0, -2.0, 0.5), (1, -0.5, 1.0)],
        [((-1.0, -1.0 - 1e-9), 2.0), ((-0.3, -0.3 + 1e-7, -0.3), -1.0)],
    )


def _plain_limit(ts):
    # the same function with the close nodes merged: error O(1e-7 t)
    return (
        0.5 * np.exp(-2 * ts)
        + ts * np.exp(-0.5 * ts)
        + 2.0 * ts * np.exp(-ts)
        - ts**2 * np.exp(-0.3 * ts) / 2.0
    )


def test_differences_stay_grouped():
    p = _near_resonant_poly()
    assert len(p.terms) == 2
    assert [len(nodes) for nodes, _ in p.differences] == [2, 3]
    assert p.coefficient_scale() == pytest.approx(2.0)
    # well separated or equal nodes expand to plain terms
    q = ExpPoly.build([], [((-1.0, -3.0), 1.0), ((-2.0, -2.0), 1.0)])
    assert q.differences == ()
    assert len(q.terms) == 3


def test_difference_algebra_matches_quadrature():
    p = _near_resonant_poly()
    ts = np.array([0.3, 1.0, 4.0])
    np.testing.assert_allclose(p.value(ts), _plain_limit(ts), rtol=1e-6)
    # derivative against a central difference of the exact values
    h = 1e-5
    fd = (p.value(ts + h) - p.value(ts - h)) / (2 * h)
    np.testing.assert_allclose(p.derivative().value(ts), fd, rtol=1e-8)
    # product, integral and integral to infinity against quadrature
    sq = p.squared()
    for t in ts:
        assert sq.value(t) == pytest.approx(p.value(t) ** 2, rel=1e-13)
        want = quad(lambda s: p.value(s) ** 2, 0.0, t, epsabs=0, epsrel=1e-13)[0]
        assert next(integrate((sq,), t)) == pytest.approx(want, rel=1e-11)
    want = quad(lambda s: p.value(s), 0.0, np.inf, epsabs=0, epsrel=1e-12)[0]
    assert integral_to_infinity(p) == pytest.approx(want, rel=1e-9)


def _real_term(k: int, mu: complex, c: complex, t) -> np.ndarray:
    """Re(c * t**k * e^{mu t}) = t**k * (Re c Re e - Im c Im e) in float64,
    with Re e = e^{Re(mu) t} cos(|Im mu| t) and Im e = +-e^{Re(mu) t}
    sin(|Im mu| t), negated when Im mu < 0."""
    r = np.exp(mu.real * t)
    if mu.imag == 0:
        return t**k * (c.real * r)
    phase = abs(mu.imag) * t
    im = r * np.sin(phase)
    return t**k * (c.real * (r * np.cos(phase)) - c.imag * (im if mu.imag > 0 else -im))


def _plain_value(poly: ExpPoly, t) -> np.ndarray:
    """Every plain term on every point, in real arithmetic."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape)
    for k, mu, c in poly.terms:
        acc += _real_term(k, mu, c, t)
    return acc


# all live, partly live (long and short), the fastest term underflowed,
# every term underflowed, and a NaN among underflowed times (it stays NaN)
_SHORTCUT_TIMES = [
    np.linspace(0.0, 0.5, 100),
    np.linspace(0.0, 20.0, 301),
    np.linspace(0.0, 20.0, 9),
    np.linspace(10.0, 20.0, 64),
    np.linspace(300.0, 400.0, 100),
    np.append(np.linspace(300.0, 400.0, 100), np.nan),
]


_MUS = [complex(-3.0, 2.0), complex(-50.0, 7.0), complex(-1e3, 1.0)]
_SHORTCUT_POLYS = [
    # conjugate pairs with complex coefficients
    ExpPoly.build(
        [(k, mu, c) for k, (mu, c) in enumerate(zip(_MUS, [1 + 0.5j, 2j, 0.3 - 1j]))]
        + [(0, mu.conjugate(), 0.7 + 0.1j) for mu in _MUS]
    ),
    # real rates and coefficients
    ExpPoly.build([(0, -2.0, 1.5), (1, -2.0, 0.5), (2, -800.0, 3.0)]),
]


@pytest.mark.parametrize("p", _SHORTCUT_POLYS)
@pytest.mark.parametrize(
    "ts", _SHORTCUT_TIMES + [np.float64(0.7), np.float64(350.0), np.float64(np.nan)]
)
def test_value_underflow_shortcut_bitwise(p, ts):
    assert np.asarray(p.value(ts)).tobytes() == _plain_value(p, ts).tobytes()


def test_value_skips_underflowed_points(monkeypatch):
    p = ExpPoly.build([(0, -2.0, 1.0), (1, -100.0, 1.0)])
    t = np.linspace(0.0, 20.0, 301)  # e^{-100 t} == 0 from t = 7.46 (index 112) on
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    p.value(t)
    assert sorted(sizes) == [112, 301]


def test_evaluate_exponentials_and_live_slices(monkeypatch):
    # a real rate takes a real exponential and no phase, a conjugate pair
    # shares one exponential and one phase, and on sorted times a decayed
    # rate's live points are a leading slice: no boolean gather or scatter
    exps, cosines, indexes = [], [], []
    exp, cos, live_times = np.exp, np.cos, exppoly._live_times

    def counted_live_times(decay, t):
        index, times = live_times(decay, t)
        indexes.append(type(index))
        return index, times

    monkeypatch.setattr(np, "exp", lambda x: exps.append(np.asarray(x).dtype.kind) or exp(x))
    monkeypatch.setattr(np, "cos", lambda x: cosines.append(np.size(x)) or cos(x))
    monkeypatch.setattr(exppoly, "_live_times", counted_live_times)
    t = np.linspace(0.0, 20.0, 301)  # e^{-100 t} == 0 from t = 7.46 on
    real = [ExpPoly.build([(0, -2.0, 1.0), (1, -2.0, 0.5 + 1j), (0, -100.0, 1.0)])]
    evaluate(real, t)
    assert exps == ["f", "f"] and cosines == [] and indexes == [slice]
    pairs = [
        ExpPoly.build([(0, _A, 1 + 0.5j), (0, _A.conjugate(), 1 - 0.5j)]),
        ExpPoly.build([(1, _A.conjugate(), 2j), (0, complex(-1.0, 5.0), 1.0)]),
        ExpPoly.build([(0, complex(-100.0, 7.0), 1.0), (2, complex(-100.0, -7.0), 3.0)]),
    ]
    exps.clear()
    indexes.clear()
    values = evaluate(pairs, t)
    assert exps == ["f", "f", "f"] and cosines == [301, 301, 112] and indexes == [slice]
    # unsorted times keep the masks and the same bits
    indexes.clear()
    for got, want in zip(evaluate(pairs, t[::-1]), values, strict=True):
        assert got.tobytes() == want[::-1].tobytes()
    assert indexes == [np.ndarray]


# Limits at t = inf: a rate-0 term reads its constant and a decayed
# divided-difference group reads 0, with no RuntimeWarning.

@pytest.mark.filterwarnings("error")
def test_rate_zero_reads_its_constant_at_infinity():
    constant = ExpPoly.build([(0, 0.0, 2.0)])
    assert constant.value(np.inf) == 2.0
    assert np.isnan(constant.value(np.nan))
    # a kernel mode (lam = 0) tends to u0 + eps u1
    kernel = solve_forced(ModeParams(0.1, 0.0, 1.0, 0.5), ForcingTerm(0.0, 0.0, 0.0)).poly
    assert kernel.value(np.inf) == pytest.approx(1.05, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_decayed_group_reads_zero_at_infinity():
    params, forcing = ModeParams(0.01, 4.0, 1.0, -0.5), ForcingTerm(0.3, -0.2, 4.0)
    mode = solve_forced(params, forcing).poly
    assert any(len(nodes) > 2 for nodes, _ in mode.differences)
    got = mode.value([1.0, 50.0, np.inf])
    assert got[:2].tobytes() == mode.value([1.0, 50.0]).tobytes()
    assert got[0] == pytest.approx(0.0196, rel=1e-2)
    assert got[1] == pytest.approx(-7.4e-86, rel=1e-2)
    assert got[2] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nodes", [(-1.0, -1.5, -2.0), (-1.0, -1.1, -1.2), (-2.0, -2.0, -2.0)])
def test_decaying_divided_difference_reads_zero_at_infinity(nodes):
    # three separated nodes (plain terms), a three-node group and a
    # confluent group: accumulate evaluates only the live times of the
    # largest rate
    poly = _built_difference(nodes)
    assert poly.value(np.inf) == 0
    got = poly.value([1.0, 50.0, np.inf])
    assert got[:2].tobytes() == poly.value([1.0, 50.0]).tobytes()
    assert got[2] == 0 and got[0] != 0


_SKIPPED_GROUPS = [
    ((-50.0, -50.3), 1.5),  # a pair: the expm1 form
    ((-50.0, -50.2, -50.5), 0.7 - 0.2j),  # series and scaling and squaring
    ((complex(-40.0, -3.0), complex(-40.0, 3.0), -40.5), 2.0 + 1j),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nodes, c", _SKIPPED_GROUPS)
def test_decayed_group_is_skipped(nodes, c, monkeypatch):
    # where the group's largest rate underflows the group is not evaluated
    # and reads +0; at the live points it is the group evaluated on those
    # points alone, on sorted and on unsorted times
    poly = ExpPoly.build((), [(nodes, c)])
    ((group, coeff),) = poly.differences
    sizes = []
    value = exppoly._difference_value
    monkeypatch.setattr(
        exppoly, "_difference_value", lambda z, t: sizes.append(t.size) or value(z, t)
    )
    t = np.append(np.linspace(0.0, 30.0, 301), np.inf)
    for ts in (t, np.random.default_rng(2).permutation(t)):
        live = ~(group[-1].real * ts <= exppoly._UNDERFLOW_EXPONENT)
        assert 0 < np.count_nonzero(live) < ts.size - 1
        sizes.clear()
        got = poly.value(ts)
        assert sizes == [np.count_nonzero(live)]
        d = value(group, ts[live])
        want = np.zeros(ts.shape)
        if np.iscomplexobj(d):
            want[live] += coeff.real * d.real - coeff.imag * d.imag
        else:
            want[live] += coeff.real * d
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("decay", [-1.0, -100.0, -1e3 / 3, -7e4])
def test_live_prefix_is_the_mask_count(decay):
    # times packed within a few ulps of the cutoff, repeated, and spread out
    cut = exppoly._UNDERFLOW_EXPONENT / decay
    near = cut + np.arange(-6, 7) * np.spacing(cut)
    for t in (np.sort(np.concatenate([near, near, [0.0, cut / 2, 2 * cut]])),
              near[:3], near[-3:], np.array([cut])):
        index, times = exppoly._live_times(decay, exppoly.SampleTimes(t))
        n = np.count_nonzero(decay * t > exppoly._UNDERFLOW_EXPONENT)
        assert index == slice(0, n) and times.tobytes() == t[:n].tobytes()


# Accuracy of evaluate against 50 digits.  A term's error is that of its
# exponential, a few ulps times max(1, |mu t|) (the rounding of mu t moves
# the phase), times its size |c| t^k e^{Re(mu) t}; a divided difference of
# n + 1 nodes is at most t^n/n! e^{max Re(z) t} (Hermite-Genocchi).  At the
# underflow edge a subnormal exponential, or one skipped at Re(mu t) <=
# -746, is off by up to the smallest subnormal, times |c| t^k.

_GATE_POLYS = [
    _SHORTCUT_POLYS[0],  # conjugate pairs with complex coefficients
    ExpPoly.build([(0, complex(-1.0, 2.0), 0.5 - 0.25j),
                   (0, complex(-1.0, -2.0), 0.5 + 0.25j), (1, -2.0, 1.5)]),
    ExpPoly.build([(1, complex(-0.5, 3.0), 1 - 2j)]),  # a lone complex term
    # |Im(mu) t| up to 1e4 on [0, 10]
    ExpPoly.build([(0, complex(-1e-2, 1e3), 1 + 1j), (2, complex(-1e-3, -500.0), 0.5j)]),
    _near_resonant_poly(),  # a grouped pair and triple of real nodes
    ExpPoly.build([], [((-2 + 0.3j, -2 - 0.3j, -2.05), 1 + 0.5j),
                       ((-1 + 0.1j, -1.05 + 0.1j), 2 - 1j)]),
    # e^{-100 t} is subnormal from t = 7.08 and 0 from t = 7.46
    ExpPoly.build([(0, -100.0, 3.0), (2, complex(-100.0, 40.0), 1 - 1j)]),
]
_GATE_TIMES = np.sort(np.concatenate(
    [[0.0, 1e-3], np.linspace(0.05, 10.0, 24), np.linspace(7.05, 7.47, 15)]
))


def _value_mp(poly: ExpPoly, t: float) -> float:
    with mp.workdps(50):
        tm = mp.mpf(t)
        acc = mp.mpf(0)
        for k, mu, c in poly.terms:
            acc += (mp.mpc(c) * tm**k * mp.exp(mp.mpc(mu) * tm)).real
        for nodes, c in poly.differences:
            acc += (mp.mpc(c) * mp.mpc(_exp_difference_mp(nodes, t))).real
        return float(acc)


def _gate(poly: ExpPoly, t: float) -> float:
    # (|c| t^k, Re mu) per term, (|c| t^n/n!, max Re z) per difference
    parts = [(abs(c) * t**k, mu.real) for k, mu, c in poly.terms]
    parts += [(abs(c) * t ** (len(z) - 1) / math.factorial(len(z) - 1), max(x.real for x in z))
              for z, c in poly.differences]
    envelope = sum(size * math.exp(growth * t) for size, growth in parts)
    rates = [mu for _, mu, _ in poly.terms] + [z for nodes, _ in poly.differences for z in nodes]
    phase = max(1.0, max(abs(mu) * t for mu in rates))
    tiny = np.finfo(float).smallest_subnormal
    return 4 * np.finfo(float).eps * phase * envelope + 2 * tiny * sum(size for size, _ in parts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("poly", _GATE_POLYS)
def test_evaluate_against_50_digits(poly):
    for ts in (_GATE_TIMES, _GATE_TIMES[::-1]):  # prefix slices and masks
        for t, got in zip(ts, evaluate([poly], ts)[0], strict=True):
            assert abs(got - _value_mp(poly, t)) <= _gate(poly, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("poly", [p for p in _GATE_POLYS if not p.differences])
def test_evaluate_at_nan_and_inf_times(poly):
    # every rate here decays: at t = inf each term is skipped and reads 0
    # (not inf * 0 = NaN); a NaN time gives NaN
    ts = np.array([1.0, np.inf, np.nan])
    got = evaluate([poly], ts)[0]
    assert abs(got[0] - _value_mp(poly, 1.0)) <= _gate(poly, 1.0)
    assert got[1] == 0.0 and np.isnan(got[2])
    assert poly.value(np.inf) == 0.0 and np.isnan(poly.value(np.nan))


def _plain_moment(k: int, mu: complex, t: np.ndarray) -> np.ndarray:
    """The moment int_0^t s^k e^{mu s} ds with the upward recurrence on every
    large point."""
    out = np.empty(t.shape, dtype=complex)
    small = np.abs(mu * t) < 0.8
    out[small] = moment_series(k, mu, t[small])
    tl = t[~small]
    e = np.exp(mu * tl)
    acc = (e - 1.0) / mu
    for j in range(1, k + 1):
        acc = (tl**j * e - j * acc) / mu
    out[~small] = acc
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mu", [-1e4, -1e3, -50.0, complex(-1e3, 5.0), complex(-3.0, 2.0)])
def test_moment_underflow_shortcut_bitwise(k, mu):
    # from the series near 0 through the recurrence to e^{mu t} == 0
    t = np.concatenate([[0.0, 1e-5], np.linspace(0.01, 20.0, 400)])
    got = next(moment_tables([(mu, [k])], t))[k]
    assert got.tobytes() == _plain_moment(k, mu, t).tobytes()


# Batched evaluation: several polynomials on one time array share their
# exponentials, masks, powers and moments, and each still sums its own
# terms in its own order.  The references below take every term on every
# point, one polynomial at a time.

def _termwise_value(poly: ExpPoly, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    acc = _plain_value(poly, t)
    for nodes, c in poly.differences:
        d = _difference_value(nodes, t)
        acc += c.real * d.real - c.imag * d.imag if np.iscomplexobj(d) else c.real * d
    return acc


def _termwise_integral(poly: ExpPoly, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    for k, mu, c in poly.terms:
        if mu == 0:
            acc += c * (t ** (k + 1) / (k + 1) + 0j)
        else:
            acc += c * _plain_moment(k, mu, t)
    out = acc.real
    if poly.differences:
        anti = ExpPoly.build((), [(z + (0j,), c) for z, c in poly.differences])
        out = out + _termwise_value(anti, t)
    return out


_A = complex(-3.0, 2.0)
_BATCH = [
    # rates shared across the polynomials with mixed powers; -900, -50 and
    # -1e4 underflow on part of [0, 20] and on all of [300, 400]
    ExpPoly.build(
        [(0, _A, 1 + 0.5j), (0, _A.conjugate(), 1 - 0.5j), (1, -900.0, 2.0),
         (2, -50.0, 0.3)]
    ),
    ExpPoly.build(
        [(0, -900.0, 0.7), (1, _A, -0.2 + 0.1j), (2, _A, 0.05), (0, -50.0, 1.5),
         (1, -50.0, -4.0), (3, -50.0, 0.01)]
    ),
    ExpPoly.build(
        [(0, 0.0, 2.0), (1, -50.0, 1.0), (0, -2.0, 1.5), (1, -2.0, 0.5),
         (2, -2.0, -0.25), (0, -1e4, 3.0)]
    ),
    # grouped differences, one group shared with the next polynomial
    _near_resonant_poly(),
    ExpPoly.build([(1, -2.0, -1.0)], [((-1.0, -1.0 - 1e-9), 0.5)]),
    # built directly: unsorted terms, one rate at several powers
    ExpPoly(
        ((2, -2.0 + 0j, 1.0 + 0j), (0, _A, 0.3 + 0j), (0, -2.0 + 0j, -1.0 + 0j),
         (1, _A, 2.0 - 1j), (1, -900.0 + 0j, 5.0 + 0j), (0, -900.0 + 0j, 1.0 + 0j))
    ),
]

_BATCH_TIMES = [
    np.linspace(0.0, 20.0, 301),  # partly underflowed
    np.linspace(0.0, 0.5, 40),  # all live
    np.linspace(300.0, 400.0, 50),  # fast rates underflowed everywhere
    np.append(np.linspace(0.0, 20.0, 301), np.nan),
    np.float64(0.7),
    350.0,
    np.float64(np.nan),
]


@pytest.mark.filterwarnings("error")  # a NaN time takes its own path
@pytest.mark.parametrize("t", _BATCH_TIMES)
def test_evaluate_bitwise(t):
    values = evaluate(_BATCH, t)
    assert len(values) == len(_BATCH)
    for poly, got in zip(_BATCH, values):
        want = _termwise_value(poly, t).tobytes()
        assert np.asarray(got).tobytes() == want
        assert np.asarray(poly.value(t)).tobytes() == want
        assert isinstance(got, float) == (np.ndim(t) == 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", _BATCH_TIMES)
def test_integrate_bitwise(t):
    values = list(integrate(_BATCH, t))
    assert len(values) == len(_BATCH)
    for poly, got in zip(_BATCH, values):
        want = _termwise_integral(poly, t).tobytes()
        assert np.asarray(got).tobytes() == want
        assert np.asarray(next(integrate((poly,), t))).tobytes() == want  # alone
        assert isinstance(got, float) == (np.ndim(t) == 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integral_of_an_overflowed_coefficient_is_zero_at_zero():
    # inf times the exact zero moment at t = 0 read NaN there; the finite
    # term keeps its bits
    poly = ExpPoly.build([(0, -10.0, math.inf), (1, -2.0, 3.0)])
    t = np.array([0.0, 1.0])
    got = next(integrate((poly,), t))
    assert got[0] == 0.0 and got[1] == math.inf
    finite = ExpPoly.build([(1, -2.0, 3.0)])
    want = next(integrate((finite,), t))
    assert want.tobytes() == _termwise_integral(finite, t).tobytes()
    assert next(integrate((poly,), 0.0)) == 0.0


def test_evaluate_and_integrate_take_empty_batches():
    assert evaluate([], np.linspace(0.0, 1.0, 5)) == []
    assert list(integrate([], 1.0)) == []


def test_evaluate_computes_each_exponential_once(monkeypatch):
    polys = [
        ExpPoly.build([(0, -2.0, 1.0), (1, -2.0, 1.0), (0, _A, 1.0)]),
        ExpPoly.build([(2, -2.0, 1.0), (1, _A, 1.0), (0, -100.0, 1.0)]),
        ExpPoly.build([(1, -100.0, 1.0), (0, -2.0, 3.0)]),
    ]
    t = np.linspace(0.0, 20.0, 301)  # e^{-100 t} == 0 from t = 7.46 (index 112) on
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    evaluate(polys, t)
    assert sorted(sizes) == [112, 301, 301]


def test_integrate_runs_one_recurrence_per_rate(monkeypatch):
    polys = [
        ExpPoly.build([(0, -2.0, 1.0), (2, _A, 1.0)]),
        ExpPoly.build([(1, -2.0, 1.0), (0, _A, 1.0)]),
        ExpPoly.build([(3, -2.0, 1.0)]),
    ]
    calls = []
    recurrence = exppoly._moment_recurrence
    monkeypatch.setattr(
        exppoly,
        "_moment_recurrence",
        lambda k, mu, t: calls.append((k, mu)) or recurrence(k, mu, t),
    )
    list(integrate(polys, np.linspace(0.0, 5.0, 50)))
    assert sorted(calls, key=lambda c: c[0]) == [(2, _A), (3, -2.0)]


# The series of every rate and order of one call runs as one batch; each
# rate must keep the bits of its own loop (conftest.reference_moment).

_SPREAD = np.geomspace(1e-3, 1e3, 40)
_MOMENT_RATES = (
    [0.0, -2.0, 0.4, -1e3, -1e4, complex(-3.0, 2.0), complex(-1e3, 5.0), 3j]
    + list(-_SPREAD)  # their segments stop at many different iterations
    + [complex(-x, x / 3) for x in _SPREAD[::4]]
)
_MOMENT_TIMES = [
    # |mu t| = 0.8 falls inside the array for most rates; the fast rates
    # have dead points (Re(mu t) <= -746) from t = 0.746 on
    np.concatenate(
        [[0.0, 1e-5], np.geomspace(1e-4, 0.5, 60), np.linspace(0.51, 20.0, 120)]
    ),
    np.append(np.linspace(0.0, 2.0, 41), np.nan),
    np.float64(0.7),
    np.float64(0.05),
    350.0,
    np.float64(np.nan),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", _MOMENT_TIMES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_batched_moments_are_the_per_rate_loops(k, t):
    assert len(_MOMENT_RATES) >= 50
    got = [table[k] for table in moment_tables([(mu, [k]) for mu in _MOMENT_RATES], t)]
    assert len(got) == len(_MOMENT_RATES)
    for mu, value in zip(_MOMENT_RATES, got):
        want = reference_moment(k, mu, t).tobytes()
        assert np.asarray(value).tobytes() == want
        assert np.asarray(next(moment_tables([(mu, [k])], t))[k]).tobytes() == want  # alone


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", _MOMENT_TIMES)
def test_integrate_is_the_per_rate_loops(t):
    # every rate at orders 0..3, spread over polynomials that share rates
    terms = [(k, mu, complex(1 + k, j % 3 - 1)) for j, mu in enumerate(_MOMENT_RATES)
             for k in range(4)]
    polys = [ExpPoly.build(terms[i::7]) for i in range(7)]
    for poly, got in zip(polys, integrate(polys, t), strict=True):
        want = np.asarray(reference_integral(poly, t)).tobytes()
        assert np.asarray(got).tobytes() == want


_CONJUGATE_RATES = [
    z for mu in _MOMENT_RATES if isinstance(mu, complex) and mu.imag
    for z in (mu, mu.conjugate())
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", _MOMENT_TIMES)
def test_a_conjugate_rate_takes_the_earlier_table_conjugated(t, monkeypatch):
    recurrences = []
    recurrence = exppoly._moment_recurrence
    monkeypatch.setattr(
        exppoly,
        "_moment_recurrence",
        lambda k, mu, t: recurrences.append(mu) or recurrence(k, mu, t),
    )
    orders = [(mu, [0, 2, 3]) for mu in _CONJUGATE_RATES] + [(_CONJUGATE_RATES[0], [1])]
    tables = list(moment_tables(orders, t))
    # the same values as the per-rate loops; a zero or NaN may differ in sign
    for (mu, ks), table in zip(orders, tables, strict=True):
        assert list(table) == ks
        for k in ks:
            assert isinstance(table[k], np.ndarray)
            np.testing.assert_array_equal(table[k], reference_moment(k, mu, t), strict=True)
    # one recurrence per conjugate pair; other orders are a table of their own
    assert recurrences == _CONJUGATE_RATES[::2] + [_CONJUGATE_RATES[0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", _MOMENT_TIMES)
def test_integrate_with_conjugate_rates_is_the_per_rate_loops(t):
    # real polynomials: each term comes with its conjugate
    pairs = [[(k, mu, c), (k, mu.conjugate(), c.conjugate())]
             for j, mu in enumerate(_CONJUGATE_RATES[::2]) for k in range(3)
             for c in [complex(1 + k, j % 3 - 1)]]
    polys = [ExpPoly.build([term for pair in pairs[i::6] for term in pair]) for i in range(6)]
    for poly, got in zip(polys, integrate(polys, t), strict=True):
        want = np.asarray(reference_integral(poly, t)).tobytes()
        assert np.asarray(got).tobytes() == want


def test_integrate_streams_from_one_series_pass(monkeypatch):
    passes, recurrences = [], []
    series, recurrence = exppoly._batched_series, exppoly._moment_recurrence
    monkeypatch.setattr(
        exppoly, "_batched_series", lambda pairs: passes.append(len(pairs)) or series(pairs)
    )
    monkeypatch.setattr(
        exppoly,
        "_moment_recurrence",
        lambda k, mu, t: recurrences.append(mu) or recurrence(k, mu, t),
    )
    polys = [
        ExpPoly.build([(0, -2.0, 1.0), (2, _A, 1.0)]),
        ExpPoly.build([(1, -2.0, 1.0), (0, -7.0, 1.0)]),
        ExpPoly.build([(3, -5.0, 1.0), (1, _A, 1.0)]),
    ]
    values = integrate(polys, np.linspace(0.0, 5.0, 50))
    assert passes == [] and recurrences == []
    next(values)
    # one pass over all six (rate, order) pairs; only the first polynomial's
    # recurrences have run
    assert passes == [6]
    assert recurrences == [-2.0, _A]
    list(values)
    assert passes == [6]
    assert recurrences == [-2.0, _A, -7.0, -5.0]


_EDGE_REAL_RATES = [
    complex(x, y)
    for x in (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              2.2250738585072014e-308, -1.0, 0.5, -1e300)
    for y in (0.0, -0.0)
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mu", _EDGE_REAL_RATES, ids=repr)
def test_a_real_rate_takes_the_complex_series_mask(mu):
    # |x + 0i| = hypot(x, +-0) = |x|, whatever x * t is
    t = np.array([0.0, 5e-324, 1e-300, 0.3, 0.8, 1.6, 1e300, math.inf, math.nan])
    for times in (t, -t):
        want = np.abs(mu * times) < exppoly._SERIES_THRESHOLD
        got = exppoly._series_points(mu, times)
        assert got.dtype == bool and got.tolist() == want.tolist()
    assert exppoly._series_points(mu, np.float64(0.5)) == (abs(mu * 0.5) < 0.8)


def _chained_group_poly():
    # z1 and z2 are each near z3 but not near each other, so their group
    # {z1, z2, z3} orders them first; with a far pole p its prefix (z2, z1)
    # gets a weight, and build expands that prefix over its own two groups
    z1, z2, z3 = complex(-0.15, 0.12), complex(-0.15, -0.12), 0j
    return ExpPoly.build([(0, -1.0, 0.5)], [((z1, z2, z3, -5.0), 1.0)])


_NORMAL_POLYS = {
    "plain": ExpPoly.build([(0, -2.0, 0.5), (1, -0.5, complex(1.0, -0.0)),
                            (0, complex(-3.0, 4.0), complex(-0.0, 2.0)),
                            (0, complex(-3.0, -4.0), complex(0.0, -2.0)),
                            (2, 0.0, complex(math.inf, 0.0)), (0, -7.0, math.nan)]),
    "grouped": _near_resonant_poly(),
    "derivative": _near_resonant_poly().derivative(),
    "squared": _near_resonant_poly().squared(),
    "group with a non-finite coefficient": ExpPoly.build(
        [(0, -1.0, 1.0)],
        [((-1.0, -1.0 - 1e-9), math.inf), ((-0.3, -0.3 + 1e-7), complex(math.nan, 1.0))]),
    "near resonance": solve_forced(
        ModeParams(1e-3, 50.0, 1.0, 0.5), ForcingTerm(1.0, 2.0, 50.0 * (1 + 1e-6))
    ).poly,
    "chained group": _chained_group_poly(),
}

_ALPHAS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 1e300, math.inf, math.nan, 1j,
           np.float64(0.3), np.float64(-0.0), np.float64(math.inf),
           np.sqrt(np.float64(1e-3)), np.complex128(0.5 - 0.5j)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(_NORMAL_POLYS))
def test_scale_is_build_of_the_scaled_terms(name):
    poly = _NORMAL_POLYS[name]
    assert poly.differences or name == "plain"
    if name == "chained group":  # the prefix (z2, z1) is two plain terms
        assert all(len(nodes) == 3 for nodes, _ in poly.differences)
        assert repr(ExpPoly.build(poly.terms, poly.differences)) == repr(poly)
    for alpha in _ALPHAS:
        want = ExpPoly.build(
            [(k, mu, alpha * c) for k, mu, c in poly.terms],
            [(nodes, alpha * c) for nodes, c in poly.differences],
        )
        # equal reprs: the same values and scalar types, in the same order
        assert repr(poly.scale(alpha)) == repr(want), alpha


# The divided-difference kernels as they were before their exact shortcuts
# (shared tables, the zero block, slices of sorted times): every value of
# the current kernels must have these bits.

def _reference_table(nodes):
    shift = max(nodes, key=exppoly._node_key)
    w = [z - shift for z in nodes]
    r = max(abs(x) for x in w)
    u = [x / r for x in w]
    n = len(nodes) - 1
    order = exppoly._MAX_ORDER
    table = np.zeros((n + 1, n + 1, order + 1), dtype=complex)
    for i in range(n + 1):
        h = np.array([u[i] ** k for k in range(order + 1)])
        for j in range(i, n + 1):
            if j > i:
                for k in range(1, order + 1):
                    h[k] = h[k] + u[j] * h[k - 1]
            table[i, j] = h / np.array([math.factorial(k + j - i) for k in range(order + 1)])
    if all(z.imag == 0 for z in nodes):
        table, shift = table.real.copy(), shift.real
    return shift, r, table


def _reference_squaring(table, r, t):
    n = table.shape[0] - 1
    out = np.full(t.shape, np.nan, dtype=table.dtype)
    finite = np.flatnonzero(np.isfinite(t))
    squarings = np.ceil(np.log2(r * t[finite] / exppoly._SERIES_RADIUS)).astype(int)
    order = np.argsort(-squarings, kind="stable")
    finite, squarings = finite[order], squarings[order]
    tau = np.ldexp(t[finite], -squarings)
    rt = r * tau
    entry = {
        (i, j): tau ** (j - i) * exppoly._horner(table[i, j], rt)
        for i in range(n + 1)
        for j in range(i, n + 1)
    }
    keys = sorted(entry, key=lambda ij: ij[0] - ij[1])
    for step in range(squarings.max(initial=0)):
        m = int(np.count_nonzero(squarings > step))
        for i, j in keys:
            acc = entry[i, i][:m] * entry[i, j][:m]
            for k in range(i + 1, j + 1):
                acc += entry[i, k][:m] * entry[k, j][:m]
            entry[i, j][:m] = acc
    out[finite] = entry[0, n]
    return out


def _reference_difference(nodes, t):
    if len(nodes) == 2:
        a, b = nodes
        if a.imag == 0 and b.imag == 0:
            a, b = a.real, b.real
        x = (a - b) * t
        tiny = np.abs(x) < np.finfo(float).tiny
        quotient = np.expm1(np.where(tiny, 1.0, x)) / np.where(tiny, 1.0, a - b)
        ratio = np.where(tiny, t, quotient)
        return np.exp(b * t) * ratio
    shift, r, table = _reference_table(nodes)
    n = len(nodes) - 1
    flat = t.ravel()
    x = r * flat
    out = np.empty(flat.shape, dtype=table.dtype)
    small = x <= exppoly._SERIES_RADIUS
    if np.any(small):
        xs = x[small]
        order = max(exppoly._series_order(float(np.max(xs))), 1)
        out[small] = flat[small] ** n * exppoly._horner(table[0, n, : order + 1], xs)
    if not np.all(small):
        out[~small] = _reference_squaring(table, r, flat[~small])
    return out.reshape(t.shape) * np.exp(shift * t)


_B = -1.0
_KERNEL_GROUPS = {
    **{f"(a, b x{k})": (-3.0,) + (_B,) * k for k in range(1, 5)},
    "(a x2, b)": (-3.0, -3.0, _B),
    "(a x2, b x2)": (-3.0, -3.0, _B, _B),
    "three values": (-3.0, -2.0, _B),
    "three values, b x2": (-3.0, -2.5, _B, _B),
    "growing": (-0.5, 0.25, 0.25),
    "pair around a larger real node": (-2 - 0.3j, -2 + 0.3j, -1.9, -1.9),
    "pair above a repeated real node": (-2.1, -2.1, -2 - 0.3j, -2 + 0.3j),
    "common imaginary part": (-3 + 1j, _B + 1j, _B + 1j),
}

_KERNEL_TIMES = np.concatenate([np.linspace(0.0, 0.3, 7), np.geomspace(0.3, 60.0, 40)])
_SHUFFLED = np.random.default_rng(3).permutation(_KERNEL_TIMES)
_TIME_SETS = {
    "ascending": _KERNEL_TIMES,
    "shuffled": _SHUFFLED,
    "repeated": np.repeat(_KERNEL_TIMES[::3], 3),
    "descending": _KERNEL_TIMES[::-1].copy(),
    "nan": np.insert(_KERNEL_TIMES, [0, 20, 47], math.nan),
    "shuffled nan": np.insert(_SHUFFLED, [5, 30], math.nan),
    "inf": np.append(_KERNEL_TIMES, [math.inf, math.inf]),
    "inf and nan": np.concatenate([_SHUFFLED, [math.inf, math.nan, math.inf]]),
    "negative": np.linspace(-2.0, 2.0, 9),
    "one time": np.array([30.0]),
    "one nan": np.array([math.nan]),
    "empty": np.empty(0),
    "2-D": _KERNEL_TIMES[:45].reshape(9, 5),
    "0-D": np.array(12.0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("times", list(_TIME_SETS))
@pytest.mark.parametrize("group", list(_KERNEL_GROUPS))
def test_difference_kernels_keep_their_bits(group, times):
    nodes = tuple(sorted(map(complex, _KERNEL_GROUPS[group]), key=exppoly._node_key))
    spread = max(abs(z - w) for z in nodes for w in nodes)
    for scale in (1.0, 1 / spread, 50 / spread):  # series only, then deeper squarings
        t = _TIME_SETS[times] * scale
        got, want = _difference_value(nodes, t), _reference_difference(nodes, t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _with_warnings(f, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(*args)
    return value, sorted(str(w.message) for w in caught)


@pytest.mark.parametrize("times", list(_TIME_SETS))
@pytest.mark.parametrize("gap", [0.0, 5e-324, 1e-310, 1e-300, 1e-9, 2.0, 2.0 + 0.5j])
def test_pair_kernel_keeps_its_bits(gap, times):
    # zero, subnormal, small and normal gaps; 1e-300 is below the normal
    # range at the small times only.  The warnings are the reference's too:
    # the points below the normal range divide nothing
    for b in (-1.0, 0.0, -1.0 + 3j):
        nodes = tuple(sorted((complex(b - gap), complex(b)), key=exppoly._node_key))
        t = _TIME_SETS[times] * 1e8
        got, got_warnings = _with_warnings(_difference_value, nodes, t)
        want, want_warnings = _with_warnings(_reference_difference, nodes, t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got_warnings == want_warnings


def test_groups_with_equal_normalized_nodes_share_one_table():
    shared = [exppoly._difference_table(tuple(map(complex, g)))
              for g in [(-3.0, -1.0, -1.0), (-7.5, 2.0, 2.0), (-1e-9, 0.0, 0.0)]]
    assert [s[0] for s in shared] == [-1.0, 2.0, 0.0]
    assert shared[0][2] is shared[1][2] is shared[2][2]
    assert [s[3] for s in shared] == [2, 2, 2]
    assert exppoly._difference_table((-3 + 0j, -2 + 0j, -1 + 0j))[3] == 1
    # the same u, (-1, 0, 0), for complex nodes: a complex table of its own,
    # with no zero block
    shift, r, table, zeros = exppoly._difference_table((-3 + 1j, -1 + 1j, -1 + 1j))
    assert (shift, r, zeros) == (-1 + 1j, 2.0, 0)
    assert np.iscomplexobj(table) and not np.iscomplexobj(shared[0][2])
    assert table.real.tobytes() == shared[0][2].tobytes()
    assert not table.flags.writeable and not shared[0][2].flags.writeable


def test_scaled_squaring_takes_sorted_slices(monkeypatch):
    # ascending times are neither sorted nor gathered again; unsorted ones
    # are sorted once, in _difference_value
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(exppoly.np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    nodes = (-3 + 0j, -1 + 0j, -1 + 0j)
    t = np.geomspace(0.1, 80.0, 50)
    _difference_value(nodes, t)
    assert calls == []
    _difference_value(nodes, t[::-1].copy())
    assert calls == [1]
