import math

import numpy as np
import pytest
from scipy.integrate import quad

import singlim.exppoly as exppoly
from singlim.exppoly import (
    ExpPoly,
    _difference_value,
    _moment_series,
    divided_difference_exp,
    evaluate,
    integrate,
    power_exp_moment,
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
    got = power_exp_moment(k, mu, t_end)
    real_part = quad(
        lambda s: (s**k * np.exp(complex(mu) * s)).real, 0.0, t_end, limit=200
    )[0]
    imag_part = quad(
        lambda s: (s**k * np.exp(complex(mu) * s)).imag, 0.0, t_end, limit=200
    )[0]
    assert complex(got) == pytest.approx(complex(real_part, imag_part), abs=1e-12)


def test_moment_zero_rate():
    assert complex(power_exp_moment(2, 0.0, 3.0)) == pytest.approx(9.0, rel=1e-15)


def test_integral_cumulative_vector():
    p = ExpPoly.build([(0, -1.0, 1.0)])  # e^{-t}
    ts = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p.integral(ts), 1.0 - np.exp(-ts), rtol=1e-14)


def test_integral_to_infinity():
    # t^2 e^{-2t}: Gamma(3) / 2^3 = 1/4
    p = ExpPoly.build([(2, -2.0, 1.0)])
    assert p.integral_to_infinity() == pytest.approx(0.25, rel=1e-14)


def test_integral_to_infinity_rejects_growth():
    p = ExpPoly.build([(0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        p.integral_to_infinity()


def test_squared_integral_matches_quadrature():
    p = ExpPoly.build([(0, -1.0, 1.0), (1, -0.25, -0.5)])
    sq = p.squared()
    expected = quad(lambda s: p.value(np.array([s]))[0] ** 2, 0.0, 6.0, limit=200)[0]
    assert sq.integral(6.0) == pytest.approx(expected, rel=1e-10)


def test_divided_difference_pair_and_confluent_limit():
    ts = np.linspace(0.0, 6.0, 13)
    # well separated pair: the plain quotient is exact enough
    got = divided_difference_exp((-1.0, -3.0), ts)
    np.testing.assert_allclose(
        got.real, (np.exp(-ts) - np.exp(-3 * ts)) / 2.0, rtol=1e-14, atol=1e-300
    )
    # a pair 1e-12 apart is t e^{-t} to rounding, where the quotient is not
    got = divided_difference_exp((-1.0, -1.0 + 1e-12), ts)
    np.testing.assert_allclose(got.real, ts * np.exp(-ts), rtol=1e-11, atol=1e-300)
    # equal nodes are the confluent limit t^2 e^{-2t} / 2
    got = divided_difference_exp((-2.0, -2.0, -2.0), ts)
    np.testing.assert_allclose(got.real, ts**2 * np.exp(-2 * ts) / 2, rtol=1e-14)


@pytest.mark.parametrize("spread", [1e-13, 1e-6, 0.3, 2.0])
def test_divided_difference_three_nodes(spread):
    # series and scaling-and-squaring paths against the partial-fraction form
    # evaluated in extended precision (exact for well separated nodes)
    nodes = (-1.0, -1.0 + spread, -1.0 - 0.7 * spread)
    ts = np.array([0.0, 0.01, 0.5, 3.0, 20.0])
    got = divided_difference_exp(nodes, ts).real
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
        assert sq.integral(t) == pytest.approx(want, rel=1e-11)
    want = quad(lambda s: p.value(s), 0.0, np.inf, epsabs=0, epsrel=1e-12)[0]
    assert p.integral_to_infinity() == pytest.approx(want, rel=1e-9)


def _plain_value(poly: ExpPoly, t) -> np.ndarray:
    """Every plain term on every point, in complex arithmetic."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    for k, mu, c in poly.terms:
        acc += c * t**k * np.exp(mu * t)
    return acc.real


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


def _plain_moment(k: int, mu: complex, t: np.ndarray) -> np.ndarray:
    """power_exp_moment with the upward recurrence on every large point."""
    out = np.empty(t.shape, dtype=complex)
    small = np.abs(mu * t) < 0.8
    out[small] = _moment_series(k, mu, t[small])
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
    got = power_exp_moment(k, mu, t)
    assert got.tobytes() == _plain_moment(k, mu, t).tobytes()


# Batched evaluation: several polynomials on one time array share their
# exponentials, masks, powers and moments, and each still sums its own
# terms in its own order.  The references below take every term on every
# point, one polynomial at a time.

def _termwise_value(poly: ExpPoly, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape, dtype=complex)
    for k, mu, c in poly.terms:
        acc += c * t**k * np.exp(mu * t)
    for nodes, c in poly.differences:
        acc += c * _difference_value(nodes, t)
    return acc.real


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


@pytest.mark.parametrize("t", _BATCH_TIMES)
def test_evaluate_bitwise(t):
    values = evaluate(_BATCH, t)
    assert len(values) == len(_BATCH)
    for poly, got in zip(_BATCH, values):
        want = _termwise_value(poly, t).tobytes()
        assert np.asarray(got).tobytes() == want
        assert np.asarray(poly.value(t)).tobytes() == want
        assert isinstance(got, float) == (np.ndim(t) == 0)


@pytest.mark.parametrize("t", _BATCH_TIMES)
def test_integrate_bitwise(t):
    values = integrate(_BATCH, t)
    assert len(values) == len(_BATCH)
    for poly, got in zip(_BATCH, values):
        want = _termwise_integral(poly, t).tobytes()
        assert np.asarray(got).tobytes() == want
        assert np.asarray(poly.integral(t)).tobytes() == want
        assert isinstance(got, float) == (np.ndim(t) == 0)


def test_evaluate_and_integrate_take_empty_batches():
    assert evaluate([], np.linspace(0.0, 1.0, 5)) == []
    assert integrate([], 1.0) == []


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
    integrate(polys, np.linspace(0.0, 5.0, 50))
    assert sorted(calls, key=lambda c: c[0]) == [(2, _A), (3, -2.0)]
