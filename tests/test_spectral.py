import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlim.spectral import (
    SpecVector,
    Spectrum,
    apply_power,
    inner,
    norm,
    resolvent,
)
from singlim.profiles import kernel_profile

from conftest import weighted_kernel


def vec(*xs):
    return SpecVector(np.array(xs, dtype=float))


def semigroup(spec, t, f):
    """e^{-tA} f at time t, from the profile the package builds for it."""
    return SpecVector(kernel_profile(spec, f.coefficients, 0, 0.0).sample([t])[0])


class TestConstruction:
    def test_spectrum_rejects_negative(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, -0.5]))

    def test_spectrum_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([]))

    def test_zero_eigenvalues_allowed(self):
        s = Spectrum(np.array([0.0, 1.0]))
        assert s.min_positive == 1.0

    def test_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpecVector(np.array([1.0, np.inf]))


class TestApplyPower:
    def test_half_power(self):
        s = Spectrum(np.array([0.0, 1.0, 4.0]))
        out = apply_power(s, 0.5, vec(1, 1, 1))
        np.testing.assert_allclose(out.coefficients, [0.0, 1.0, 2.0])

    def test_power_zero_is_identity(self):
        s = Spectrum(np.array([0.0, 3.0]))
        f = vec(2.5, -1.0)
        out = apply_power(s, 0.0, f)
        np.testing.assert_array_equal(out.coefficients, f.coefficients)

    def test_three_halves(self):
        # oracle: 2^(3/2) = 2 * sqrt(2)
        s = Spectrum(np.array([2.0]))
        out = apply_power(s, 1.5, vec(1))
        assert out.coefficients[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_rejects_negative_power(self):
        s = Spectrum(np.array([1.0]))
        with pytest.raises(ValueError):
            apply_power(s, -0.5, vec(1))


class TestResolvent:
    def test_value(self):
        out = resolvent(Spectrum(np.array([3.0])), 0.5, vec(1))
        assert out.coefficients[0] == pytest.approx(0.4, abs=1e-15)

    def test_kernel_mode_unchanged(self):
        s = Spectrum(np.array([0.0, 2.0]))
        out = resolvent(s, 0.7, vec(5, 1))
        assert out.coefficients[0] == 5.0

    def test_eps_sweep_monotone_to_one(self):
        s = Spectrum(np.array([1.0]))
        values = [resolvent(s, e, vec(1)).coefficients[0] for e in (1.0, 0.1, 0.01, 1e-4)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            resolvent(Spectrum(np.array([1.0])), 0.0, vec(1))


class TestSemigroup:
    def test_identity_at_zero(self):
        s = Spectrum(np.array([0.5, 7.0]))
        f = vec(1, -2)
        np.testing.assert_array_equal(semigroup(s, 0.0, f).coefficients, f.coefficients)

    def test_log_two(self):
        out = semigroup(Spectrum(np.array([1.0])), math.log(2.0), vec(1))
        assert out.coefficients[0] == pytest.approx(0.5, rel=1e-15)

    def test_kernel_mode_stationary(self):
        out = semigroup(Spectrum(np.array([0.0])), 123.0, vec(7))
        assert out.coefficients[0] == 7.0


class TestWeightedKernel:
    def test_time_factor_kills_t_zero(self):
        s = Spectrum(np.array([1.0, 2.0]))
        out = weighted_kernel(s, 0.0, 1, 2.0, vec(1, 1))
        np.testing.assert_array_equal(out.coefficients, [0.0, 0.0])

    def test_n1_m2(self):
        s = Spectrum(np.array([1.0]))
        out = weighted_kernel(s, 1.0, 1, 2.0, vec(1))
        assert out.coefficients[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        profile = kernel_profile(s, np.array([1.0]), 1, 2.0).sample([1.0])[0]
        assert profile[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_n0_m1(self):
        s = Spectrum(np.array([2.0]))
        out = weighted_kernel(s, 0.5, 0, 1.0, vec(1))
        assert out.coefficients[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
        profile = kernel_profile(s, np.array([1.0]), 0, 1.0).sample([0.5])[0]
        assert profile[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_rejects_bad_args(self):
        s = Spectrum(np.array([1.0]))
        with pytest.raises(ValueError):
            weighted_kernel(s, -0.1, 0, 1.0, vec(1))
        with pytest.raises(ValueError):
            weighted_kernel(s, 0.1, 0, -1.0, vec(1))


class TestInnerNorm:
    def test_inner_with_zero(self):
        assert inner(vec(1, 2, 3), vec(0, 0, 0)) == 0.0

    def test_pythagorean(self):
        assert norm(vec(3, 4)) == pytest.approx(5.0, rel=1e-15)

    def test_inner_direct(self):
        assert inner(vec(1, 2), vec(2, 1)) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner(vec(1, 2), vec(1))

    def test_norm_whose_sum_of_squares_overflows_is_finite(self):
        assert norm(vec(1e200, 0)) == 1e200
        assert norm(vec(3e200, -4e200)) == pytest.approx(5e200, rel=1e-15)
        assert norm(vec(1.5e308, 1.5e308)) == math.inf  # the norm itself overflows

    def test_norm_is_the_root_of_the_inner_product_when_that_is_finite(self):
        f = vec(0.1, 1e150, -3.7, 2e-300)
        assert norm(f) == math.sqrt(inner(f, f))


eigenvalue_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=6
)
coeff_for = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def spectrum_and_vector(draw):
    lams = draw(eigenvalue_lists)
    coeffs = draw(
        st.lists(coeff_for, min_size=len(lams), max_size=len(lams))
    )
    return Spectrum(np.array(lams)), SpecVector(np.array(coeffs))


@settings(max_examples=60, deadline=None)
@given(
    spectrum_and_vector(),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_semigroup_law(sv, t, s):
    spec, f = sv
    two_step = semigroup(spec, s, semigroup(spec, t, f))
    one_step = semigroup(spec, s + t, f)
    assert norm(two_step - one_step) <= 1e-12 * max(norm(f), 1e-30)


@settings(max_examples=60, deadline=None)
@given(spectrum_and_vector(), st.floats(min_value=1e-4, max_value=1.0))
def test_resolvent_identity(sv, eps):
    spec, f = sv
    jf = resolvent(spec, eps, f)
    reconstructed = SpecVector(
        (1.0 + eps * spec.eigenvalues) * jf.coefficients
    )
    assert norm(reconstructed - f) <= 1e-12 * max(norm(f), 1e-30)


@settings(max_examples=60, deadline=None)
@given(spectrum_and_vector(), st.floats(min_value=1e-4, max_value=1.0))
def test_smoothed_halfpower_bound(sv, eps):
    spec, f = sv
    half = apply_power(spec, 0.5, resolvent(spec, eps, f))
    assert eps * norm(half) ** 2 <= norm(f) ** 2 * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(spectrum_and_vector())
def test_power_additivity(sv):
    spec, f = sv
    for s in (0.0, 0.5, 1.0, 1.5, 2.0):
        for r in (0.0, 0.5, 1.0, 1.5, 2.0):
            chained = apply_power(spec, s, apply_power(spec, r, f))
            direct = apply_power(spec, s + r, f)
            assert norm(chained - direct) <= 1e-12 * max(norm(direct), 1e-30)


@settings(max_examples=60, deadline=None)
@given(spectrum_and_vector())
def test_semigroup_contraction(sv):
    spec, f = sv
    norms = [norm(semigroup(spec, t, f)) for t in np.linspace(0.0, 5.0, 11)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-14) + 1e-300
