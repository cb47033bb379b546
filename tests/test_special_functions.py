"""Tests for the scalar special-function kernels.

Oracle values were frozen from adaptive quadrature of the defining
integrals (mpmath tanh-sinh at 40 digits) before the implementation
existed; identities are checked against independent closed forms.
"""

import math

import mpmath as mp
import pytest

from esrsel.errors import DomainError
from special_functions import (
    ScaledGamma,
    UnsupportedOrderError,
    exp_integral_e1,
    harmonic,
    log_binomial,
    scaled_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

EULER_GAMMA = 0.5772156649015329

# Frozen quadrature-oracle values (committed before the closed forms ran).
GAMMA_0_1 = 0.21938393439551238  # ∫_1^∞ e^-t / t dt
GAMMA_M1_1 = 0.14849550677592208  # ∫_1^∞ e^-t / t^2 dt
SCALED_GAMMA_0_200 = 0.0049752463231793566  # e^200 ∫_200^∞ e^-t / t dt


def rel_err(got, want):
    return abs(got - want) / abs(want)


def quad_upper_gamma(order, x):
    """Independent oracle: adaptive quadrature of ∫_x^∞ t^(a-1) e^-t dt.

    60 digits: at deep negative orders the integral is ~1e-58 and the
    quadrature needs the headroom to resolve it to relative 1e-9.
    """
    with mp.workdps(60):
        val = mp.quad(lambda t: t ** (order - 1) * mp.e ** (-t), [x, x + 1, x + 40, mp.inf])
        return float(val)


class TestUpperIncompleteGamma:
    def test_order_one_is_exponential(self):
        assert rel_err(upper_incomplete_gamma(1, 2.0), math.exp(-2.0)) < 1e-14

    def test_order_zero_matches_quadrature_oracle(self):
        assert rel_err(upper_incomplete_gamma(0, 1.0), GAMMA_0_1) < 1e-12

    def test_negative_order_recurrence_value(self):
        # One downward recurrence step: Γ(-1,1) = e^-1 - Γ(0,1).
        got = upper_incomplete_gamma(-1, 1.0)
        assert rel_err(got, GAMMA_M1_1) < 1e-12
        assert rel_err(got, math.exp(-1.0) - upper_incomplete_gamma(0, 1.0)) < 1e-12

    def test_exponential_integral_alias(self):
        for x in (0.3, 1.0, 4.0, 30.0):
            assert rel_err(exp_integral_e1(x), upper_incomplete_gamma(0, x)) < 1e-14

    def test_series_continued_fraction_seam_is_smooth(self):
        lo = exp_integral_e1(1.0 - 1e-9)
        hi = exp_integral_e1(1.0 + 1e-9)
        assert rel_err(lo, hi) < 1e-8

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("a", range(-20, 21))
    def test_recurrence_consistency(self, a, x):
        # a·Γ(a,x) + x^a e^-x = Γ(a+1,x)
        lhs = a * upper_incomplete_gamma(a, x) + x**a * math.exp(-x)
        rhs = upper_incomplete_gamma(a + 1, x)
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-11 * scale

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("a", [-20, -7, -2, -1, 0, 1, 2, 5, 12, 20])
    def test_quadrature_equivalence(self, a, x):
        assert rel_err(upper_incomplete_gamma(a, x), quad_upper_gamma(a, x)) < 1e-9

    @pytest.mark.parametrize("a", [-3, 0, 2])
    def test_strictly_decreasing_in_x(self, a):
        xs = [0.2, 0.5, 1.0, 2.0, 5.0, 12.0]
        vals = [upper_incomplete_gamma(a, x) for x in xs]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_domain_and_order_errors(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(2, -1.0)
        with pytest.raises(UnsupportedOrderError):
            upper_incomplete_gamma(513, 1.0)
        with pytest.raises(UnsupportedOrderError):
            upper_incomplete_gamma(-513, 1.0)


class TestScaledGamma:
    def test_zero_prefactor_matches_unscaled(self):
        got = scaled_upper_incomplete_gamma(0, 1.0, 0.0)
        assert rel_err(got.to_float(), GAMMA_0_1) < 1e-12

    def test_prefactor_cancels_exponential(self):
        # e^50 · Γ(1, 50) = e^50 · e^-50 = 1 exactly.
        got = scaled_upper_incomplete_gamma(1, 50.0, 50.0)
        assert rel_err(got.to_float(), 1.0) < 1e-12

    def test_large_argument_scaled_value(self):
        got = scaled_upper_incomplete_gamma(0, 200.0, 200.0)
        assert rel_err(got.to_float(), SCALED_GAMMA_0_200) < 1e-10

    def test_agrees_with_unscaled_product_when_representable(self):
        for order, x, pre in [(0, 1.0, 2.0), (-2, 0.5, -3.0), (3, 4.0, 1.5)]:
            want = math.exp(pre) * upper_incomplete_gamma(order, x)
            got = scaled_upper_incomplete_gamma(order, x, pre).to_float()
            assert rel_err(got, want) < 1e-12

    def test_round_trip_through_float(self):
        for v in (0.25, -1.75e-3, 3.5e8, -7.0):
            assert ScaledGamma.from_float(v).to_float() == v
        zero = ScaledGamma.from_float(0.0)
        assert zero.to_float() == 0.0
        assert zero.log_scale == 0.0


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert rel_err(harmonic(3), 11.0 / 6.0) < 1e-15

    def test_approaches_log_plus_euler_gamma_monotonically(self):
        diffs = []
        for n in range(1, 400):
            diff = harmonic(n) - math.log(n) - EULER_GAMMA
            assert 0.0 < diff <= 1.0 / (2.0 * n)
            diffs.append(diff)
        assert all(d0 > d1 for d0, d1 in zip(diffs, diffs[1:]))


class TestLogBinomial:
    def test_edge_and_small_cases(self):
        assert log_binomial(5, 0) == 0.0
        assert rel_err(log_binomial(4, 2), math.log(6.0)) < 1e-13

    def test_large_case_against_exact_integer(self):
        # C(50,25) = 126410606437752 exactly.
        assert rel_err(log_binomial(50, 25), math.log(126410606437752)) < 1e-13
        assert abs(log_binomial(50, 25) - 32.47055650581199) < 1e-10

    def test_matches_exact_integers_up_to_1000(self):
        for n, k in [(100, 3), (300, 150), (1000, 500), (1000, 1)]:
            assert rel_err(log_binomial(n, k), math.log(math.comb(n, k))) < 1e-13

    def test_k_above_n_rejected(self):
        with pytest.raises(DomainError):
            log_binomial(3, 4)
