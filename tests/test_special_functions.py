"""Tests for the incomplete-gamma fills the exact closed forms close with.

``_GammaTable(x)`` reads Γ(a, x) at integer orders off the two fills every
exact closing shares: downward from E1(x) (``_moments``) for a ≤ 0, and
upward from 1/x (``_poly_moments``) for a ≥ 1.
Each table runs at the precision the library gives its downward fill,
25 digits plus ``_descent_digits(x, 20)``.  Oracle values were frozen from
adaptive quadrature of the defining integrals (mpmath tanh-sinh at 40
digits) before the implementation existed.
"""

import math

import mpmath as mp
import pytest

from esrsel.partial_fractions import _DPS_BASE, _GammaTable, _descent_digits

# Frozen quadrature-oracle values (committed before the closed forms ran).
GAMMA_0_1 = 0.21938393439551238  # ∫_1^∞ e^-t / t dt
GAMMA_M1_1 = 0.14849550677592208  # ∫_1^∞ e^-t / t^2 dt

DEPTH = 20  # deepest order the grids reach


def rel_err(got, want):
    return abs(got - want) / abs(want)


def table_dps(x):
    return _DPS_BASE + math.ceil(_descent_digits(x, DEPTH))


def gamma(a, x):
    """Γ(a, x) from a fresh table at its working precision, as a float."""
    with mp.workdps(table_dps(x)):
        return float(_GammaTable(mp.mpf(x)).get(a))


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
        assert rel_err(gamma(1, 2.0), math.exp(-2.0)) < 1e-14

    def test_order_zero_matches_quadrature_oracle(self):
        assert rel_err(gamma(0, 1.0), GAMMA_0_1) < 1e-12

    def test_negative_order_recurrence_value(self):
        # One downward recurrence step: Γ(-1,1) = e^-1 - Γ(0,1).
        got = gamma(-1, 1.0)
        assert rel_err(got, GAMMA_M1_1) < 1e-12
        assert rel_err(got, math.exp(-1.0) - gamma(0, 1.0)) < 1e-12

    def test_exponential_integral_alias(self):
        for x in (0.3, 1.0, 4.0, 30.0):
            assert rel_err(gamma(0, x), float(mp.gammainc(0, x))) < 1e-14

    def test_series_continued_fraction_seam_is_smooth(self):
        # Series and continued-fraction evaluations of E1 usually meet at
        # x = 1; Γ(0, x) must be continuous there.
        assert rel_err(gamma(0, 1.0 - 1e-9), gamma(0, 1.0 + 1e-9)) < 1e-8

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("a", range(-20, 21))
    def test_recurrence_consistency(self, a, x):
        # a·Γ(a,x) + x^a e^-x = Γ(a+1,x), on one table's values.
        with mp.workdps(table_dps(x)):
            table, x = _GammaTable(mp.mpf(x)), mp.mpf(x)
            lhs = a * table.get(a) + x**a * mp.exp(-x)
            rhs = table.get(a + 1)
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-11 * scale

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("a", [-20, -7, -2, -1, 0, 1, 2, 5, 12, 20])
    def test_quadrature_equivalence(self, a, x):
        assert rel_err(gamma(a, x), quad_upper_gamma(a, x)) < 1e-9

    @pytest.mark.parametrize("a", [-3, 0, 2])
    def test_strictly_decreasing_in_x(self, a):
        xs = [0.2, 0.5, 1.0, 2.0, 5.0, 12.0]
        vals = [gamma(a, x) for x in xs]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0])
    def test_descent_loses_no_more_digits_than_claimed(self, x):
        # At 25 digits plus the descent's claimed loss, every order keeps
        # 20 correct digits against mpmath taken 40 digits finer.
        dps = table_dps(x)
        with mp.workdps(dps):
            table = _GammaTable(mp.mpf(x))
            got = [table.get(a) for a in range(-DEPTH, DEPTH + 1)]
        with mp.workdps(dps + 40):
            for a, g in zip(range(-DEPTH, DEPTH + 1), got):
                want = mp.gammainc(a, x)
                assert abs(g - want) <= mp.mpf("1e-20") * want, (a, x)
