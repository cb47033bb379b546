"""Tests for the partial-fraction coefficients and the tail integrals they
feed, on the mpmath kernels of ``esrsel.partial_fractions``.

Each case builds the poles of one index tuple (``tuple_poles``), runs the
kernel at the working precision ``required_dps`` gives it and rounds to
float.  Exact-form integrals over several poles go through the
per-pole-set reference's kernels, which recombine the library's
single-pole integrals.  Frozen constants are adaptive-quadrature values of
the defining integrals, committed before the closed forms were written.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from esrsel.errors import ContractError
from esrsel.partial_fractions import (
    j0_highsnr_mp,
    j1_highsnr_mp,
    pf_coefficients,
    required_dps,
    single_pole_integral_mp,
)
from pole_set_reference import _exact_kernels, tuple_poles

# ∫_1^∞ e^-x / (x (x+1)) dx
J0_EXACT_SINGLE = 0.08645856473543079
# ∫_1^∞ e^-1.5x / (x (x+2) (x+1)) dx
J0_EXACT_TWO_POLE = 0.012353687975541488
# ∫_1^∞ e^-x / (x+1) dx
J1_EXACT_SINGLE = 0.13292536966008164
# ∫_1^∞ dx / (x (x+1) (x+2))
J0_HS_TWO_POLE = 0.14384103622588984


def rel_err(got, want):
    return abs(got - want) / abs(want)


def mp_poles(poles):
    return [(mp.mpf(c), T) for c, T in poles]


def expand(poles, with_origin):
    """Partial fractions of 1/(x^o Π (x+c)^T) as floats: the origin
    coefficient (None without the origin pole) and (c, t, coefficient of
    1/(x+c)^t) triples."""
    with mp.workdps(required_dps(poles)):
        pf = pf_coefficients(None, with_origin, mp_poles(poles))
        origin = None if pf.origin is None else float(pf.origin)
        return origin, [(c, t, float(b)) for (c, _), bs in zip(poles, pf.poles) for t, b in enumerate(bs, 1)]


def j_exact(poles, beta, nu=0):
    """∫_1^∞ x^{ν-1} e^{-βx} dx / Π (x+c)^T; ν = 0 is the origin pole."""
    with mp.workdps(required_dps(poles, zs=[beta * (1 + c) for c, _ in poles], nu_max=nu)):
        p = mp_poles(poles)
        val, _ = _exact_kernels(mp.mpf(beta), [c for c, _ in p])(p)(nu)
        return float(val)


def j_ratio(poles, nu=0, asymptotic=False):
    """The β = 0 integral, with the λ_D → ∞ substitution 1 + c → c when
    ``asymptotic``."""
    with mp.workdps(required_dps(poles, nu_max=nu)):
        p = mp_poles(poles)
        val, _ = j0_highsnr_mp(p, asymptotic) if nu == 0 else j1_highsnr_mp(p, nu, asymptotic)
        return float(val)


def rational(poles, x, with_origin):
    val = 1.0 / x if with_origin else 1.0
    for c, T in poles:
        val /= (x + c) ** T
    return val


def recombine(expansion, x):
    origin, terms = expansion
    return (origin or 0.0) / x + sum(coeff / (x + c) ** t for c, t, coeff in terms)


def recombine_term_scale(expansion, x):
    """Largest term magnitude in the recombined sum at x.

    Partial fractions cancel heavily at large x (the sum decays much faster
    than any single term), so error budgets must be relative to this scale,
    not to the final value.
    """
    origin, terms = expansion
    return max([abs(origin or 0.0) / x] + [abs(coeff) / (x + c) ** t for c, t, coeff in terms])


def quad_j(poles, beta=0.0, nu=0):
    """Quadrature of the integral ``j_exact`` (``j_ratio`` at β = 0) closes."""
    f = lambda x: x ** (nu - 1) * math.exp(-beta * x) * rational(poles, x, False)
    val, _ = quad(f, 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


class TestExpand:
    def test_origin_times_single_pole(self):
        origin, terms = expand(tuple_poles([1], [0], 1, 2.0, 1.0), True)  # 1/(x(x+2))
        assert origin == pytest.approx(0.5, rel=1e-14)
        assert {(c, t): coeff for c, t, coeff in terms} == {(2.0, 1): pytest.approx(-0.5, rel=1e-14)}

    def test_origin_times_double_pole(self):
        e = expand(tuple_poles([1], [1], 1, 1.0, 1.0), True)  # 1/(x(x+1)^2)
        coeffs = {(c, t): coeff for c, t, coeff in e[1]}
        assert e[0] == pytest.approx(1.0, rel=1e-14)
        assert coeffs[(1.0, 1)] == pytest.approx(-1.0, rel=1e-14)
        assert coeffs[(1.0, 2)] == pytest.approx(-1.0, rel=1e-14)
        for x in (1.0, 2.0, 3.7):
            assert rel_err(recombine(e, x), 1.0 / (x * (x + 1) ** 2)) < 1e-12

    def test_two_simple_poles(self):
        origin, terms = expand(tuple_poles([1, 3], [0, 0], 1, 3.0, 1.0), False)  # 1/((x+3)(x+1))
        assert origin is None
        coeffs = {(c, t): coeff for c, t, coeff in terms}
        assert coeffs[(1.0, 1)] == pytest.approx(0.5, rel=1e-14)
        assert coeffs[(3.0, 1)] == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_recombination_property(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        l_vec = [rng.randint(1, 4) for _ in range(k)]
        n_hat = [rng.randint(0, 2) for _ in range(k)]
        m_e = rng.randint(1, 2)
        lam_d = rng.uniform(0.5, 50.0)
        lam_e = rng.uniform(0.5, 5.0)
        with_origin = rng.random() < 0.5
        poles = tuple_poles(l_vec, n_hat, m_e, lam_d, lam_e)
        e = expand(poles, with_origin)
        xs = np.linspace(1.5, 50.0, 32)
        for x in xs:
            want = rational(poles, x, with_origin)
            scale = max(abs(want), recombine_term_scale(e, x))
            assert abs(recombine(e, x) - want) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_level_one_coefficients_sum_to_zero_when_decay_is_fast(self, seed):
        # If the rational function decays faster than 1/x, the residues of
        # the simple poles (plus the origin coefficient) must cancel.
        rng = random.Random(100 + seed)
        k = rng.randint(2, 3)
        l_vec = [rng.randint(1, 4) for _ in range(k)]
        n_hat = [rng.randint(0, 2) for _ in range(k)]
        poles = tuple_poles(l_vec, n_hat, 1, rng.uniform(1, 20), 1.0)
        degree = 1 + sum(T for _, T in poles)
        assert degree >= 2
        origin, terms = expand(poles, True)
        total = (origin or 0.0) + sum(coeff for _, t, coeff in terms if t == 1)
        scale = max([1.0] + [abs(coeff) for _, _, coeff in terms])
        assert abs(total) <= 1e-9 * scale


class TestJ0Exact:
    def test_single_pole_frozen_value_and_identity(self):
        got = j_exact(tuple_poles([1], [0], 1, 1.0, 1.0), 1.0)
        assert rel_err(got, J0_EXACT_SINGLE) < 1e-10
        # Independent closed form by partial fractions:
        want = float(mp.e1(1) - mp.e * mp.e1(2))
        assert rel_err(got, want) < 1e-11

    def test_two_distinct_poles_frozen_value(self):
        poles = tuple_poles([1, 2], [0, 0], 1, 2.0, 1.0)
        got = j_exact(poles, 3 / 2.0)
        assert rel_err(got, J0_EXACT_TWO_POLE) < 1e-9
        assert rel_err(got, quad_j(poles, 3 / 2.0)) < 1e-9

    def test_large_snr_sanity_against_quadrature(self):
        got = j_exact(tuple_poles([1], [0], 1, 1e4, 1.0), 1 / 1e4)
        with mp.workdps(30):
            want = float(
                mp.quad(
                    lambda x: mp.e ** (-x / 1e4) / (x * (x + 1e4)), [1, 1e4, mp.inf]
                )
            )
        assert rel_err(got, want) < 1e-8


class TestJ1Exact:
    def test_single_pole_frozen_value_and_identity(self):
        got = j_exact(tuple_poles([1], [0], 1, 1.0, 1.0), 1.0, nu=1)
        assert rel_err(got, J1_EXACT_SINGLE) < 1e-10
        want = float(mp.e * mp.e1(2))
        assert rel_err(got, want) < 1e-11

    def test_equal_l_path_matches_quadrature(self):
        poles = tuple_poles([1, 1], [0, 0], 1, 1.0, 1.0)
        got = j_exact(poles, 2.0, nu=1)
        assert rel_err(got, quad_j(poles, 2.0, nu=1)) < 1e-9

    def test_distinct_l_path_matches_quadrature(self):
        poles = tuple_poles([1, 2], [0, 0], 1, 1.0, 1.0)
        got = j_exact(poles, 3.0, nu=2)
        assert rel_err(got, quad_j(poles, 3.0, nu=2)) < 1e-9

    def test_zero_power_is_rejected(self):
        # ν = 0 is the origin-pole kernel's case, not the x^{ν-1} kernels'.
        with pytest.raises(ContractError):
            single_pole_integral_mp(0, 1, mp.mpf(1), mp.mpf(1))
        with pytest.raises(ContractError):
            j1_highsnr_mp([(mp.mpf(1), 2)], 0)


class TestJ0HighSnr:
    def test_single_pole_log_value(self):
        # ∫ dx/(x(x+1)) = ln 2
        assert rel_err(j_ratio(tuple_poles([1], [0], 1, 1.0, 1.0)), math.log(2.0)) < 1e-12

    def test_two_distinct_poles_frozen_value(self):
        poles = tuple_poles([1, 2], [0, 0], 1, 2.0, 1.0)  # ∫ dx/(x(x+2)(x+1))
        got = j_ratio(poles)
        assert rel_err(got, J0_HS_TWO_POLE) < 1e-9
        assert rel_err(got, quad_j(poles)) < 1e-9

    def test_near_origin_pole_guard(self):
        got = j_ratio(tuple_poles([1], [0], 1, 1e-8, 1.0))  # c = 1e-8
        want, _ = quad(lambda x: 1.0 / (x * (x + 1e-8)), 1.0, np.inf, limit=400)
        assert rel_err(got, want) < 1e-6

    def test_repeated_pole_matches_quadrature(self):
        poles = tuple_poles([2, 2], [0, 1], 1, 1.0, 1.0)  # 1/(x (x+0.5)^3)
        assert rel_err(j_ratio(poles), quad_j(poles)) < 1e-9


class TestJ1HighSnr:
    def test_double_pole_half(self):
        poles = tuple_poles([1], [1], 1, 1.0, 1.0)  # (x+1)^2
        assert rel_err(j_ratio(poles, nu=1), 0.5) < 1e-12

    def test_triple_pole_eighth(self):
        poles = tuple_poles([1], [1], 2, 1.0, 1.0)  # (x+1)^3
        got = j_ratio(poles, nu=1)
        assert rel_err(got, 0.125) < 1e-12
        assert rel_err(got, quad_j(poles, nu=1)) < 1e-9

    def test_two_distinct_poles(self):
        poles = tuple_poles([1, 2], [0, 0], 1, 2.0, 1.0)  # (x+2)(x+1)
        got = j_ratio(poles, nu=1)
        assert rel_err(got, math.log(1.5)) < 1e-10
        assert rel_err(got, quad_j(poles, nu=1)) < 1e-9


class TestAsymptotic:
    def test_origin_form_approaches_highsnr_at_large_ratio(self):
        poles = tuple_poles([1], [0], 1, 1e6, 1.0)
        assert rel_err(j_ratio(poles, asymptotic=True), j_ratio(poles)) < 2e-6

    def test_tail_form_approaches_highsnr_at_large_ratio(self):
        poles = tuple_poles([1, 1], [0, 0], 1, 1e6, 1.0)
        assert rel_err(j_ratio(poles, nu=1, asymptotic=True), j_ratio(poles, nu=1)) < 2e-6

    def test_substitution_matters_at_unit_ratio(self):
        poles = tuple_poles([1], [0], 1, 1.0, 1.0)
        assert abs(j_ratio(poles) - j_ratio(poles, asymptotic=True)) > 0.1


class TestStructureSymmetry:
    def test_permuting_factors_changes_nothing(self):
        variants = [
            ([1, 2, 2], [1, 0, 2]),
            ([2, 1, 2], [0, 1, 2]),
            ([2, 2, 1], [2, 0, 1]),
        ]
        structures = [tuple_poles(lv, nh, 2, 3.0, 1.5) for lv, nh in variants]
        # The pole multiset is a permutation invariant of the index tuple.
        assert structures[0] == structures[1] == structures[2]
        vals = [j_exact(s, 5 / 3.0) for s in structures]
        assert vals[0] == vals[1] == vals[2]
        # The kernel does not depend on the order it is given the poles in.
        assert rel_err(j_exact(structures[0][::-1], 5 / 3.0), vals[0]) < 1e-14


class TestQuadratureEquivalence:
    """Randomized spot checks of every kernel against direct quadrature."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_family(self, seed):
        rng = random.Random(200 + seed)
        k = rng.randint(1, 3)
        l_vec = [rng.randint(1, 3) for _ in range(k)]
        n_hat = [rng.randint(0, 2) for _ in range(k)]
        m_e = rng.randint(1, 3)
        lam_e = rng.uniform(0.5, 4.0)
        lam_d = lam_e * rng.uniform(0.1, 100.0)
        beta = sum(l_vec) / lam_d
        poles = tuple_poles(l_vec, n_hat, m_e, lam_d, lam_e)
        got0 = j_exact(poles, beta)
        want0 = quad_j(poles, beta)
        assert abs(got0 - want0) <= max(1e-8 * abs(want0), 5e-13)

        m_tilde = sum(rng.randint(0, 2) for _ in range(k))
        if m_tilde >= 1:
            got1 = j_exact(poles, beta, nu=m_tilde)
            want1 = quad_j(poles, beta, nu=m_tilde)
            assert abs(got1 - want1) <= max(1e-8 * abs(want1), 5e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_highsnr_family(self, seed):
        rng = random.Random(300 + seed)
        k = rng.randint(1, 3)
        l_vec = [rng.randint(1, 3) for _ in range(k)]
        m_hat = [rng.randint(0, 2) for _ in range(k)]
        m_e = rng.randint(1, 3)
        lam_e = rng.uniform(0.5, 4.0)
        lam_d = lam_e * rng.uniform(0.1, 100.0)
        poles = tuple_poles(l_vec, m_hat, m_e, lam_d, lam_e)
        got0 = j_ratio(poles)
        want0 = quad_j(poles)
        assert abs(got0 - want0) <= max(1e-8 * abs(want0), 5e-13)

        m_tilde = sum(m_hat)
        if m_tilde >= 1:
            got = j_ratio(poles, nu=m_tilde)
            want = quad_j(poles, nu=m_tilde)
            assert abs(got - want) <= max(1e-8 * abs(want), 5e-13)
