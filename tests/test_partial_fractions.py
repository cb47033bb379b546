"""Tests for pole grouping, partial-fraction coefficients, and the
exponential/rational tail integrals they feed.

Frozen constants are adaptive-quadrature values of the defining integrals,
committed before the closed forms were written.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from esrsel.errors import ContractError
from index_algebra import AggregateSums, aggregates_of
from partial_fractions_float import (
    eval_J0_exact,
    eval_J0_highsnr,
    eval_J1_exact,
    eval_J1_highsnr,
    eval_J_asymptotic,
    expand,
    group_poles,
)
from special_functions import upper_incomplete_gamma

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


def recombine(expansion, x):
    val = (expansion.a_coeff or 0.0) / x
    for loc, t, coeff in expansion.terms:
        val += coeff / (x + loc) ** t
    return val


def recombine_term_scale(expansion, x):
    """Largest term magnitude in the recombined sum at x.

    Partial fractions cancel heavily at large x (the sum decays much faster
    than any single term), so error budgets must be relative to this scale,
    not to the final value.
    """
    mags = [abs(expansion.a_coeff or 0.0) / x]
    mags += [abs(coeff) / (x + loc) ** t for loc, t, coeff in expansion.terms]
    return max(mags)


def rational(structure, x):
    val = 1.0 / x if structure.has_origin_pole else 1.0
    for pole in structure.poles:
        val /= (x + pole.location) ** pole.total_multiplicity
    return val


def quad_j0_exact(structure, l_tilde, lambda_d):
    beta = l_tilde / lambda_d
    f = lambda x: math.exp(-beta * x) * rational(structure, x)
    val, _ = quad(f, 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


def quad_j1_exact(structure, ag, lambda_d):
    beta = ag.l_tilde / lambda_d
    nu = ag.m_tilde - ag.u_tilde
    f = lambda x: x ** (nu - 1) * math.exp(-beta * x) * rational(structure, x)
    val, _ = quad(f, 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


def quad_j0_highsnr(structure):
    val, _ = quad(lambda x: rational(structure, x), 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


def quad_j1_highsnr(structure, ag):
    f = lambda x: x ** (ag.m_tilde - 1) * rational(structure, x)
    val, _ = quad(f, 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


class TestGroupPoles:
    def test_single_factor(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, True)
        assert len(s.poles) == 1
        assert s.poles[0].location == 1.0
        assert s.poles[0].total_multiplicity == 1
        assert s.singleton_indices == (0,)
        assert s.repeated_groups == ()
        assert s.has_origin_pole

    def test_repeated_group_merges_multiplicity(self):
        s = group_poles([2, 2], [0, 1], 1, 1.0, 1.0, False)
        assert len(s.poles) == 1
        assert s.poles[0].location == 0.5  # λ_D / (2 λ_E)
        assert s.poles[0].total_multiplicity == 3  # (1+0) + (1+1)
        assert s.repeated_groups == ((0, 1),)
        assert s.singleton_indices == ()
        assert not s.has_origin_pole

    def test_distinct_factors_stay_singletons(self):
        s = group_poles([1, 2], [0, 0], 2, 1.0, 1.0, False)
        locs = sorted(p.location for p in s.poles)
        assert locs == [0.5, 1.0]
        assert all(p.total_multiplicity == 2 for p in s.poles)
        assert s.singleton_indices == (0, 1)

    def test_grouping_is_by_integer_l_not_float_location(self):
        # Same l twice must merge even if other params would make locations
        # float-equal by accident for different l.
        s = group_poles([3, 3, 1], [0, 0, 0], 1, 6.0, 2.0, False)
        by_l = {p.group_l: p for p in s.poles}
        assert by_l[3].total_multiplicity == 2
        assert by_l[1].total_multiplicity == 1


class TestExpand:
    def test_origin_times_single_pole(self):
        e = expand(group_poles([1], [0], 1, 2.0, 1.0, True))  # 1/(x(x+2))
        assert e.a_coeff == pytest.approx(0.5, rel=1e-14)
        assert dict(((loc, t), c) for loc, t, c in e.terms) == {
            (2.0, 1): pytest.approx(-0.5, rel=1e-14)
        }

    def test_origin_times_double_pole(self):
        e = expand(group_poles([1], [1], 1, 1.0, 1.0, True))  # 1/(x(x+1)^2)
        coeffs = dict(((loc, t), c) for loc, t, c in e.terms)
        assert e.a_coeff == pytest.approx(1.0, rel=1e-14)
        assert coeffs[(1.0, 1)] == pytest.approx(-1.0, rel=1e-14)
        assert coeffs[(1.0, 2)] == pytest.approx(-1.0, rel=1e-14)
        for x in (1.0, 2.0, 3.7):
            assert rel_err(recombine(e, x), 1.0 / (x * (x + 1) ** 2)) < 1e-12

    def test_two_simple_poles(self):
        e = expand(group_poles([1, 3], [0, 0], 1, 3.0, 1.0, False))  # 1/((x+3)(x+1))
        assert e.a_coeff is None
        coeffs = dict(((loc, t), c) for loc, t, c in e.terms)
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
        structure = group_poles(l_vec, n_hat, m_e, lam_d, lam_e, with_origin)
        e = expand(structure)
        xs = np.linspace(1.5, 50.0, 32)
        for x in xs:
            want = rational(structure, x)
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
        structure = group_poles(l_vec, n_hat, 1, rng.uniform(1, 20), 1.0, True)
        degree = 1 + sum(p.total_multiplicity for p in structure.poles)
        assert degree >= 2
        e = expand(structure)
        total = (e.a_coeff or 0.0) + sum(c for _, t, c in e.terms if t == 1)
        scale = max([1.0] + [abs(c) for _, _, c in e.terms])
        assert abs(total) <= 1e-9 * scale


class TestJ0Exact:
    def test_single_pole_frozen_value_and_identity(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, True)
        got = eval_J0_exact(s, 1, 1.0)
        assert rel_err(got, J0_EXACT_SINGLE) < 1e-10
        # Independent closed form by partial fractions:
        want = upper_incomplete_gamma(0, 1.0) - math.e * upper_incomplete_gamma(0, 2.0)
        assert rel_err(got, want) < 1e-11

    def test_two_distinct_poles_frozen_value(self):
        s = group_poles([1, 2], [0, 0], 1, 2.0, 1.0, True)
        got = eval_J0_exact(s, 3, 2.0)
        assert rel_err(got, J0_EXACT_TWO_POLE) < 1e-9
        assert rel_err(got, quad_j0_exact(s, 3, 2.0)) < 1e-9

    def test_large_snr_sanity_against_quadrature(self):
        s = group_poles([1], [0], 1, 1e4, 1.0, True)
        got = eval_J0_exact(s, 1, 1e4)
        with mp.workdps(30):
            want = float(
                mp.quad(
                    lambda x: mp.e ** (-x / 1e4) / (x * (x + 1e4)), [1, 1e4, mp.inf]
                )
            )
        assert rel_err(got, want) < 1e-8

    def test_requires_origin_pole(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, False)
        with pytest.raises(ContractError):
            eval_J0_exact(s, 1, 1.0)


class TestJ1Exact:
    def test_single_pole_frozen_value_and_identity(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, False)
        ag = AggregateSums(
            l_tilde=1, m_tilde=1, u_tilde=0, m_hat=(1,), n_hat=(0,), u_hat=(0,)
        )
        got = eval_J1_exact(s, ag, 1.0, 1.0)
        assert rel_err(got, J1_EXACT_SINGLE) < 1e-10
        want = math.e * upper_incomplete_gamma(0, 2.0)
        assert rel_err(got, want) < 1e-11

    def test_equal_l_path_matches_quadrature(self):
        s = group_poles([1, 1], [0, 0], 1, 1.0, 1.0, False)
        ag = AggregateSums(
            l_tilde=2, m_tilde=1, u_tilde=0, m_hat=(1, 0), n_hat=(0, 0), u_hat=(0, 0)
        )
        got = eval_J1_exact(s, ag, 1.0, 1.0)
        assert rel_err(got, quad_j1_exact(s, ag, 1.0)) < 1e-9

    def test_distinct_l_path_matches_quadrature(self):
        s = group_poles([1, 2], [0, 0], 1, 1.0, 1.0, False)
        ag = AggregateSums(
            l_tilde=3, m_tilde=2, u_tilde=0, m_hat=(1, 1), n_hat=(0, 0), u_hat=(0, 0)
        )
        got = eval_J1_exact(s, ag, 1.0, 1.0)
        assert rel_err(got, quad_j1_exact(s, ag, 1.0)) < 1e-9

    def test_zero_power_is_rejected(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, False)
        ag = aggregates_of((1,), ((0,),), ((0,),), ((0,),))  # m̃ - ũ = 0
        with pytest.raises(ContractError):
            eval_J1_exact(s, ag, 1.0, 1.0)

    def test_origin_structure_is_rejected(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, True)
        ag = AggregateSums(
            l_tilde=1, m_tilde=1, u_tilde=0, m_hat=(1,), n_hat=(0,), u_hat=(0,)
        )
        with pytest.raises(ContractError):
            eval_J1_exact(s, ag, 1.0, 1.0)


class TestJ0HighSnr:
    def test_single_pole_log_value(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, True)  # ∫ dx/(x(x+1)) = ln 2
        assert rel_err(eval_J0_highsnr(s), math.log(2.0)) < 1e-12

    def test_two_distinct_poles_frozen_value(self):
        s = group_poles([1, 2], [0, 0], 1, 2.0, 1.0, True)  # ∫ dx/(x(x+2)(x+1))
        got = eval_J0_highsnr(s)
        assert rel_err(got, J0_HS_TWO_POLE) < 1e-9
        assert rel_err(got, quad_j0_highsnr(s)) < 1e-9

    def test_near_origin_pole_guard(self):
        s = group_poles([1], [0], 1, 1e-8, 1.0, True)  # c = 1e-8
        got = eval_J0_highsnr(s)
        want, _ = quad(lambda x: 1.0 / (x * (x + 1e-8)), 1.0, np.inf, limit=400)
        assert rel_err(got, want) < 1e-6

    def test_repeated_pole_matches_quadrature(self):
        s = group_poles([2, 2], [0, 1], 1, 1.0, 1.0, True)  # 1/(x (x+0.5)^3)
        assert rel_err(eval_J0_highsnr(s), quad_j0_highsnr(s)) < 1e-9


class TestJ1HighSnr:
    def test_double_pole_half(self):
        s = group_poles([1], [1], 1, 1.0, 1.0, False)  # (x+1)^2
        ag = AggregateSums(
            l_tilde=1, m_tilde=1, u_tilde=0, m_hat=(1,), n_hat=(1,), u_hat=(0,)
        )
        assert rel_err(eval_J1_highsnr(s, ag), 0.5) < 1e-12

    def test_triple_pole_eighth(self):
        s = group_poles([1], [1], 2, 1.0, 1.0, False)  # (x+1)^3
        ag = AggregateSums(
            l_tilde=1, m_tilde=1, u_tilde=0, m_hat=(1,), n_hat=(1,), u_hat=(0,)
        )
        got = eval_J1_highsnr(s, ag)
        assert rel_err(got, 0.125) < 1e-12
        assert rel_err(got, quad_j1_highsnr(s, ag)) < 1e-9

    def test_two_distinct_poles(self):
        s = group_poles([1, 2], [0, 0], 1, 2.0, 1.0, False)  # (x+2)(x+1)
        ag = AggregateSums(
            l_tilde=3, m_tilde=1, u_tilde=0, m_hat=(1, 0), n_hat=(0, 0), u_hat=(0, 0)
        )
        got = eval_J1_highsnr(s, ag)
        assert rel_err(got, math.log(1.5)) < 1e-10
        assert rel_err(got, quad_j1_highsnr(s, ag)) < 1e-9


class TestAsymptotic:
    def test_origin_form_approaches_highsnr_at_large_ratio(self):
        s = group_poles([1], [0], 1, 1e6, 1.0, True)
        ag = aggregates_of((1,), ((0,),), ((0,),), ((0,),))
        hs = eval_J0_highsnr(s)
        asym = eval_J_asymptotic(s, ag, 1e6, 1.0)
        assert rel_err(asym, hs) < 2e-6

    def test_tail_form_approaches_highsnr_at_large_ratio(self):
        s = group_poles([1, 1], [0, 0], 1, 1e6, 1.0, False)
        ag = AggregateSums(
            l_tilde=2, m_tilde=1, u_tilde=0, m_hat=(1, 0), n_hat=(0, 0), u_hat=(0, 0)
        )
        hs = eval_J1_highsnr(s, ag)
        asym = eval_J_asymptotic(s, ag, 1e6, 1.0)
        assert rel_err(asym, hs) < 2e-6

    def test_substitution_matters_at_unit_ratio(self):
        s = group_poles([1], [0], 1, 1.0, 1.0, True)
        ag = aggregates_of((1,), ((0,),), ((0,),), ((0,),))
        hs = eval_J0_highsnr(s)
        asym = eval_J_asymptotic(s, ag, 1.0, 1.0)
        assert abs(hs - asym) > 0.1


class TestStructureSymmetry:
    def test_permuting_factors_changes_nothing(self):
        variants = [
            ([1, 2, 2], [1, 0, 2]),
            ([2, 1, 2], [0, 1, 2]),
            ([2, 2, 1], [2, 0, 1]),
        ]
        structures = [
            group_poles(lv, nh, 2, 3.0, 1.5, True) for lv, nh in variants
        ]
        # The pole multiset and origin flag are permutation invariants; the
        # index bookkeeping (repeated_groups, singleton_indices) refers to
        # input positions and is allowed to permute along with them.
        assert structures[0].poles == structures[1].poles == structures[2].poles
        assert (
            structures[0].has_origin_pole
            == structures[1].has_origin_pole
            == structures[2].has_origin_pole
        )
        vals = [eval_J0_exact(s, 5, 3.0) for s in structures]
        assert vals[0] == vals[1] == vals[2]


class TestQuadratureEquivalence:
    """Randomized spot checks of every evaluator against direct quadrature."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_family(self, seed):
        rng = random.Random(200 + seed)
        k = rng.randint(1, 3)
        l_vec = [rng.randint(1, 3) for _ in range(k)]
        n_hat = [rng.randint(0, 2) for _ in range(k)]
        m_e = rng.randint(1, 3)
        lam_e = rng.uniform(0.5, 4.0)
        lam_d = lam_e * rng.uniform(0.1, 100.0)
        l_tilde = sum(l_vec)
        s0 = group_poles(l_vec, n_hat, m_e, lam_d, lam_e, True)
        got0 = eval_J0_exact(s0, l_tilde, lam_d)
        want0 = quad_j0_exact(s0, l_tilde, lam_d)
        assert abs(got0 - want0) <= max(1e-8 * abs(want0), 5e-13)

        s1 = group_poles(l_vec, n_hat, m_e, lam_d, lam_e, False)
        m_hat = tuple(rng.randint(0, 2) for _ in range(k))
        u_hat = tuple(0 for _ in range(k))
        m_tilde = sum(m_hat)
        if m_tilde >= 1:
            ag = AggregateSums(
                l_tilde=l_tilde,
                m_tilde=m_tilde,
                u_tilde=0,
                m_hat=m_hat,
                n_hat=tuple(n_hat),
                u_hat=u_hat,
            )
            got1 = eval_J1_exact(s1, ag, lam_d, lam_e)
            want1 = quad_j1_exact(s1, ag, lam_d)
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
        s0 = group_poles(l_vec, m_hat, m_e, lam_d, lam_e, True)
        got0 = eval_J0_highsnr(s0)
        want0 = quad_j0_highsnr(s0)
        assert abs(got0 - want0) <= max(1e-8 * abs(want0), 5e-13)

        m_tilde = sum(m_hat)
        if m_tilde >= 1:
            s1 = group_poles(l_vec, m_hat, m_e, lam_d, lam_e, False)
            ag = AggregateSums(
                l_tilde=sum(l_vec),
                m_tilde=m_tilde,
                u_tilde=0,
                m_hat=tuple(m_hat),
                n_hat=tuple(m_hat),
                u_hat=tuple(0 for _ in range(k)),
            )
            got = eval_J1_highsnr(s1, ag)
            want = quad_j1_highsnr(s1, ag)
            assert abs(got - want) <= max(1e-8 * abs(want), 5e-13)
