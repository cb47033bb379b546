"""Tests for the multi-index enumeration and aggregate bookkeeping."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrsel.errors import ComplexityBudgetError
from index_algebra import (
    aggregates_of,
    enumerate_X,
    enumerate_mnu,
    mnu_count,
    pos_to_sop_check,
    x_count,
)


def brute_force_mnu(l, m_max):
    """Direct nested loops over m in 0..m_max-1, n in 0..m, u in 0..m-n per slot."""
    singles = [
        (m, n, u)
        for m in range(m_max)
        for n in range(m + 1)
        for u in range(m - n + 1)
    ]
    for combo in itertools.product(singles, repeat=l):
        m = tuple(c[0] for c in combo)
        n = tuple(c[1] for c in combo)
        u = tuple(c[2] for c in combo)
        yield m, n, u


class TestEnumerateMnu:
    def test_minimal_case(self):
        assert list(enumerate_mnu(1, 1)) == [((0,), (0,), (0,))]

    def test_counts(self):
        assert len(list(enumerate_mnu(1, 2))) == 4
        assert len(list(enumerate_mnu(2, 2))) == 16

    def test_count_formula(self):
        # count = (Σ_{m=0}^{M_D-1} (m+1)(m+2)/2)^l
        for l in (1, 2, 3):
            for m_max in (1, 2, 3, 4):
                base = sum((m + 1) * (m + 2) // 2 for m in range(m_max))
                assert mnu_count(l, m_max) == base**l
                assert len(list(enumerate_mnu(l, m_max))) == base**l

    @pytest.mark.parametrize("l,m_max", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_matches_brute_force_and_is_sorted(self, l, m_max):
        got = list(enumerate_mnu(l, m_max))
        assert sorted(got) == sorted(brute_force_mnu(l, m_max))
        assert got == sorted(got)  # deterministic lexicographic order

    def test_determinism(self):
        assert list(enumerate_mnu(2, 3)) == list(enumerate_mnu(2, 3))


class TestEnumerateX:
    def test_minimal_case(self):
        count, stream = enumerate_X(1, 1, 1)
        tuples = list(stream)
        assert count == len(tuples) == 1
        t = tuples[0]
        assert t.l_vec == (1,)
        assert t.m == ((0,),) and t.n == ((0,),) and t.u == ((0,),)

    @pytest.mark.parametrize(
        "k,L,m_max,expected", [(1, 1, 1, 1), (1, 2, 2, 20), (2, 1, 2, 16)]
    )
    def test_counts(self, k, L, m_max, expected):
        count, stream = enumerate_X(k, L, m_max)
        assert count == expected
        assert len(list(stream)) == expected
        assert x_count(k, L, m_max) == expected

    def test_count_is_power_of_per_factor_total(self):
        for k in (1, 2):
            for L in (1, 2):
                for m_max in (1, 2, 3):
                    base = sum(mnu_count(l, m_max) for l in range(1, L + 1))
                    assert x_count(k, L, m_max) == base**k

    def test_constraints_hold_elementwise(self):
        _, stream = enumerate_X(2, 2, 3)
        for t in stream:
            assert len(t.l_vec) == 2
            for q, l in enumerate(t.l_vec):
                assert 1 <= l <= 2
                assert len(t.m[q]) == len(t.n[q]) == len(t.u[q]) == l
                for p in range(l):
                    assert 0 <= t.m[q][p] <= 2
                    assert 0 <= t.n[q][p] <= t.m[q][p]
                    assert 0 <= t.u[q][p] <= t.m[q][p] - t.n[q][p]

    def test_aggregates_match_recomputation(self):
        _, stream = enumerate_X(2, 2, 2)
        for t in stream:
            ag = aggregates_of(t.l_vec, t.m, t.n, t.u)
            assert ag == t.aggregates
            assert ag.l_tilde == sum(t.l_vec)
            assert ag.m_tilde == sum(sum(row) for row in t.m)
            assert ag.u_tilde == sum(sum(row) for row in t.u)
            assert ag.m_tilde == sum(ag.m_hat)
            for q in range(2):
                assert ag.m_hat[q] == sum(t.m[q])
                assert ag.n_hat[q] == sum(t.n[q])
                assert ag.u_hat[q] == sum(t.u[q])

    def test_determinism(self):
        _, s1 = enumerate_X(2, 2, 2)
        _, s2 = enumerate_X(2, 2, 2)
        assert list(s1) == list(s2)

    def test_single_destination_pair_count_scaling(self):
        # For L=1 the distinct (m, n) combinations per factor number
        # M_D(M_D+1)/2, so the k-factor product has that count to the k-th.
        for k in (1, 2):
            for m_max in (1, 2, 3):
                _, stream = enumerate_X(k, 1, m_max)
                pairs = {(t.m, t.n) for t in stream}
                assert len(pairs) == (m_max * (m_max + 1) // 2) ** k

    def test_budget_guard_names_offending_config(self):
        with pytest.raises(ComplexityBudgetError) as exc_info:
            enumerate_X(2, 3, 4, budget=100)
        err = exc_info.value
        assert (err.k, err.L, err.M_D) == (2, 3, 4)
        assert err.count == x_count(2, 3, 4)
        assert err.budget == 100
        for token in ("k=2", "L=3", "M_D=4"):
            assert token in str(err)

    def test_budget_default_admits_desk_scale(self):
        count, _ = enumerate_X(2, 3, 3)
        assert count == x_count(2, 3, 3)


class TestProductOfSumsIdentity:
    def test_single_entry_cube(self):
        c = 0.7183
        lhs, rhs = pos_to_sop_check(0, 3, {(0, 0, 0): c})
        assert lhs == pytest.approx(c**3, rel=1e-15)
        assert rhs == pytest.approx(c**3, rel=1e-15)

    @pytest.mark.parametrize("mu,zeta,seed", [(1, 2, 11), (2, 2, 12), (3, 3, 13)])
    def test_random_tables(self, mu, zeta, seed):
        import random

        rng = random.Random(seed)
        table = {
            (i, j, v): rng.uniform(-2.0, 2.0)
            for i in range(mu + 1)
            for j in range(i + 1)
            for v in range(i - j + 1)
        }
        lhs, rhs = pos_to_sop_check(mu, zeta, table)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(
        mu=st.integers(min_value=0, max_value=3),
        zeta=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_identity_property(self, mu, zeta, data):
        table = {}
        for i in range(mu + 1):
            for j in range(i + 1):
                for v in range(i - j + 1):
                    table[(i, j, v)] = data.draw(
                        st.floats(min_value=-1.5, max_value=1.5), label=f"f{i}{j}{v}"
                    )
        lhs, rhs = pos_to_sop_check(mu, zeta, table)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("k,L,m_max,seed", [(1, 2, 2, 3), (2, 1, 2, 4), (2, 2, 2, 5)])
    def test_four_sum_identity(self, k, L, m_max, seed):
        # (Σ_l Σ_{m,n,u vectors} Π_p g)^k  ==  Σ over the joint index set of
        # the per-(q,p) products; the inner vector sum collapses to a power.
        import random

        rng = random.Random(seed)
        g = {
            (l, m, n, u): rng.uniform(-1.2, 1.2)
            for l in range(1, L + 1)
            for m in range(m_max)
            for n in range(m + 1)
            for u in range(m - n + 1)
        }
        base = 0.0
        for l in range(1, L + 1):
            slot = sum(
                g[(l, m, n, u)]
                for m in range(m_max)
                for n in range(m + 1)
                for u in range(m - n + 1)
            )
            base += slot**l
        lhs = base**k

        rhs = 0.0
        _, stream = enumerate_X(k, L, m_max)
        for t in stream:
            prod = 1.0
            for q, l in enumerate(t.l_vec):
                for p in range(l):
                    prod *= g[(l, t.m[q][p], t.n[q][p], t.u[q][p])]
            rhs += prod
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
