"""The product-of-sums re-summation as the library runs it.

The exact closed forms raise sums over (m, n, u) index triples to powers.
``esr_engine._conv2`` collapses each power into one table of rows over the
hat sums; here every power it forms is compared entry by entry (through
``flat``) with a literal walk over the key tuples, and its total with the
power of the sum.  A triple (i, j, v) goes to row j, entry i − v, as the
weight tables place it: the pole order's n and the power of x.
"""

import functools
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrsel.esr_engine import _conv2
from pole_set_reference import flat, literal_power


def triples(mu):
    return [(i, j, v) for i in range(mu + 1) for j in range(i + 1) for v in range(i - j + 1)]


def keyed(table):
    """(key, value) pairs of a table over (i, j, v) triples."""
    return [((j, i - v), mp.mpf(x)) for (i, j, v), x in table.items()]


def conv_power(items, zeta):
    """The ζ-th ``_conv2`` power of the rows that sum ``items`` by key."""
    table = [{} for _ in range(max(n for (n, _), _ in items) + 1)]
    for (n, d), x in items:
        table[n][d] = table[n].get(d, 0) + x
    return functools.reduce(_conv2, [table] * zeta)


def check_power(rows, want, lhs):
    """A ``_conv2`` power's ``rows`` against the literal walk ``want``, entry
    by entry, and its total against the power of the sum ``lhs``."""
    got = flat(rows)
    assert set(got) == set(want)
    for key, w in want.items():
        assert abs(got[key] - w) <= 1e-12 * max(1.0, abs(lhs)), key
    assert abs(mp.fsum(got.values()) - lhs) <= 1e-12 * max(1.0, abs(lhs))


def check_table_power(table, zeta):
    items = keyed(table)
    check_power(conv_power(items, zeta), literal_power(items, zeta), mp.fsum(x for _, x in items) ** zeta)


class TestProductOfSumsIdentity:
    def test_single_entry_cube(self):
        c = 0.7183
        got = flat(conv_power([((0, 0), c)], 3))
        assert list(got) == [(0, 0)]
        assert got[(0, 0)] == pytest.approx(c**3, rel=1e-15)

    @pytest.mark.parametrize("mu,zeta,seed", [(1, 2, 11), (2, 2, 12), (3, 3, 13)])
    def test_random_tables(self, mu, zeta, seed):
        rng = random.Random(seed)
        table = {t: rng.uniform(-2.0, 2.0) for t in triples(mu)}
        with mp.workdps(30):
            check_table_power(table, zeta)

    @given(
        mu=st.integers(min_value=0, max_value=3),
        zeta=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_identity_property(self, mu, zeta, data):
        table = {}
        for i, j, v in triples(mu):
            table[(i, j, v)] = data.draw(
                st.floats(min_value=-1.5, max_value=1.5), label=f"f{i}{j}{v}"
            )
        with mp.workdps(30):
            check_table_power(table, zeta)

    @pytest.mark.parametrize("k,L,m_max,seed", [(1, 2, 2, 3), (2, 1, 2, 4), (2, 2, 2, 5)])
    def test_four_sum_identity(self, k, L, m_max, seed):
        # (Σ_l (Σ_{m,n,u} g_l)^l)^k: each subset size's member table is the
        # l-th power of its atoms, and their sum is raised to the k-th.
        rng = random.Random(seed)
        g = {
            (l, m, n, u): rng.uniform(-1.2, 1.2)
            for l in range(1, L + 1)
            for m in range(m_max)
            for n in range(m + 1)
            for u in range(m - n + 1)
        }
        with mp.workdps(30):
            atoms = {
                l: [((n, m - u), mp.mpf(x)) for (l_, m, n, u), x in g.items() if l_ == l]
                for l in range(1, L + 1)
            }
            base = mp.fsum(mp.fsum(x for _, x in atoms[l]) ** l for l in atoms)
            members = [kv for l in atoms for kv in flat(conv_power(atoms[l], l)).items()]
            literal = [kv for l in atoms for kv in literal_power(atoms[l], l).items()]
            check_power(conv_power(members, k), literal_power(literal, k), base**k)
