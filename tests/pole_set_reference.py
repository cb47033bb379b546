"""The per-pole-set assembly of the OS sum: a reference for the tests.

``esrsel.esr_engine._terms`` decomposes the whole integrand once, one
truncated expansion per pole.  This module keeps an assembly that shares
only the weight tables with it: it walks every composition of k ≤ K
selected factors over the subset sizes (the multinomial expansion of the
K-th power), walks ``product`` over each group's row index n_g, convolves
the chosen rows into one weight table over ν, and calls one kernel per
(pole set, ν), with the single-pole integrals φ cached per composition.

Its weight tables are the library's own rows (row n̂ maps d̂ to a
coefficient), and the c-th power of V_l is ``_conv2``'s.

Below it, the index tuples behind the weight tables, walked literally: one
term per choice of (m, n, u) on every path of a subset member, keyed
(n̂, d̂), the power of a set of keyed terms as a walk over its key tuples
(the reference for ``_conv2``), ``flat`` to key a table's rows the same way,
and the normalisation sum Ξ.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

import mpmath as mp

from esrsel.channel_model import SystemConfig
from esrsel.esr_engine import _conv2, _v_tables
from esrsel.partial_fractions import (
    Factor,
    _GammaTable,
    _mag_ln,
    j0_exact_mp,
    j0_highsnr_mp,
    j1_highsnr_mp,
    pf_coefficients,
    single_pole_integral_mp,
)

# A pole set's kernel: ν ↦ (J value, log of its largest summand).
Kernel = Callable[[int], Tuple[mp.mpf, float]]


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(k: int, counts: Tuple[int, ...]) -> int:
    out = math.factorial(k)
    for c in counts:
        out //= math.factorial(c)
    return out


def _pole_groups(K: int, L: int) -> Iterator[Tuple[int, int, List[Tuple[int, int]]]]:
    """Walk the OS sum's compositions.

    For every power k ≤ K and every split ``comp`` of the k selected factors
    over the subset sizes l = 1..L, yield (k, signed integer weight
    (-1)^{k+1} C(K, k) multinomial(k; comp), active groups (l, c) with
    c > 0).  Each active group contributes one pole χ = λ_D/(l λ_E).
    """
    for k in range(1, K + 1):
        outer = (-1) ** (k + 1) * math.comb(K, k)
        for comp in _compositions(k, L):
            active = [(l, c) for l, c in zip(range(1, L + 1), comp) if c > 0]
            yield k, outer * _multinomial(k, comp), active


def _conv1(a: Dict[int, mp.mpf], b: Dict[int, mp.mpf]) -> Dict[int, mp.mpf]:
    out: Dict[int, mp.mpf] = {}
    for i, va in sorted(a.items()):
        for j, vb in sorted(b.items()):
            key = i + j
            out[key] = out.get(key, 0) + va * vb
    return out


def _exact_kernels(beta: mp.mpf, chis: List[mp.mpf]) -> Callable[[List[Tuple[mp.mpf, int]]], Kernel]:
    """Exact kernels of one composition: its pole sets, over the poles
    -``chis`` in that order, share β = l̃/λ_D, the incomplete-gamma tables and
    the single-pole integrals φ; several poles recombine φ through their
    partial-fraction coefficients."""
    zs = [beta * (1 + c) for c in chis]
    tables = {z: _GammaTable(z) for z in zs}
    phi_cache: Dict[Tuple[int, int, int], Tuple[mp.mpf, float]] = {}

    def phi(g: int, t: int, nu: int) -> Tuple[mp.mpf, float]:
        key = (g, t, nu)
        if key not in phi_cache:
            phi_cache[key] = single_pole_integral_mp(
                nu, t, beta, chis[g], tables[zs[g]]
            )
        return phi_cache[key]

    def at(poles: List[Tuple[mp.mpf, int]]) -> Kernel:
        bs = pf_coefficients(0, False, poles).poles if len(poles) > 1 else None

        def kernel(nu: int) -> Tuple[mp.mpf, float]:
            if nu == 0:
                return j0_exact_mp(poles, beta, tables)
            if bs is None:
                return phi(0, poles[0][1], nu)
            j_val = mp.mpf(0)
            j_peak = -math.inf
            for g, (_, t_g) in enumerate(poles):
                for t in range(1, t_g + 1):
                    b = bs[g][t - 1]
                    if b == 0:
                        continue
                    pv, pp = phi(g, t, nu)
                    j_val += b * pv
                    j_peak = max(j_peak, _mag_ln(b) + pp)
            return j_val, j_peak

        return kernel

    return at


def _ratio_kernels(asymptotic: bool) -> Callable[[List[Tuple[mp.mpf, int]]], Kernel]:
    """Ratio-form (β = 0) kernels, with the λ_D → ∞ substitutions when
    ``asymptotic``."""

    def at(poles: List[Tuple[mp.mpf, int]]) -> Kernel:
        def kernel(nu: int) -> Tuple[mp.mpf, float]:
            if nu == 0:
                return j0_highsnr_mp(poles, asymptotic)
            return j1_highsnr_mp(poles, nu, asymptotic)

        return kernel

    return at


def terms_per_pole_set(cfg: SystemConfig, form: str) -> Tuple[mp.mpf, int, float]:
    """The OS sum for ``form`` ∈ {"exact", "high_snr", "asymptotic"}, one
    kernel per (pole set, ν): (total, term count, log of the largest summand)."""
    exact = form == "exact"
    M_E = cfg.M_E
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    v_tabs = _v_tables(cfg, exact, lam_D, lam_E)
    u_cache: Dict[Tuple[int, int], Factor] = {}

    def u_rows(l: int, c: int) -> Factor:
        key = (l, c)
        if key not in u_cache:
            u_cache[key] = v_tabs[l - 1] if c == 1 else _conv2(u_cache[(l, c - 1)], v_tabs[l - 1])
        return u_cache[key]

    total = mp.mpf(0)
    n_terms = 0
    peak = -math.inf
    for _, weight0, active in _pole_groups(cfg.K, cfg.L):
        log_w0 = math.log(abs(weight0))
        chis = [lam_D / (l * lam_E) for l, _ in active]
        if exact:
            kernels = _exact_kernels(sum(l * c for l, c in active) / lam_D, chis)
        else:
            kernels = _ratio_kernels(form == "asymptotic")
        rows_per_group = [u_rows(l, c) for l, c in active]
        for n_vec in product(*[range(len(r)) for r in rows_per_group]):
            g_table = rows_per_group[0][n_vec[0]]
            for g in range(1, len(active)):
                g_table = _conv1(g_table, rows_per_group[g][n_vec[g]])
            kernel = kernels(
                [(chis[g], c * M_E + n_vec[g]) for g, (_, c) in enumerate(active)]
            )
            for nu in sorted(g_table):
                gv = g_table[nu]
                if gv == 0:
                    continue
                j_val, j_peak = kernel(nu)
                total += weight0 * gv * j_val
                n_terms += 1
                peak = max(peak, log_w0 + _mag_ln(gv) + j_peak)
    ln2 = mp.log(2)
    return total / ln2, n_terms, peak - float(mp.log(ln2))


# ---------------------------------------------------------------------------
# literal index tuples

Key = Tuple[int, int]


def member_terms(cfg: SystemConfig, l: int) -> Iterator[Tuple[Key, mp.mpf]]:
    """A subset member of size l, one term per choice of (m_p, n_p, u_p),
    0 ≤ m_p < M_D, n_p ≤ m_p, u_p ≤ m_p − n_p, on each of its l paths: the
    key (n̂, m̂ − û), i.e. the pole order M_E + n̂ and the power of x, and the
    exact form's coefficient, from first principles."""
    M_E = cfg.M_E
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    atoms = [(m, n, u) for m in range(cfg.M_D) for n in range(m + 1) for u in range(m - n + 1)]
    head = (-1) ** (l + 1) * math.comb(cfg.L, l) * mp.exp(l / lam_D) / lam_E**M_E
    for paths in product(atoms, repeat=l):
        m_hat, n_hat, u_hat = (sum(col) for col in zip(*paths))
        coef = head * math.prod(range(M_E, M_E + n_hat)) * lam_D ** (M_E + n_hat - m_hat) / mp.mpf(l) ** (M_E + n_hat)
        for m, n, u in paths:
            coef *= mp.mpf((-1) ** u) / (math.factorial(n) * math.factorial(u) * math.factorial(m - n - u))
        yield (n_hat, m_hat - u_hat), coef


def tuple_poles(l_vec: List[int], n_hat: List[int], M_E: int, lam_D: float, lam_E: float) -> List[Tuple[float, int]]:
    """The poles of one index tuple's tail integral, one per distinct subset
    size l, in increasing l: (λ_D/(l λ_E), Σ over its members of M_E + n̂)."""
    orders: Dict[int, int] = {}
    for l, n in zip(l_vec, n_hat):
        orders[l] = orders.get(l, 0) + M_E + n
    return [(lam_D / (l * lam_E), T) for l, T in sorted(orders.items())]


def literal_power(items: Iterable[Tuple[Key, mp.mpf]], k: int) -> Dict[Key, mp.mpf]:
    """(Σ items)^k grouped by key, walked over every k-tuple of the
    (key, value) pairs ``items`` (keys may repeat): each tuple adds the
    product of its values under the sum of its keys."""
    items = list(items)
    out: Dict[Key, mp.mpf] = {}
    for combo in product(items, repeat=k):
        key = tuple(map(sum, zip(*(key for key, _ in combo))))
        out[key] = out.get(key, 0) + mp.fprod(v for _, v in combo)
    return out


def flat(rows: Factor) -> Dict[Key, mp.mpf]:
    """A table's rows keyed (n̂, d̂), as ``member_terms`` and ``literal_power``
    key them."""
    return {(n, d): v for n, row in enumerate(rows) for d, v in row.items()}


def xi(m_hat: int, k: int, M_E: int) -> float:
    """The normalisation sum Ξ(m̂, k·M_E) = Σ_{v<m̂} (−1)^{m̂−v−1}
    Π_{u≠v} (k·M_E + m̂ − u − 1) / (v! (m̂ − v − 1)!), which is 1, summed in
    exact rationals."""
    t = k * M_E
    total = Fraction(0)
    for v in range(m_hat):
        num = math.prod(t + m_hat - u - 1 for u in range(m_hat) if u != v)
        total += (-1) ** (m_hat - v - 1) * Fraction(num, math.factorial(v) * math.factorial(m_hat - v - 1))
    return float(total)
