"""Ergodic secrecy rate closed forms for both selection schemes.

The ESR of the selected pair is C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx with F
the CDF of the post-selection SNR ratio.  For optimal selection (OS),
1 - F = 1 - (1 - Q)^K with Q = Σ_l z^l V_l(x): V_l is the member table of
subset size l, with one pole at -χ_l = -λ_D/(l λ_E), and z = e^{-x/λ_D}.
The tables collapse the enumerated index sums into convolution powers of
per-branch atoms (Vandermonde identities), at polynomial cost.  Each is
built directly in the format ``pf_selection`` reads, a list of rows
(``partial_fractions.Factor``): row n̂, of pole order M_E + n̂, maps d̂ to
the coefficient of x^d̂.

There is one entry point, ``_terms``, with two closings.  With one
transmitter (K = 1: OS(1, L), and every SS row, since SS(K, L) is
evaluated as OS(1, K·L)) the eavesdropper SNR is independent of the
selected destination SNR, and the ESR is one integral over the destination
SNR, closed term by term against incomplete-gamma moments
(``_one_transmitter_terms``); no weight table or partial fraction is built.
That closing carries its intermediates as libmp values (the raw tuples of
``mpmath.libmp``), not mpf objects: each step is the libmp call the mpf
operator makes, in the same order, at the context's precision and rounding,
so the results are those of mpf arithmetic bit for bit, without the
wrapper's per-operation cost.  For K ≥ 2, one ``pf_selection`` call
decomposes the whole integrand built from the tables, one truncated
expansion per pole, grade by grade in z, and each grade l̃ closes at
β = l̃/λ_D; its ratio form (high-SNR and asymptotic) is the exact form at
β = 0 and closes with logs.
``asymptote_line`` reads its offset off one asymptotic value.

All assembly runs in mpmath at an adaptively chosen precision — the signed
sums cancel catastrophically in float64 for the larger configurations.  The
estimate is checked a posteriori against the peak, an envelope of every
signed sum, and the evaluation reruns at higher precision when the headroom
is too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import mpmath as mp
from mpmath.libmp import fone, from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_rdiv_int, mpf_sub

from .channel_model import SystemConfig, _index
from .errors import CancellationError, ComplexityBudgetError, DomainError
from .partial_fractions import (
    _DPS_BASE,
    _DPS_MARGIN,
    _MAX_DPS,
    Factor,
    Terms,
    _close_exact,
    _descent_digits,
    _dot,
    _GammaTable,
    _ln,
    _log_rational_assembly,
    _mag_ln,
    pf_selection,
    required_dps,
)

# Not called here; imported only so that bench/tracer.py's BOUNDARIES resolve.
from .partial_fractions import j0_exact_mp, j0_highsnr_mp, j1_highsnr_mp, pf_coefficients, single_pole_integral_mp  # noqa: F401

__all__ = [
    "EsrResult",
    "AsymptoticLine",
    "esr_os_exact",
    "esr_ss_exact",
    "esr_os_highsnr",
    "esr_ss_highsnr",
    "esr_asymptotic",
    "asymptote_line",
    "DEFAULT_BUDGET",
]

# Largest work estimate (``_work``) that a closed-form evaluation may start
# with.
DEFAULT_BUDGET = 10**8
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class EsrResult:
    """One ESR evaluation.

    ``max_log_term`` is the natural log of a bound on the absolute values
    summed on the way to the value — comparing it against log(value) bounds
    how many digits the signed sums cancelled.  ``below_zero`` marks
    high-SNR/asymptotic formula values that dip below zero at low SNR (the
    exact ESR cannot).
    """

    value: float
    scheme: str
    method: str
    term_count: int
    max_log_term: float
    below_zero: bool = False


@dataclass(frozen=True)
class AsymptoticLine:
    """C ≈ slope · (log2 λ_D − offset) as λ_D → ∞, offset in log2-λ units."""

    slope: float
    offset: float


def _norm_scheme(scheme: str) -> str:
    s = str(scheme).upper()
    if s not in ("OS", "SS"):
        raise DomainError(f"unknown scheme {scheme!r}; expected 'OS' or 'SS'")
    return s


# ---------------------------------------------------------------------------
# weight tables (all built inside an mp working-precision context)


def _conv2(a: Factor, b: Factor) -> Factor:
    """The product of two tables of rows (row n̂ maps d̂ to the coefficient
    of y^n̂ x^d̂): rows add their n̂, entries add their d̂."""
    out: List[Dict[int, mp.mpf]] = [{} for _ in range(len(a) + len(b) - 1)]
    for n1, row1 in enumerate(a):
        for d1, va in sorted(row1.items()):
            for n2, row2 in enumerate(b):
                row = out[n1 + n2]
                for d2, vb in sorted(row2.items()):
                    row[d1 + d2] = row.get(d1 + d2, 0) + va * vb
    return out


def _w1_table(M_D: int, lam_D: mp.mpf) -> Factor:
    """Per-branch atoms as rows: row n maps d to the coefficient of y^n x^d
    after expanding (x(1+y)-1)^m / (λ_D^m m!) over 0 ≤ m < M_D."""
    out: List[Dict[int, mp.mpf]] = []
    for n in range(M_D):
        row = {}
        for d in range(n, M_D):
            acc = mp.mpf(0)
            for m in range(d, M_D):
                acc += (
                    (-1) ** (m - d)
                    * math.comb(m, n)
                    * math.comb(m - n, m - d)
                    * mp.power(lam_D, n - m)
                    / math.factorial(m)
                )
            row[d] = acc
        out.append(row)
    return out


def _v_tables(cfg: SystemConfig, exact: bool, lam_D: mp.mpf, lam_E: mp.mpf) -> List[Factor]:
    """Member tables [V_1, …, V_L], V_l the rows ``pf_selection`` reads over
    the pole −λ_D/(l λ_E): row n̂, of pole order M_E + n̂, maps d̂ to the
    coefficient of x^d̂.  V_l is the l-th ``_conv2`` power of the atoms, so
    it has l·(M_D − 1) + 1 rows, and each row is scaled once.  ``_terms``
    builds them for OS with K ≥ 2 only; K = 1 needs no table.

    The ratio form is the exact form at β = 0: its argument x·y is
    x(1+y) − 1 without the x − 1 part, so its atoms y^m x^m / m! sit on the
    diagonal d̂ = n̂.  The x − 1 part is also what gives e^{-βx} and the
    e^{l/λ_D} factor, so both drop out.
    """
    L, M_E = cfg.L, cfg.M_E
    if exact:
        w1 = _w1_table(cfg.M_D, lam_D)
    else:
        w1 = [{m: mp.mpf(1) / math.factorial(m)} for m in range(cfg.M_D)]
    lamd_me = mp.power(lam_D, M_E)
    lame_me = mp.power(lam_E, M_E)
    out = []
    wl = None
    for l in range(1, L + 1):
        wl = w1 if wl is None else _conv2(wl, w1)
        sign_binom = (-1) ** (l + 1) * math.comb(L, l)
        e_l = mp.exp(mp.mpf(l) / lam_D) if exact else None
        tab = []
        for n, row in enumerate(wl):
            s = sign_binom * lamd_me * math.perm(M_E + n - 1, n)
            if exact:
                s *= e_l
            scale = s / (lame_me * mp.power(mp.mpf(l), M_E + n))
            tab.append({d: scale * v for d, v in sorted(row.items())})
        out.append(tab)
    return out


# ---------------------------------------------------------------------------
# one transmitter: a one-dimensional closing


def _ln_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


def _powers(x: tuple, n: int, prec: int, rnd: str) -> List[tuple]:
    """[1, x, …, x^{n-1}] of a libmp value, by the products ``_pow_list``
    forms."""
    out = [fone]
    for _ in range(n - 1):
        out.append(mpf_mul(out[-1], x, prec, rnd))
    return out


def _moments(beta: tuple, n: int, exact: bool) -> Tuple[List[tuple], List[float]]:
    """J_k = I_k(β)/k! for k < n, with their envelopes, as libmp values at
    the working precision; β is a libmp value too.

    In the exact form I_k(β) = ∫_0^∞ y^k e^{-βy} dy/(1+y) = k! e^β Γ(-k, β),
    and J_k = (β^{-k} − J_{k-1})/k from J_0 = e^β E1(β): the downward
    Γ(-k, β) fill, scaled.  Each step is a signed sum, and its envelope adds
    the two magnitudes, so it carries the fill's losses.  In the ratio form
    I_k(β) = ∫_0^∞ y^{k-1} e^{-βy} dy = (k-1)!/β^k for k ≥ 1, and J_0 is 0:
    the two k = 0 terms pair into a log.

    Every step is the libmp call the mpf operator would make (``1/β`` is
    ``mpf_rdiv_int``, ``x − y`` is ``mpf_sub``, ``x/k`` is ``mpf_div`` by
    ``from_int(k)``), so the values are those of an mpf-object fill, bit
    for bit.  Only e^β and E1(β) are mpf calls.
    """
    prec, rnd = mp.mp._prec_rounding
    inv = _powers(mpf_rdiv_int(1, beta, prec, rnd), n, prec, rnd)
    if not exact:
        js = [fzero] + [mpf_div(inv[k], from_int(k), prec, rnd) for k in range(1, n)]
        return js, [_mag_ln(j) for j in js]
    b = mp.mp.make_mpf(beta)
    js = [mpf_mul(mp.exp(b)._mpf_, mp.e1(b)._mpf_, prec, rnd)]
    envs = [_mag_ln(js[0])]
    ln_inv = -_ln(b)
    for k in range(1, n):
        js.append(mpf_div(mpf_sub(inv[k], js[-1], prec, rnd), from_int(k), prec, rnd))
        envs.append(_ln_add(k * ln_inv, envs[-1]) - math.log(k))
    return js, envs


def _one_transmitter_terms(cfg: SystemConfig, form: str) -> Tuple[mp.mpf, int, float]:
    """``_terms`` for K = 1, in one dimension.

    With one transmitter, Y = max_l γ_D^{(l)} and Z = γ_E are independent,
    so C = (1/ln 2) ∫_0^∞ F_E(y)(1 − F_Y(y)) dy/(1+y), with dy/y in the
    ratio form.  With β_l = l/λ_D, q_l = e_{M_D−1}(y/λ_D)^l and
    r = e_{M_E−1}(y/λ_E), e_n(s) = Σ_{m≤n} s^m/m!, 1 − F_Y is
    Σ_l (−1)^{l+1} C(L, l) q_l e^{−β_l y} and F_E = 1 − r e^{−y/λ_E}.  So
    each l closes q_l at β_l and q_l·r at β_l + 1/λ_E against ``_moments``.
    In the ratio form the two k = 0 terms pair into ln(1 + c_l), with
    c_l = λ_D/(l λ_E) (Frullani); the asymptotic form takes ln c_l and, for
    the q_l·r sum, its λ_D → ∞ limit H_{M_E−1} = Σ_{k<M_E} 1/k.

    Each polynomial is kept as k!·(coefficient of y^k), the powers of
    e_{M_D−1} in exact integers.  Every closing sum is a ``_dot``, and each
    term's envelope carries those of its factors, the Γ fill's included.

    The intermediates are libmp values, not mpf objects: each is the
    ``mpf_mul``, ``mpf_mul_int``, ``mpf_add``, ``mpf_sub``, ``mpf_div`` or
    ``mpf_rdiv_int`` call the mpf operator would make, in the same order, at
    the context's precision and rounding, so every value, term count and
    envelope is what mpf arithmetic gives, bit for bit, without the
    wrapper's cost.  mpf objects remain for λ_D and λ_E, the arguments and
    results of ``mp.exp``, ``mp.e1``, ``mp.log`` and ``mp.log1p``, the sums
    ``_dot`` returns and the total.
    """
    exact, asymptotic = form == "exact", form == "asymptotic"
    L, M_D, M_E = cfg.L, cfg.M_D, cfg.M_E
    prec, rnd = mp.mp._prec_rounding
    lam_D, lam_E = mp.mpf(cfg.lambda_D)._mpf_, mp.mpf(cfg.lambda_E)._mpf_
    u, v = mpf_rdiv_int(1, lam_D, prec, rnd), mpf_rdiv_int(1, lam_E, prec, rnd)
    # uv[j][i] = u^j v^i, and ln C(j+i, i): shared by every l.
    v_pows = _powers(v, M_E, prec, rnd)
    uv = [[mpf_mul(uj, vi, prec, rnd) for vi in v_pows] for uj in _powers(u, L * (M_D - 1) + 1, prec, rnd)]
    e_uv = [[_mag_ln(x) for x in row] for row in uv]
    ln_comb = [[math.log(math.comb(j + i, i)) for i in range(M_E)] for j in range(len(uv))]
    if asymptotic:
        harmonic = _dot([(1, mpf_div(fone, from_int(i), prec, rnd), -math.log(i)) for i in range(1, M_E)])
    first = 0 if exact else 1  # the ratio form's k = 0 terms pair into a log
    outer: Terms = []
    n_terms = 0
    a = [1]  # k!·[s^k] e_{M_D−1}(s)^l, here for l = 0
    for l in range(1, L + 1):
        a = [
            sum(math.comb(k, m) * a[k - m] for m in range(max(0, k + 1 - len(a)), min(k, M_D - 1) + 1))
            for k in range(len(a) + M_D - 1)
        ]
        w = (-1) ** (l + 1) * math.comb(L, l)
        ln_a = [math.log(x) for x in a]
        if not exact:
            c = mp.mp.make_mpf(mpf_div(lam_D, mpf_mul_int(lam_E, l, prec, rnd), prec, rnd))
            log_c = mp.log(c) if asymptotic else mp.log1p(c)
            outer.append((w, log_c, _mag_ln(log_c)))
            n_terms += 1
        if asymptotic:
            outer.append((-w, *harmonic))
            n_terms += 1
        # q_l at β_l (the i = 0 terms) and, except in the asymptotic form,
        # q_l·r at β_l + 1/λ_E: term (j, i) is C(j+i, i) a_j u^j v^i J_{j+i}.
        lu = mpf_mul_int(u, l, prec, rnd)
        for weight, rate, r_len in [(w, lu, 1)] + ([] if asymptotic else [(-w, mpf_add(lu, v, prec, rnd), M_E)]):
            js, ejs = _moments(rate, len(a) + r_len - 1, exact)
            closing = [
                (
                    math.comb(j + i, i) * a[j],
                    mpf_mul(uv[j][i], js[j + i], prec, rnd),
                    ln_comb[j][i] + ln_a[j] + e_uv[j][i] + ejs[j + i],
                )
                for j in range(len(a)) for i in range(r_len) if j + i >= first
            ]
            outer.append((weight, *_dot(closing)))
            n_terms += len(closing)
    total, peak = _dot([(w, s, math.log(abs(w)) + e) for w, s, e in outer])
    ln2 = mp.log(2)
    return total / ln2, n_terms, peak - float(mp.log(ln2))


# ---------------------------------------------------------------------------
# evaluation drivers


def _with_retry(
    evaluator: Callable[[], Tuple[mp.mpf, int, float]], dps0: int
) -> Tuple[float, int, float]:
    """Run ``evaluator`` under increasing precision until the cancellation
    headroom is at least 12 digits; raise CancellationError when ``_MAX_DPS``
    digits cannot provide it.

    A sum that keeps no digit above its rounding error at two successive
    precisions, and is exactly 0 at both or smaller at the finer one
    (rounding noise shrinks with the precision, a value does not), is 0, as
    the symmetric asymptotic ratio (K = L = 1, M_D = M_E, λ_D = λ_E) is.
    """
    dps = min(_MAX_DPS, dps0)
    ln_total = -math.inf
    peak = -math.inf
    noise = None  # the previous sum, when it kept no digit above its rounding error
    for _ in range(3):
        with mp.workdps(dps):
            total, n_terms, peak = evaluator()
            ln_total = float(mp.log(abs(total))) if total != 0 else -math.inf
            value = float(total)
        if peak == -math.inf:
            return 0.0, n_terms, peak
        lost = (peak - ln_total) / _LN10
        if lost < dps - 12:
            return value, n_terms, peak
        if lost < dps:
            noise = None
        elif noise is not None and (abs(total) < abs(noise) or total == noise == 0):
            return 0.0, n_terms, peak
        else:
            noise = total
        if dps >= _MAX_DPS:
            break
        dps = min(_MAX_DPS, int(dps * 1.5) + 10)
    raise CancellationError(peak, ln_total)


def _dps(cfg: SystemConfig, exact: bool) -> int:
    """Starting working precision.  For K = 1: the digits the alternating
    binomial weights can cancel, log10 2^L; the digits the q_l and q_l·r
    closings cancel when λ_D ≪ λ_E, where the ESR falls like
    (λ_D/λ_E)^{M_E}; and in the exact form the ``_descent_digits`` of each
    Γ(−k, β) fill ``_moments`` reads.  For K > 1: ``required_dps`` over the
    poles at the orders ``pf_selection`` expands them to, K·T_l."""
    K, L, M_D = cfg.K, cfg.L, cfg.M_D
    if K == 1:
        digits = L * math.log10(2.0) + cfg.M_E * math.log10(1.0 + cfg.lambda_E / cfg.lambda_D)
        if exact:
            digits += max(
                _descent_digits(l / cfg.lambda_D + rate, l * (M_D - 1) + depth)
                for l in range(1, L + 1) for rate, depth in ((0.0, 0), (1 / cfg.lambda_E, cfg.M_E - 1))
            )
        return int(math.ceil(min(_MAX_DPS, _DPS_BASE + _DPS_MARGIN + digits)))
    poles = [(cfg.lambda_D / (l * cfg.lambda_E), K * (cfg.M_E + l * (M_D - 1))) for l in range(1, L + 1)]
    beta = sum(range(1, L + 1)) * K / cfg.lambda_D if exact else 0.0  # upper bound on l̃/λ_D
    worst = required_dps(poles, zs=[beta * (1 + c) for c, _ in poles], nu_max=K * L * (M_D - 1))
    if not exact:
        return worst
    # Weight-table growth for λ_D < 1 and the e^{l̃/λ_D} prefactors.
    extra = (K * L) / cfg.lambda_D / _LN10
    if cfg.lambda_D < 1.0:
        extra += K * L * (M_D - 1) * (-math.log10(cfg.lambda_D))
    return int(math.ceil(worst + extra))


def _work(cfg: SystemConfig, exact: bool) -> int:
    """Size proxy the budget guard compares against ``budget``: the kernel
    terms of the per-pole-set assembly, Σ over the compositions c of k ≤ K
    factors into the subset sizes of Π_l (c_l·a_l + 1), times 1 + Σ_l c_l·a_l
    in the exact form, a_l = l(M_D − 1).  Two running sums per k take in one
    subset size at a time, so no composition is enumerated.  It
    over-estimates one decomposition's cost and is not calibrated to seconds."""
    K = cfg.K
    prods, weighted = [1] + [0] * K, [0] * (K + 1)
    for l in range(1, cfg.L + 1):
        a = l * (cfg.M_D - 1)
        new_prods, new_weighted = [0] * (K + 1), [0] * (K + 1)
        for k in range(K + 1):
            for c in range(k + 1):
                new_prods[k] += prods[k - c] * (c * a + 1)
                new_weighted[k] += (weighted[k - c] + prods[k - c] * c * a) * (c * a + 1)
        prods, weighted = new_prods, new_weighted
    return sum(prods[1:]) + (sum(weighted[1:]) if exact else 0)


def _terms(cfg: SystemConfig, form: str) -> Tuple[mp.mpf, int, float]:
    """The OS sum for ``form`` ∈ {"exact", "high_snr", "asymptotic"}:
    (total, count of the terms closed, log of the envelope of every signed
    sum).

    K = 1 goes to ``_one_transmitter_terms``.  For K ≥ 2, one
    ``pf_selection`` call decomposes x⁻¹[1 − (1 − Σ_l z^l V_l(x))^K],
    V_l over its pole −χ_l; in the exact form grade l̃ of z = e^{−x/λ_D}
    closes at β = l̃/λ_D, and the ratio forms' one grade closes with logs.
    """
    if cfg.K == 1:
        return _one_transmitter_terms(cfg, form)
    exact = form == "exact"
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    factors = _v_tables(cfg, exact, lam_D, lam_E)
    poles = [(lam_D / (l * lam_E), cfg.M_E + len(rows) - 1) for l, rows in enumerate(factors, 1)]
    cs = [c for c, _ in poles]
    pfs = pf_selection(factors, poles, cfg.K, exact)
    tables: Dict[object, _GammaTable] = {}
    closed = [
        _close_exact(cs, z / lam_D, pf, tables) if exact else _log_rational_assembly(cs, pf, form == "asymptotic")
        for z, pf in pfs.items()
    ]
    n_terms = sum(1 for pf in pfs.values() for b in (pf.poly, [pf.origin], *pf.poles) for v in b if v)
    ln2 = mp.log(2)
    peak = max(p for _, p in closed) + math.log(len(closed))
    return mp.fsum(v for v, _ in closed) / ln2, n_terms, peak - float(mp.log(ln2))


# ---------------------------------------------------------------------------
# public evaluation surface


def _as_single_transmitter(cfg: SystemConfig) -> SystemConfig:
    """SS(K, L) ≡ OS(1, K·L).

    Destination-only selection picks the best of K·L i.i.d. destination
    links, and the selected transmitter's eavesdropper SNR is an independent
    Gamma(M_E, λ_E) draw; with one transmitter, optimal selection does
    exactly that over its K·L destinations.
    """
    return replace(cfg, K=1, L=cfg.K * cfg.L)


def _evaluate(cfg: SystemConfig, scheme: str, form: str, budget: int) -> EsrResult:
    """One closed-form ESR, with SS evaluated as OS(1, K·L)."""
    try:
        ok = _index(budget) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"budget must be an integer >= 0, got {budget!r}")
    os_cfg = cfg if scheme == "OS" else _as_single_transmitter(cfg)
    exact = form == "exact"
    work = _work(os_cfg, exact)
    if work > budget:
        raise ComplexityBudgetError(os_cfg.K, os_cfg.L, os_cfg.M_D, work, budget)
    value, n_terms, peak = _with_retry(lambda: _terms(os_cfg, form), _dps(os_cfg, exact))
    below_zero = not exact and value < 0
    return EsrResult(value, scheme, form, n_terms, peak, below_zero=below_zero)


def esr_os_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under ratio-optimal pair selection (general K, L)."""
    return _evaluate(cfg, "OS", "exact", budget)


def esr_ss_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under destination-SNR-only pair selection, as OS(1, K·L)."""
    return _evaluate(cfg, "SS", "exact", budget)


def esr_os_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR OS ESR (ratio-form kernels; upper bound on the exact ESR)."""
    return _evaluate(cfg, "OS", "high_snr", budget)


def esr_ss_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR SS ESR, as OS(1, K·L) (upper bound on the exact ESR)."""
    return _evaluate(cfg, "SS", "high_snr", budget)


def esr_asymptotic(cfg: SystemConfig, scheme: str, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """λ_D → ∞ asymptotic ESR value at the given configuration."""
    return _evaluate(cfg, _norm_scheme(scheme), "asymptotic", budget)


# ---------------------------------------------------------------------------
# asymptote lines


# λ_D/λ_E at which ``asymptote_line`` reads the asymptotic route: far above
# the line's zero crossing, so the value it reads off cancels nothing.
_LINE_REF = 2.0**64


def asymptote_line(cfg: SystemConfig, scheme: str) -> AsymptoticLine:
    """Slope/offset of C ≈ slope·(log2 λ_D − offset) as λ_D → ∞, for every
    K and L under both schemes.

    The asymptotic route is exactly affine in log2 λ_D with slope 1, so one
    evaluation of ``esr_asymptotic`` at λ_D = 2^64·λ_E fixes the offset.
    ``cfg.lambda_D`` is ignored.  Raises ComplexityBudgetError when that
    evaluation is over ``DEFAULT_BUDGET``, and DomainError when 2^64·λ_E
    overflows a float (λ_E above 2^-64·DBL_MAX ≈ 9.7·10²⁸⁸).
    """
    lam_ref = _LINE_REF * cfg.lambda_E
    if not math.isfinite(lam_ref):
        raise DomainError(
            f"lambda_E = {cfg.lambda_E!r} is too large for asymptote_line: its reference point "
            f"lambda_D = 2^64*lambda_E overflows a float (lambda_E must be at most 2^-64*DBL_MAX, about 9.7e288)"
        )
    value = esr_asymptotic(replace(cfg, lambda_D=lam_ref), scheme).value
    return AsymptoticLine(1.0, math.log2(lam_ref) - value)
