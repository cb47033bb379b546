"""Partial fractions over {origin, (x+c_g)^{T_g}} and the J-integral closed forms.

Every ESR summand reduces to one of four integral families over [1, ∞):

    exact:      ∫ x^{ν-1} e^{-βx} / Π_g (x+c_g)^{T_g} dx      (ν ≥ 1: "J1")
                ∫ e^{-βx} N(x) / (x · Π_g (x+c_g)^{T_g}) dx    ("J0")
    ratio form: the same with β = 0 (high-SNR), which integrates to
                logs and rational terms, and its λ_D → ∞ asymptotic variant.

The poles c_g = λ_D/(l λ_E) are distinct positive reals grouped by the
integer l, with total multiplicity T_g per group.  The numerator N is a
product of one factor per pole, each written over its own pole's powers
(see ``pf_coefficients``), so one decomposition serves a whole product of
per-group sums.  It needs no linear solve:

- each factor is Taylor-shifted once into powers of y_g = x + c_g;
- the coefficients at -c_g are the first T_g Taylor coefficients of the
  cofactor y_g^{T_g}·N/(x^o D), a truncated product of series;
- the origin coefficient is N(0)/D(0);
- a polynomial part, present when N outgrows x^o D, comes from the
  expansion at infinity (long division).

The closed forms then need Γ(a, z) at consecutive integer orders, filled by
one E1 evaluation plus up/down recurrences.

These signed sums cancel, so the core runs in mpmath at an adaptively
estimated precision; callers round to float.  Every coefficient carries an
envelope: the log of a bound on the sum of the absolute values of the
products it adds up (the largest one plus the log of their count).  A
result's peak is that bound for its last sum, so it covers every signed sum
on the way and bounds the digits they cancel.

Binomial coefficients C(n, k) are exact Python integers (``math.comb``), not
``mp.binomial`` values: an int times an mpf rounds once, to the same result,
at a fraction of the cost.  Every other quantity lives only for one call, so
nothing carries from one working precision to the next.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath as mp

from .errors import ContractError, DomainError

__all__ = [
    "pf_coefficients",
    "j0_exact_mp",
    "single_pole_integral_mp",
    "j0_highsnr_mp",
    "j1_highsnr_mp",
    "required_dps",
]

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
_DPS_BASE = 25  # digits of every working precision before its estimated losses
_DPS_MARGIN = 10  # digits kept on top of the estimated losses
_MAX_DPS = 300  # no evaluation runs finer than this

# One numerator factor per pole: row n maps d to the coefficient of x^d in
# P_n, and the factor of pole c is Σ_n P_n(x)·(x + c)^{n_top - n}.
Factor = Sequence[Dict[int, mp.mpf]]
Numerator = Union[None, int, Sequence[Factor]]

# ---------------------------------------------------------------------------
# mp core: incomplete-gamma tables


class _GammaTable:
    """Γ(a, z) for consecutive integer orders a, filled by recurrence.

    Upward:   Γ(a+1, z) = a Γ(a, z) + z^a e^{-z}
    Downward: Γ(a-1, z) = (z^{a-1} e^{-z} - Γ(a, z)) / (1 - a)
    Both directions stay positive; the downward division by (1-a) keeps the
    relative error bounded once the working precision covers the transient
    growth (see ``_descent_digits``).
    """

    def __init__(self, z: mp.mpf):
        self.z = z
        self._exp_neg = mp.exp(-z)
        self._vals: Dict[int, mp.mpf] = {0: mp.e1(z), 1: self._exp_neg}
        self._lo = 0
        self._hi = 1

    def get(self, a: int) -> mp.mpf:
        while self._hi < a:
            h = self._hi
            self._vals[h + 1] = h * self._vals[h] + mp.power(self.z, h) * self._exp_neg
            self._hi += 1
        while self._lo > a:
            lo = self._lo
            b = mp.power(self.z, lo - 1) * self._exp_neg
            self._vals[lo - 1] = (b - self._vals[lo]) / (1 - lo)
            self._lo -= 1
        return self._vals[a]


def _descent_digits(z: float, depth: int) -> float:
    """Digits lost filling Γ(-depth, z) downward from Γ(0, z)."""
    if depth <= 0 or z <= 0.0:
        return 0.0
    log_z = math.log10(z)
    top = math.lgamma(depth + 1) / _LN10
    worst = 0.0
    for j in range(depth + 1):
        worst = max(worst, (depth - j) * log_z + math.lgamma(j + 1) / _LN10)
    return max(0.0, worst - top) + 1.0


def required_dps(
    poles: Sequence[Tuple[float, int]],
    zs: Iterable[float] = (),
    nu_max: int = 0,
) -> int:
    """Working precision estimate for one J/term-family evaluation."""
    digits = 0.0
    locs = [c for c, _ in poles]
    for i, (c, T) in enumerate(poles):
        spacing = min((abs(c - c2) for j, c2 in enumerate(locs) if j != i), default=c)
        eff = min(c, spacing)
        if eff > 0.0:
            digits += T * max(0.0, math.log10((1.0 + c) / eff))
    depth = sum(T for _, T in poles)
    descent = max((_descent_digits(z, depth) for z in zs), default=0.0)
    extra = 0.35 * max(0, nu_max)
    return min(_MAX_DPS, int(math.ceil(_DPS_BASE + digits + descent + extra + _DPS_MARGIN)))


# ---------------------------------------------------------------------------
# mp core: partial fractions


def _mag_ln(x: mp.mpf) -> float:
    """Upper bound on ln|x| (-inf for zero)."""
    if not x:
        return -math.inf
    return float(mp.mag(x)) * _LN2


def _ln(x: mp.mpf) -> float:
    f = abs(float(x))
    return math.log(f) if 0.0 < f < math.inf else float(mp.log(abs(x)))


def _pow_list(x: mp.mpf, n: int) -> List[mp.mpf]:
    """[1, x, …, x^{n-1}] by successive products."""
    out = [mp.mpf(1)]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


def _binom(e: int, k: int) -> int:
    """C(e, k) for any integer e: the coefficient of y^k in (1 + y)^e."""
    if e >= 0:
        return math.comb(e, k) if k <= e else 0
    return (-1) ** k * math.comb(k - e - 1, k)


# A term list for one output coefficient: (a, b, envelope of |a·b|) triples.
Terms = List[Tuple[mp.mpf, mp.mpf, float]]


def _dot(terms: Terms) -> Tuple[mp.mpf, float]:
    """Σ a·b rounded once, with its envelope (largest term plus log count)."""
    if not terms:
        return mp.mpf(0), -math.inf
    value = mp.fdot([(a, b) for a, b, _ in terms])
    return value, max(e for _, _, e in terms) + math.log(len(terms))


def _dots(term_lists: Sequence[Terms]) -> Tuple[List[mp.mpf], List[float]]:
    pairs = [_dot(t) for t in term_lists]
    return [v for v, _ in pairs], [e for _, e in pairs]


def _pole_basis(rows: Factor, c: mp.mpf):
    """Σ_n P_n(x)·(x+c)^{n_top-n} in powers of y = x + c, from one Taylor
    shift x^d = Σ_k C(d, k) (-c)^{d-k} y^k per degree d."""
    top = len(rows) - 1
    dmax = max((d for row in rows for d in row), default=0)
    ln_c = _ln(c)
    neg = _pow_list(-c, dmax + 1)
    shift = [
        [(math.comb(d, k) * neg[d - k], math.log(math.comb(d, k)) + (d - k) * ln_c)
         for k in range(d + 1)]
        for d in range(dmax + 1)
    ]
    terms: List[Terms] = [[] for _ in range(top + dmax + 1)]
    for n, row in enumerate(rows):
        for d, u in row.items():
            if u:
                eu = _mag_ln(u)
                for k, (w, ew) in enumerate(shift[d]):
                    terms[k + top - n].append((u, w, eu + ew))
    return _dots(terms)


def _expand(s, es, T: int, delta: mp.mpf, n: int, at_infinity: bool):
    """First n coefficients of F(y) = Σ_j s_j (y + δ)^{j-T}: Taylor at y = 0,
    or, ``at_infinity``, in w = 1/y of F / y^{deg-T} with deg = len(s) - 1."""
    if n <= 0:
        return [], []
    deg, ln_d = len(s) - 1, _ln(delta)
    up = _pow_list(delta, n if at_infinity else deg - T + 1)
    down = [] if at_infinity else _pow_list(1 / delta, T + n)
    terms: List[Terms] = [[] for _ in range(n)]
    for j, sj in enumerate(s):
        if not sj:
            continue
        e = j - T
        for k in range(n):
            # at infinity (y + δ)^e = y^e Σ_r C(e, r) δ^r w^r lands on w^{deg-j+r}
            r = k - (deg - j) if at_infinity else k
            coef = _binom(e, r) if r >= 0 else 0
            if coef:
                p = r if at_infinity else e - r
                w = coef * (up[p] if p >= 0 else down[-p])
                terms[k].append((sj, w, es[j] + math.log(abs(coef)) + p * ln_d))
    return _dots(terms)


def _series_mul(a, ea, b, eb, n: int):
    """First n coefficients of the product of two series."""
    terms: List[Terms] = [[] for _ in range(n)]
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    terms[i + j].append((ai, bj, ea[i] + eb[j]))
    return _dots(terms)


class PartialFractions(NamedTuple):
    """N(x)/(x^o Π_g (x+c_g)^{T_g}) = Σ_j poly[j] x^j + origin/x
    + Σ_g Σ_t poles[g][t-1] / (x+c_g)^t, each coefficient with its envelope
    (the ``*_ln`` fields; see the module docstring)."""

    origin: Optional[mp.mpf]
    poles: List[List[mp.mpf]]
    poly: List[mp.mpf]
    origin_ln: float
    poles_ln: List[List[float]]
    poly_ln: List[float]


def pf_coefficients(
    numerator: Numerator,
    with_origin: bool,
    poles: Sequence[Tuple[mp.mpf, int]],
) -> PartialFractions:
    """Partial fractions of N(x) / (x^{o} Π_g (x+c_g)^{T_g}).

    ``numerator`` gives N as one ``Factor`` per pole, the g-th over powers
    of x + c_g; an int p stands for N = x^p, and None for N = 1.
    """
    if numerator is None or isinstance(numerator, int):
        one = {0: mp.mpf(1)}
        numerator = [[{numerator or 0: mp.mpf(1)}]] + [[one]] * (len(poles) - 1)
    bases = [_pole_basis(f, c) for f, (c, _) in zip(numerator, poles)]
    origin, origin_ln = None, -math.inf
    if with_origin:
        origin, origin_ln = mp.mpf(1), 0.0
        for f, (c, T) in zip(numerator, poles):
            # F_g(0) = Σ_n P_n(0) c^{n_top-n-T}
            top, ln_c = len(f) - 1, _ln(c)
            v, e = _dot([
                (row[0], mp.power(c, top - n - T), _mag_ln(row[0]) + (top - n - T) * ln_c)
                for n, row in enumerate(f) if row.get(0)
            ])
            origin, origin_ln = origin * v, origin_ln + e
    bs, bs_ln = [], []
    for g, (c_g, T_g) in enumerate(poles):
        pad = max(0, T_g - len(bases[g][0]))
        h = bases[g][0][:T_g] + [mp.mpf(0)] * pad
        eh = bases[g][1][:T_g] + [-math.inf] * pad
        for k, (c_k, T_k) in enumerate(poles):
            if k != g:
                cof = _expand(*bases[k], T_k, c_k - c_g, T_g, False)
                h, eh = _series_mul(h, eh, *cof, T_g)
        if with_origin:
            # divide by x = y - c_g: r_k = (r_{k-1} - h_k) / c_g
            ln_c, prev, top = _ln(c_g), mp.mpf(0), -math.inf
            for i in range(T_g):
                prev = (prev - h[i]) / c_g
                top = max(top, eh[i] + i * ln_c)
                h[i], eh[i] = prev, top - (i + 1) * ln_c + math.log(i + 1)
        bs.append(h[::-1])
        bs_ln.append(eh[::-1])
    # The polynomial part: x^size Π_g Φ_g(1/x), kept to its nonnegative powers.
    size = sum(len(s) - 1 - T for (s, _), (_, T) in zip(bases, poles)) - (1 if with_origin else 0)
    phi, ephi = [mp.mpf(1)], [0.0]
    for (s, es), (c, T) in zip(bases, poles):
        phi, ephi = _series_mul(phi, ephi, *_expand(s, es, T, c, size + 1, True), size + 1)
    return PartialFractions(origin, bs, phi[::-1], origin_ln, bs_ln, ephi[::-1])


# ---------------------------------------------------------------------------
# mp core: J evaluations.  Each returns (value, peak) where peak is the log
# of the envelope of its last signed sum (cancellation diagnostic).


def _close(integrals) -> Tuple[mp.mpf, float]:
    """Σ coefficient × integral over the (coefficient, envelope, integral)
    triples ``integrals`` yields."""
    return _dot([(a, i, e + _mag_ln(i)) for a, e, i in integrals if a])


def _table(tables: Dict[object, _GammaTable], z: mp.mpf) -> _GammaTable:
    tab = tables.get(z)
    if tab is None:
        tab = tables[z] = _GammaTable(z)
    return tab


def j0_exact_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    beta: mp.mpf,
    tables: Optional[Dict[object, _GammaTable]] = None,
    numerator: Numerator = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ e^{-βx} N(x) / (x Π_g (x+c_g)^{T_g}) dx, N as in ``pf_coefficients``.

    Closes the polynomial part with Γ(j+1, β)/β^{j+1}, the origin with
    E1(β) and each pole term with e^{βc} β^{t-1} Γ(1-t, β(1+c)).
    """
    if tables is None:
        tables = {}
    pf = pf_coefficients(numerator, True, poles)
    beta_pw = _pow_list(beta, max([len(pf.poly) + 2] + [T + 1 for _, T in poles]))

    def integrals():
        at_beta = _table(tables, beta)
        yield pf.origin, pf.origin_ln, at_beta.get(0)
        for j, (p, e) in enumerate(zip(pf.poly, pf.poly_ln)):
            yield p, e, at_beta.get(j + 1) / beta_pw[j + 1]
        for (c, T), b, eb in zip(poles, pf.poles, pf.poles_ln):
            tab = _table(tables, beta * (1 + c))
            ebc = mp.exp(beta * c)
            for t in range(1, T + 1):
                yield b[t - 1], eb[t - 1], beta_pw[t - 1] * ebc * tab.get(1 - t)

    return _close(integrals())


def single_pole_integral_mp(
    nu: int,
    T: int,
    beta: mp.mpf,
    c: mp.mpf,
    table: Optional[_GammaTable] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ x^{ν-1} e^{-βx} / (x+c)^T dx for ν ≥ 1, single pole.

    Via x = y - c and a binomial expansion of (y-c)^{ν-1}:
        Σ_j C(ν-1, j) (-c)^{ν-1-j} e^{βc} β^{T-j-1} Γ(j-T+1, β(1+c)).
    """
    if nu < 1:
        raise ContractError("single_pole_integral_mp needs nu >= 1")
    if table is None:
        table = _GammaTable(beta * (1 + c))
    ebc = mp.exp(beta * c)
    neg_c = -c
    total = mp.mpf(0)
    peak = -math.inf
    for j in range(nu):
        term = (
            math.comb(nu - 1, j)
            * mp.power(neg_c, nu - 1 - j)
            * ebc
            * mp.power(beta, T - j - 1)
            * table.get(j - T + 1)
        )
        total += term
        peak = max(peak, _mag_ln(term))
    return total, peak


def _log_rational_assembly(
    poles: Sequence[Tuple[mp.mpf, int]], pf: PartialFractions, asymptotic: bool
) -> Tuple[mp.mpf, float]:
    """Σ_g [-b_{g,1} ln(1+c_g) + Σ_{t≥2} b_{g,t} (1+c_g)^{1-t}/(t-1)].

    With ``asymptotic`` the substitutions ln(1+c) → ln c and (1+c) → c apply.
    Valid whenever the underlying rational function decays at least like
    x^{-2}, which makes the ln x contributions cancel (Σ residues at order 1
    plus the origin coefficient is zero).
    """

    def integrals():
        for (c, T), b, eb in zip(poles, pf.poles, pf.poles_ln):
            base = c if asymptotic else (1 + c)
            inv = _pow_list(1 / base, T)
            yield b[0], eb[0], -mp.log(base)
            for t in range(2, T + 1):
                yield b[t - 1], eb[t - 1], inv[t - 1] / (t - 1)

    return _close(integrals())


def j0_highsnr_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    asymptotic: bool = False,
    numerator: Numerator = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ N(x) dx / (x Π_g (x+c_g)^{T_g}) (β = 0 ratio form), N as in
    ``pf_coefficients``; the integrand must decay at least like x^{-2}."""
    return _log_rational_assembly(poles, pf_coefficients(numerator, True, poles), asymptotic)


def j1_highsnr_mp(
    poles: Sequence[Tuple[mp.mpf, int]], nu: int, asymptotic: bool = False
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ x^{ν-1} dx / Π_g (x+c_g)^{T_g}, 1 ≤ ν ≤ ΣT_g - 1."""
    if nu < 1:
        raise ContractError("j1 needs nu >= 1; the nu = 0 case is j0")
    total_mult = sum(T for _, T in poles)
    if nu > total_mult - 1:
        raise DomainError(
            f"x^{nu - 1} over multiplicity {total_mult} does not converge"
        )
    return _log_rational_assembly(poles, pf_coefficients(nu - 1, False, poles), asymptotic)
