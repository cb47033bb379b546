"""Partial fractions over {origin, (x+c_g)^{T_g}} and the J-integral closed forms.

Every ESR summand reduces to one of four integral families over [1, ∞):

    exact:      ∫ x^{ν-1} e^{-βx} / Π_g (x+c_g)^{T_g} dx      (ν ≥ 1: "J1")
                ∫ e^{-βx} / (x · Π_g (x+c_g)^{T_g}) dx         (ν = 0: "J0")
    ratio form: the same with β = 0 (high-SNR), which integrates to
                logs and rational terms, and its λ_D → ∞ asymptotic variant.

The poles c_g = λ_D/(l λ_E) are distinct positive reals grouped by the
integer l, with total multiplicity T_g per group.  Coefficients come from the
analytic residue/log-derivative recursion (never a linear solve): for
φ_g(x) = (x+c_g)^{T_g} R(x), the ratios r_n = φ_g^{(n)}/φ_g at -c_g obey

    r_0 = 1,   r_n = Σ_{j<n} C(n-1, j) · g^{(n-j)}(-c_g) · r_j,

with g = ln φ_g, whose derivatives are explicit power sums.  The closed forms
then need Γ(a, z) at consecutive integer orders, filled by one E1 evaluation
plus up/down recurrences.

The alternating partial-fraction coefficients reach ~c^{-T}, so recombining
them loses roughly Σ_g T_g·log10((1+c_g)/c_g) digits; the core therefore runs
in mpmath at an adaptively estimated precision; callers round to float.

Binomial coefficients C(n, k) are exact Python integers (``math.comb``), not
``mp.binomial`` values: an int times an mpf rounds once, to the same result,
at a fraction of the cost.  Every kernel takes an optional ``powers`` dict
through which a caller shares ``mp.power`` results between kernel calls made
at one working precision (see ``_power``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

# mp.power(x, n) results keyed (x, n), shared between kernel calls at one
# working precision; see ``_power``.
Powers = Dict[Tuple[mp.mpf, int], mp.mpf]

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
    base: int = 25,
    margin: int = 10,
    cap: int = 300,
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
    return min(cap, int(math.ceil(base + digits + descent + extra + margin)))


# ---------------------------------------------------------------------------
# mp core: residue recursion


def _power(x: mp.mpf, n: int, powers: Optional[Powers]) -> mp.mpf:
    """``mp.power(x, n)``, reused from ``powers`` when the caller passes one.

    A power depends on the working precision, so a ``powers`` dict must
    never outlive the precision it was filled at.
    """
    if powers is None:
        return mp.power(x, n)
    key = (x, n)
    value = powers.get(key)
    if value is None:
        value = powers[key] = mp.power(x, n)
    return value


def pf_coefficients(
    num_pow: int,
    with_origin: bool,
    poles: Sequence[Tuple[mp.mpf, int]],
    powers: Optional[Powers] = None,
) -> Tuple[Optional[mp.mpf], List[List[mp.mpf]]]:
    """Partial fractions of x^{num_pow} / (x^{o} Π_g (x+c_g)^{T_g}).

    Returns (A, b) with A the origin-pole coefficient (None without origin)
    and b[g][t-1] the coefficient of 1/(x+c_g)^t.  Uses the log-derivative
    residue recursion at the current mp precision.
    """
    if with_origin and num_pow != 0:
        raise ContractError("origin pole only combines with a constant numerator")
    a_coeff: Optional[mp.mpf] = None
    if with_origin:
        a_coeff = mp.mpf(1)
        for c, T in poles:
            a_coeff /= _power(c, T, powers)
    out: List[List[mp.mpf]] = []
    p_tilde = num_pow - (1 if with_origin else 0)
    for g, (c_g, T_g) in enumerate(poles):
        x0 = -c_g
        diffs = [(c_h - c_g, T_h) for h, (c_h, T_h) in enumerate(poles) if h != g]
        # φ_g(-c_g) = (-c_g)^{p̃} / Π_{h≠g} (c_h - c_g)^{T_h}
        phi = _power(x0, p_tilde, powers) if p_tilde != 0 else mp.mpf(1)
        for d, T_h in diffs:
            phi /= _power(d, T_h, powers)
        # g^{(j)}(-c_g) = (-1)^{j-1} (j-1)! [p̃/x0^j - Σ_{h≠g} T_h/(x0+c_h)^j]
        max_n = T_g - 1
        gder = [mp.mpf(0)] * (max_n + 1)
        fact = mp.mpf(1)
        for j in range(1, max_n + 1):
            if j > 1:
                fact *= j - 1
            s = mp.mpf(0)
            if p_tilde != 0:
                s += p_tilde / _power(x0, j, powers)
            for d, T_h in diffs:
                s -= T_h / _power(d, j, powers)
            gder[j] = (-1) ** (j - 1) * fact * s
        r = [mp.mpf(1)] + [mp.mpf(0)] * max_n
        for n in range(1, max_n + 1):
            acc = mp.mpf(0)
            for j in range(n):
                acc += math.comb(n - 1, j) * gder[n - j] * r[j]
            r[n] = acc
        b = [mp.mpf(0)] * T_g
        fct = mp.mpf(1)
        for n in range(T_g):       # b_{g, T_g - n} = φ(-c_g) r_n / n!
            if n > 1:
                fct *= n
            b[T_g - n - 1] = phi * r[n] / fct
        out.append(b)
    return a_coeff, out


def _single_pole_origin_coeffs(
    c: mp.mpf, T: int, powers: Optional[Powers] = None
) -> Tuple[mp.mpf, List[mp.mpf]]:
    """Closed-form coefficients of 1/(x (x+c)^T): A = c^{-T}, b_t = -c^{t-T-1}."""
    a_coeff = _power(c, -T, powers)
    b = [-_power(c, t - T - 1, powers) for t in range(1, T + 1)]
    return a_coeff, b


# ---------------------------------------------------------------------------
# mp core: J evaluations.  Each returns (value, peak) where peak is the
# natural log of the largest absolute summand (cancellation diagnostic).


def _mag_ln(x: mp.mpf) -> float:
    if not x:
        return -math.inf
    return float(mp.mag(x)) * _LN2


def j0_exact_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    beta: mp.mpf,
    tables: Optional[Dict[object, _GammaTable]] = None,
    powers: Optional[Powers] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ e^{-βx} / (x Π_g (x+c_g)^{T_g}) dx."""
    if len(poles) == 1:
        a_coeff, b_single = _single_pole_origin_coeffs(*poles[0], powers)
        bs = [b_single]
    else:
        a_coeff, bs = pf_coefficients(0, True, poles, powers)
    if tables is None:
        tables = {}
    total = a_coeff * mp.e1(beta)
    peak = _mag_ln(total)
    for (c, T), b in zip(poles, bs):
        z = beta * (1 + c)
        tab = tables.get(z)
        if tab is None:
            tab = tables[z] = _GammaTable(z)
        ebc = mp.exp(beta * c)
        for t in range(1, T + 1):
            term = b[t - 1] * _power(beta, t - 1, powers) * ebc * tab.get(1 - t)
            total += term
            peak = max(peak, _mag_ln(term))
    return total, peak


def single_pole_integral_mp(
    nu: int,
    T: int,
    beta: mp.mpf,
    c: mp.mpf,
    table: Optional[_GammaTable] = None,
    powers: Optional[Powers] = None,
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
            * _power(neg_c, nu - 1 - j, powers)
            * ebc
            * _power(beta, T - j - 1, powers)
            * table.get(j - T + 1)
        )
        total += term
        peak = max(peak, _mag_ln(term))
    return total, peak


def _log_rational_assembly(
    poles: Sequence[Tuple[mp.mpf, int]],
    bs: Sequence[Sequence[mp.mpf]],
    asymptotic: bool,
    powers: Optional[Powers] = None,
) -> Tuple[mp.mpf, float]:
    """Σ_g [-b_{g,1} ln(1+c_g) + Σ_{t≥2} b_{g,t} (1+c_g)^{1-t}/(t-1)].

    With ``asymptotic`` the substitutions ln(1+c) → ln c and (1+c) → c apply.
    Valid whenever the underlying rational function decays at least like
    x^{-2}, which makes the ln x contributions cancel (Σ residues at order 1
    plus the origin coefficient is zero).
    """
    total = mp.mpf(0)
    peak = -math.inf
    for (c, T), b in zip(poles, bs):
        base = c if asymptotic else (1 + c)
        term = -b[0] * mp.log(base)
        total += term
        peak = max(peak, _mag_ln(term))
        for t in range(2, T + 1):
            term = b[t - 1] * _power(base, 1 - t, powers) / (t - 1)
            total += term
            peak = max(peak, _mag_ln(term))
    return total, peak


def j0_highsnr_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    asymptotic: bool = False,
    powers: Optional[Powers] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ dx / (x Π_g (x+c_g)^{T_g}) (β = 0 ratio form)."""
    if len(poles) == 1:
        _, b_single = _single_pole_origin_coeffs(*poles[0], powers)
        bs = [b_single]
    else:
        _, bs = pf_coefficients(0, True, poles, powers)
    return _log_rational_assembly(poles, bs, asymptotic, powers)


def j1_highsnr_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    nu: int,
    asymptotic: bool = False,
    powers: Optional[Powers] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ x^{ν-1} dx / Π_g (x+c_g)^{T_g}, 1 ≤ ν ≤ ΣT_g - 1."""
    if nu < 1:
        raise ContractError("j1 needs nu >= 1; the nu = 0 case is j0")
    total_mult = sum(T for _, T in poles)
    if nu > total_mult - 1:
        raise DomainError(
            f"x^{nu - 1} over multiplicity {total_mult} does not converge"
        )
    if len(poles) == 1:
        c, T = poles[0]
        base = c if asymptotic else (1 + c)
        neg_c = -c
        total = mp.mpf(0)
        peak = -math.inf
        for j in range(nu):
            term = (
                math.comb(nu - 1, j)
                * _power(neg_c, nu - 1 - j, powers)
                * _power(base, j - T + 1, powers)
                / (T - 1 - j)
            )
            total += term
            peak = max(peak, _mag_ln(term))
        return total, peak
    _, bs = pf_coefficients(nu - 1, False, poles, powers)
    return _log_rational_assembly(poles, bs, asymptotic, powers)
