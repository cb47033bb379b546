"""Partial fractions over {origin, (x+c_g)^{T_g}} and the closed forms of their integrals.

The ESR integrands over [1, ∞) are rational in x, times e^{-βx} in the
exact form, with poles at the origin and at -c_g, c_g = λ_D/(l λ_E)
distinct positive reals.  The exact form closes with Γ(a, z) at
consecutive integer orders, filled by one E1 evaluation plus up/down
recurrences; the ratio form (β = 0: high-SNR, and its λ_D → ∞ asymptotic
variant) closes with logs and rational terms.

``pf_selection`` decomposes the whole OS integrand x⁻¹[1 - (1 - Σ_l z^l
F_l)^K] once, grade by grade in z = e^{-x/λ_D}; ``pf_coefficients``
decomposes x^p / (x^o Π_g (x+c_g)^{T_g}) for the single kernels.  Neither
needs a linear solve.  Both Taylor-shift each factor once into powers of
y_g = x + c_g, read the coefficients at -c_g off a truncated series
(power or product) divided by x, take the origin from the values at zero,
and a polynomial part from the expansion at infinity.

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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import from_int, fzero, mpf_mul, mpf_sum

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

# The numerator of a factor over (x + c)^T: row n maps d to the coefficient
# of x^d in P_n, and the numerator is Σ_n P_n(x)·(x + c)^{n_top - n}.
Factor = Sequence[Dict[int, mp.mpf]]

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


def _mag_ln(x) -> float:
    """Upper bound on ln|x| (-inf for zero) of an mpf or a libmp value:
    |x| ≤ 2^(exp + bc), read off the mantissa's exponent and bit count as
    ``mp.mag`` does."""
    v = x if type(x) is tuple else x._mpf_
    _, man, exp, bc = v
    if man:
        return (exp + bc) * _LN2
    return -math.inf if v == fzero else float(mp.mag(mp.mp.make_mpf(v))) * _LN2


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


def _raw(x) -> tuple:
    """The libmp value of an operand ``_dot`` does not check for by type (an
    mpmath constant, say); anything without one raises."""
    try:
        return x._mpf_
    except AttributeError:
        raise TypeError(f"expected an mpf, an int or a libmp value, got {type(x).__name__}") from None


def _dot(terms: Terms) -> Tuple[mp.mpf, float]:
    """Σ a·b rounded once, with its envelope (largest term plus log count).

    What ``mp.fdot`` computes for real operands: exact products, one sum
    rounded at the working precision.  Each operand is an mpf, an int or a
    libmp value (the raw ``(sign, man, exp, bc)`` tuple of ``mpmath.libmp``);
    a type check per operand reads its libmp value in place, and any other
    type goes to ``_raw``, which refuses bools, floats, mpc and numpy
    scalars.  The sum comes back as an mpf."""
    if not terms:
        return mp.mpf(0), -math.inf
    prec, rnd = mp.mp._prec_rounding
    mpf = mp.mpf
    value = mpf_sum([
        mpf_mul(
            a if type(a) is tuple else a._mpf_ if type(a) is mpf else from_int(a) if type(a) is int else _raw(a),
            b if type(b) is tuple else b._mpf_ if type(b) is mpf else from_int(b) if type(b) is int else _raw(b),
        )
        for a, b, _ in terms
    ], prec, rnd)
    return mp.mp.make_mpf(value), max(e for _, _, e in terms) + math.log(len(terms))


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


# A graded series Σ_g z^g S_g(u): (grade, coefficients, envelopes) parts.
Graded = List[Tuple[int, List[mp.mpf], List[float]]]


def _graded_mul(a: Graded, b: Graded, n: int) -> Graded:
    """First n coefficients of the product, one series per grade (grades add)."""
    terms: Dict[int, List[Terms]] = {}
    for ga, s, es in a:
        for gb, t, et in b:
            out = terms.setdefault(ga + gb, [[] for _ in range(n)])
            for i, si in enumerate(s[:n]):
                if si:
                    for j, tj in enumerate(t[: n - i]):
                        if tj:
                            out[i + j].append((si, tj, es[i] + et[j]))
    return [(g, *_dots(t)) for g, t in terms.items()]


def _at_zero(f: Factor, c: mp.mpf, T: int) -> Tuple[mp.mpf, float]:
    """F(0) = Σ_n P_n(0) c^{n_top-n-T} for the factor F = f over (x+c)^T."""
    top, ln_c = len(f) - 1, _ln(c)
    return _dot([
        (row[0], mp.power(c, top - n - T), _mag_ln(row[0]) + (top - n - T) * ln_c)
        for n, row in enumerate(f) if row.get(0)
    ])


def _principal(h, eh, c: mp.mpf, T: int, over_x: bool):
    """Coefficients of 1/(x+c)^t, t = 1..T, from the first T Taylor
    coefficients h of the cofactor in y = x + c, divided by x = y - c first
    when ``over_x``: r_k = (r_{k-1} - h_k) / c."""
    pad = max(0, T - len(h))
    h, eh = h[:T] + [mp.mpf(0)] * pad, eh[:T] + [-math.inf] * pad
    if over_x:
        ln_c, prev, top = _ln(c), mp.mpf(0), -math.inf
        for i in range(T):
            prev = (prev - h[i]) / c
            top = max(top, eh[i] + i * ln_c)
            h[i], eh[i] = prev, top - (i + 1) * ln_c + math.log(i + 1)
    return h[::-1], eh[::-1]


class PartialFractions(NamedTuple):
    """N(x)/(x^o Π_g (x+c_g)^{T_g}) = Σ_j poly[j] x^j + origin/x
    + Σ_g Σ_t poles[g][t-1] / (x+c_g)^t, each coefficient with its envelope
    (the ``*_ln`` fields; see the module docstring).  ``poles[g]`` is empty
    where the function has no pole at -c_g."""

    origin: Optional[mp.mpf]
    poles: List[List[mp.mpf]]
    poly: List[mp.mpf]
    origin_ln: float
    poles_ln: List[List[float]]
    poly_ln: List[float]


def pf_coefficients(
    power: Optional[int], with_origin: bool, poles: Sequence[Tuple[mp.mpf, int]]
) -> PartialFractions:
    """Partial fractions of x^p / (x^{o} Π_g (x+c_g)^{T_g}), p = ``power``
    (None for 0): each pole's coefficients are the first T_g Taylor
    coefficients of its cofactor, a product of the other poles' expansions."""
    factors = [[{power or 0: mp.mpf(1)}]] + [[{0: mp.mpf(1)}]] * (len(poles) - 1)
    bases = [_pole_basis(f, c) for f, (c, _) in zip(factors, poles)]
    origin, origin_ln = None, -math.inf
    if with_origin:
        origin, origin_ln = mp.mpf(1), 0.0
        for f, (c, T) in zip(factors, poles):
            v, e = _at_zero(f, c, T)
            origin, origin_ln = origin * v, origin_ln + e
    bs, bs_ln = [], []
    for g, (c_g, T_g) in enumerate(poles):
        h = [(0, *bases[g])]
        for k, (c_k, T_k) in enumerate(poles):
            if k != g:
                h = _graded_mul(h, [(0, *_expand(*bases[k], T_k, c_k - c_g, T_g, False))], T_g)
        b, eb = _principal(*h[0][1:], c_g, T_g, with_origin)
        bs.append(b)
        bs_ln.append(eb)
    # The polynomial part: x^size Π_g Φ_g(1/x), kept to its nonnegative powers.
    size = sum(len(s) - 1 - T for (s, _), (_, T) in zip(bases, poles)) - (1 if with_origin else 0)
    phi: Graded = [(0, [mp.mpf(1)], [0.0])]
    for (s, es), (c, T) in zip(bases, poles):
        phi = _graded_mul(phi, [(0, *_expand(s, es, T, c, size + 1, True))], size + 1)
    (_, p, ep), = phi
    return PartialFractions(origin, bs, p[::-1], origin_ln, bs_ln, ep[::-1])


def pf_selection(
    factors: Sequence[Factor], poles: Sequence[Tuple[mp.mpf, int]], K: int, graded: bool
) -> Dict[int, PartialFractions]:
    """Partial fractions of x⁻¹[1 - (1 - Σ_l z^l F_l(x))^K], grade by grade
    in z, with F_l the l-th factor over (x + c_l)^{T_l} (l = 1..len(poles)).

    Each piece is the K-th power of S = u^e(Σ_l z^l F_l - 1), negated when
    K is even: at -c_g, u = y = x + c_g and e = T_g, to K·T_g terms, then
    divided by x; at the origin, u = 1 and one term; at infinity, u = w = 1/x
    and e the largest degree of an F_l, which gives the polynomial part.
    With ``graded`` False, z = 1: one grade, 0, without the origin and the
    polynomial part, which the log-rational closing does not use.  Grade 0
    of the graded function is zero and is left out.
    """
    bases = [_pole_basis(f, c) for f, (c, _) in zip(factors, poles)]
    grades = range(1, len(poles) + 1) if graded else [0] * len(poles)

    def power(e: int, n: int, series) -> Dict[int, Tuple[List[mp.mpf], List[float]]]:
        # series[l]: (shift, coefficients, envelopes) of u^e·F_l.
        out = [(z, [0] * d + list(s), [-math.inf] * d + list(es)) for z, (d, s, es) in zip(grades, series) if s]
        out.append((0, [0] * e + [mp.mpf(-1)], [-math.inf] * e + [0.0]))
        base = out = _graded_mul(out, [(0, [1], [0.0])], n)  # sums equal grades
        for _ in range(K - 1):
            out = _graded_mul(out, base, n)
        return {z: (s if K % 2 else [-v for v in s], es) for z, s, es in out}

    at_poles = []
    for g, (c_g, T_g) in enumerate(poles):
        n = K * T_g
        series = [
            (0, s[:n], es[:n]) if l == g else (T_g, *_expand(s, es, T_l, c_l - c_g, n - T_g, False))
            for l, ((s, es), (c_l, T_l)) in enumerate(zip(bases, poles))
        ]
        at_poles.append({z: _principal(h, eh, c_g, n, True) for z, (h, eh) in power(T_g, n, series).items()})
    origin: Dict[int, Tuple[List[mp.mpf], List[float]]] = {}
    poly = origin
    if graded:
        origin = power(0, 1, [(0, *zip(_at_zero(f, c, T))) for f, (c, T) in zip(factors, poles)])
        degs = [len(s) - 1 - T for (s, _), (_, T) in zip(bases, poles)]
        e = max(0, *degs)
        poly = power(e, K * e, [
            (e - d, *_expand(s, es, T, c, K * e - (e - d), True))
            for (s, es), (c, T), d in zip(bases, poles, degs)
        ])
    out = {}
    for z in sorted(set(origin).union(poly, *at_poles) - ({0} if graded else set())):
        (o,), (eo,) = origin.get(z, ([None], [-math.inf]))
        p, ep = poly.get(z, ([], []))
        pl = [pole.get(z, ([], [])) for pole in at_poles]
        out[z] = PartialFractions(o, [b for b, _ in pl], p[::-1], eo, [eb for _, eb in pl], ep[::-1])
    return out


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


def _close_exact(
    cs: Sequence[mp.mpf], beta: mp.mpf, pf: PartialFractions, tables: Dict[object, _GammaTable]
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ e^{-βx} R(x) dx for R given by its partial fractions ``pf``
    over the poles -cs: the polynomial part closes with Γ(j+1, β)/β^{j+1},
    the origin with E1(β) and each pole term with e^{βc} β^{t-1}
    Γ(1-t, β(1+c)).  Only nonzero coefficients are closed."""
    beta_pw = _pow_list(beta, max([len(pf.poly) + 2] + [len(b) + 1 for b in pf.poles]))

    def integrals():
        at_beta = _table(tables, beta) if pf.origin or any(pf.poly) else None
        if pf.origin:
            yield pf.origin, pf.origin_ln, at_beta.get(0)
        for j, (p, e) in enumerate(zip(pf.poly, pf.poly_ln)):
            if p:
                yield p, e, at_beta.get(j + 1) / beta_pw[j + 1]
        for c, b, eb in zip(cs, pf.poles, pf.poles_ln):
            if any(b):
                tab, ebc = _table(tables, beta * (1 + c)), mp.exp(beta * c)
                for t, (a, e) in enumerate(zip(b, eb), 1):
                    if a:
                        yield a, e, beta_pw[t - 1] * ebc * tab.get(1 - t)

    return _close(integrals())


def j0_exact_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    beta: mp.mpf,
    tables: Optional[Dict[object, _GammaTable]] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ e^{-βx} dx / (x Π_g (x+c_g)^{T_g})."""
    pf = pf_coefficients(None, True, poles)
    return _close_exact([c for c, _ in poles], beta, pf, {} if tables is None else tables)


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
    cs: Sequence[mp.mpf], pf: PartialFractions, asymptotic: bool
) -> Tuple[mp.mpf, float]:
    """Σ_g [-b_{g,1} ln(1+c_g) + Σ_{t≥2} b_{g,t} (1+c_g)^{1-t}/(t-1)].

    With ``asymptotic`` the substitutions ln(1+c) → ln c and (1+c) → c apply.
    Valid whenever the underlying rational function decays at least like
    x^{-2}, which makes the ln x contributions cancel (Σ residues at order 1
    plus the origin coefficient is zero).
    """

    def integrals():
        for c, b, eb in zip(cs, pf.poles, pf.poles_ln):
            if any(b):
                base = c if asymptotic else (1 + c)
                inv = _pow_list(1 / base, len(b))
                yield b[0], eb[0], -mp.log(base)
                for t in range(2, len(b) + 1):
                    yield b[t - 1], eb[t - 1], inv[t - 1] / (t - 1)

    return _close(integrals())


def j0_highsnr_mp(
    poles: Sequence[Tuple[mp.mpf, int]], asymptotic: bool = False
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ dx / (x Π_g (x+c_g)^{T_g}) (β = 0 ratio form)."""
    pf = pf_coefficients(None, True, poles)
    return _log_rational_assembly([c for c, _ in poles], pf, asymptotic)


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
    pf = pf_coefficients(nu - 1, False, poles)
    return _log_rational_assembly([c for c, _ in poles], pf, asymptotic)
