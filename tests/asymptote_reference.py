"""The asymptote-line offsets in exact rational arithmetic: a reference for
the tests.

``esrsel.esr_engine.asymptote_line`` reads its offset off the asymptotic
route, the shared assembly with ``ln(1+χ) → ln χ``.  This module keeps the
paper's asymptotic analysis written out as its own sums, with none of the
engine's tables or kernels:

- OS, L = 1:  offset = log2 λ_E + (1/ln 2) Σ_k (-1)^{k+1} C(K, k) ψ_k, with
  ψ_k = H_{k·M_E−1} − Σ_{m≥1} w_k[m]·B(k·M_E, m) and w_k the k-th
  convolution power of (M_E)_m / m!, m < M_D.
- SS (as one transmitter with K·L destinations):
  offset = Σ_k (-1)^{k+1} C(K·L, k) [log2(k·λ_E) + (H_{M_E−1} − i_k)/ln 2],
  with i_k = Σ_{m≥1} w_k[m]·(m−1)!/k^m and w_k the k-th convolution power
  of 1/m!, m < M_D.

The rational parts are summed as ``Fraction``s; the logarithms are added at
40 digits, so the only rounding is the final conversion to float.  OS with
L > 1 has no such sum here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from esrsel.channel_model import SystemConfig
from pole_set_reference import _conv1


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def _beta(a: int, b: int) -> Fraction:
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


def _os_rational(K: int, M_D: int, M_E: int) -> Fraction:
    """Σ_k (-1)^{k+1} C(K, k) ψ_k of the OS L = 1 offset."""
    base = {m: Fraction(math.perm(M_E + m - 1, m), math.factorial(m)) for m in range(M_D)}
    acc = Fraction(0)
    w_tab = None
    for k in range(1, K + 1):
        w_tab = base if w_tab is None else _conv1(w_tab, base)
        i1 = sum((w_tab[m] * _beta(k * M_E, m) for m in sorted(w_tab) if m >= 1), Fraction(0))
        acc += (-1) ** (k + 1) * math.comb(K, k) * (_harmonic(k * M_E - 1) - i1)
    return acc


def _ss_rational(KL: int, M_D: int, M_E: int) -> Fraction:
    """Σ_k (-1)^{k+1} C(K·L, k) (H_{M_E−1} − i_k) of the SS offset."""
    base = {m: Fraction(1, math.factorial(m)) for m in range(M_D)}
    h_me = _harmonic(M_E - 1)
    acc = Fraction(0)
    w_tab = None
    for k in range(1, KL + 1):
        w_tab = base if w_tab is None else _conv1(w_tab, base)
        i1 = sum(
            (w_tab[m] * Fraction(math.factorial(m - 1), k**m) for m in sorted(w_tab) if m >= 1),
            Fraction(0),
        )
        acc += (-1) ** (k + 1) * math.comb(KL, k) * (h_me - i1)
    return acc


def asymptote_offset(cfg: SystemConfig, scheme: str) -> float:
    """The offset of C ≈ log2 λ_D − offset for OS with L = 1, or for SS."""
    with mp.workdps(40):
        ln2 = mp.log(2)
        offset = mp.log(mp.mpf(cfg.lambda_E)) / ln2
        if scheme == "OS":
            if cfg.L != 1:
                raise ValueError("the rational OS offset covers L = 1 only")
            rational = _os_rational(cfg.K, cfg.M_D, cfg.M_E)
        else:
            KL = cfg.K * cfg.L
            rational = _ss_rational(KL, cfg.M_D, cfg.M_E)
            # Σ_k (-1)^{k+1} C(K·L, k) = 1 carries log2 λ_E once; log2 k stays.
            for k in range(2, KL + 1):
                offset += (-1) ** (k + 1) * math.comb(KL, k) * mp.log(k) / ln2
        offset += mp.mpf(rational.numerator) / rational.denominator / ln2
        return float(offset)
