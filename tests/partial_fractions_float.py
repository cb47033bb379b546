"""Float wrappers over the partial-fraction and J-kernel core: a reference
for the tests.

``esrsel.partial_fractions`` works on bare (pole, multiplicity) lists in
mpmath.  This module groups the poles of one enumerated index tuple
(``group_poles``), expands them to float coefficients (``expand``) and
evaluates the J integrals one summand at a time, each at its own precision.
The naive per-term ESR reference and the identity checks use it; no library
route does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp

from esrsel.errors import ContractError, DomainError
from esrsel.partial_fractions import (
    _GammaTable,
    _mag_ln,
    j0_exact_mp,
    j0_highsnr_mp,
    j1_highsnr_mp,
    pf_coefficients,
    required_dps,
    single_pole_integral_mp,
)
from index_algebra import AggregateSums

# ---------------------------------------------------------------------------
# structure types


@dataclass(frozen=True)
class Pole:
    """One distinct pole: location c = λ_D/(l λ_E) for the group's l value."""

    location: float
    group_l: int
    total_multiplicity: int


@dataclass(frozen=True)
class PoleStructure:
    """Distinct poles of one summand's denominator, grouped by l value.

    ``repeated_groups`` lists the q-index groups (0-based) sharing an l value
    with two or more members; ``singleton_indices`` the q's that are alone.
    """

    poles: Tuple[Pole, ...]
    repeated_groups: Tuple[Tuple[int, ...], ...]
    singleton_indices: Tuple[int, ...]
    has_origin_pole: bool


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Coefficients of A/x + Σ coeff/(x+location)^power."""

    a_coeff: Optional[float]
    terms: Tuple[Tuple[float, int, float], ...]


def group_poles(
    l_vec: Sequence[int],
    n_hat: Sequence[int],
    M_E: int,
    lambda_D: float,
    lambda_E: float,
    with_origin: bool,
) -> PoleStructure:
    """Group q indices by equal l_q; member multiplicity is M_E + n̂_q."""
    if len(l_vec) != len(n_hat) or len(l_vec) == 0:
        raise DomainError("l_vec and n_hat must be equal-length, nonempty")
    members: Dict[int, List[int]] = {}
    for q, l in enumerate(l_vec):
        members.setdefault(int(l), []).append(q)
    poles = []
    repeated = []
    singles = []
    for l in sorted(members):
        qs = members[l]
        mult = sum(M_E + int(n_hat[q]) for q in qs)
        poles.append(Pole(lambda_D / (l * lambda_E), l, mult))
        if len(qs) >= 2:
            repeated.append(tuple(qs))
        else:
            singles.append(qs[0])
    return PoleStructure(tuple(poles), tuple(repeated), tuple(singles), with_origin)


# ---------------------------------------------------------------------------
# mp kernel for ν ≥ 1 over several poles


def j1_exact_mp(
    poles: Sequence[Tuple[mp.mpf, int]],
    beta: mp.mpf,
    nu: int,
    tables: Optional[Dict[object, _GammaTable]] = None,
) -> Tuple[mp.mpf, float]:
    """∫_1^∞ x^{ν-1} e^{-βx} / Π_g (x+c_g)^{T_g} dx, ν ≥ 1.

    Partial fractions of the denominator alone, then the single-pole pieces.
    """
    if nu < 1:
        raise ContractError("j1 needs nu = m̃ - ũ >= 1; the nu = 0 case is j0")
    if tables is None:
        tables = {}
    if len(poles) == 1:
        c, T = poles[0]
        z = beta * (1 + c)
        tab = tables.get(z)
        if tab is None:
            tab = tables[z] = _GammaTable(z)
        return single_pole_integral_mp(nu, T, beta, c, tab)
    bs = pf_coefficients(0, False, poles).poles
    total = mp.mpf(0)
    peak = -math.inf
    for (c, T), b in zip(poles, bs):
        z = beta * (1 + c)
        tab = tables.get(z)
        if tab is None:
            tab = tables[z] = _GammaTable(z)
        for t in range(1, T + 1):
            if b[t - 1] == 0:
                continue
            piece, p = single_pole_integral_mp(nu, t, beta, c, tab)
            term = b[t - 1] * piece
            total += term
            peak = max(peak, _mag_ln(b[t - 1]) + p)
    return total, peak


# ---------------------------------------------------------------------------
# float wrappers


def _mp_poles(structure: PoleStructure) -> List[Tuple[mp.mpf, int]]:
    return [(mp.mpf(p.location), p.total_multiplicity) for p in structure.poles]


def _float_poles(structure: PoleStructure) -> List[Tuple[float, int]]:
    return [(p.location, p.total_multiplicity) for p in structure.poles]


def expand(structure: PoleStructure) -> PartialFractionExpansion:
    """Partial-fraction coefficients of 1/(x^o Π (x+c_g)^{T_g}) as floats."""
    dps = required_dps(_float_poles(structure))
    with mp.workdps(dps):
        pf = pf_coefficients(0, structure.has_origin_pole, _mp_poles(structure))
        a_coeff, bs = pf.origin, pf.poles
        terms = []
        for pole, b in zip(structure.poles, bs):
            for t in range(1, pole.total_multiplicity + 1):
                terms.append((pole.location, t, float(b[t - 1])))
        a_out = float(a_coeff) if a_coeff is not None else None
    return PartialFractionExpansion(a_out, tuple(terms))


def eval_J0_exact(structure: PoleStructure, l_tilde: int, lambda_D: float) -> float:
    """∫_1^∞ e^{-l̃x/λ_D} dx / (x Π (x+c_g)^{T_g})."""
    if not structure.has_origin_pole:
        raise ContractError("J0 requires the origin pole; use eval_J1_exact")
    beta = l_tilde / lambda_D
    fp = _float_poles(structure)
    dps = required_dps(fp, zs=[beta * (1 + c) for c, _ in fp])
    with mp.workdps(dps):
        val, _ = j0_exact_mp(_mp_poles(structure), mp.mpf(beta))
        return float(val)


def eval_J1_exact(
    structure: PoleStructure,
    aggregates: AggregateSums,
    lambda_D: float,
    lambda_E: float,
) -> float:
    """∫_1^∞ x^{m̃-ũ-1} e^{-l̃x/λ_D} dx / Π (x+c_g)^{T_g}."""
    if structure.has_origin_pole:
        raise ContractError("J1 must not carry the origin pole")
    nu = aggregates.m_tilde - aggregates.u_tilde
    if nu < 1:
        raise ContractError("m̃ - ũ = 0 is the J0 case")
    beta = aggregates.l_tilde / lambda_D
    fp = _float_poles(structure)
    dps = required_dps(fp, zs=[beta * (1 + c) for c, _ in fp], nu_max=nu)
    with mp.workdps(dps):
        val, _ = j1_exact_mp(_mp_poles(structure), mp.mpf(beta), nu)
        return float(val)


def eval_J0_highsnr(structure: PoleStructure) -> float:
    """∫_1^∞ dx / (x Π (x+c_g)^{T_g})."""
    if not structure.has_origin_pole:
        raise ContractError("J0 requires the origin pole")
    dps = required_dps(_float_poles(structure))
    with mp.workdps(dps):
        val, _ = j0_highsnr_mp(_mp_poles(structure))
        return float(val)


def eval_J1_highsnr(structure: PoleStructure, aggregates: AggregateSums) -> float:
    """∫_1^∞ x^{m̃-1} dx / Π (x+c_g)^{T_g}."""
    if structure.has_origin_pole:
        raise ContractError("J1 must not carry the origin pole")
    nu = aggregates.m_tilde
    if nu < 1:
        raise ContractError("m̃ = 0 is the J0 case")
    dps = required_dps(_float_poles(structure), nu_max=nu)
    with mp.workdps(dps):
        val, _ = j1_highsnr_mp(_mp_poles(structure), nu)
        return float(val)


def eval_J_asymptotic(
    structure: PoleStructure,
    aggregates: AggregateSums,
    lambda_D: float,
    lambda_E: float,
) -> float:
    """High-SNR J with the λ_D → ∞ substitution 1 + c → c applied."""
    fp = _float_poles(structure)
    if structure.has_origin_pole:
        dps = required_dps(fp)
        with mp.workdps(dps):
            val, _ = j0_highsnr_mp(_mp_poles(structure), asymptotic=True)
            return float(val)
    nu = aggregates.m_tilde
    if nu < 1:
        raise ContractError("m̃ = 0 asymptotic J needs the origin-pole structure")
    dps = required_dps(fp, nu_max=nu)
    with mp.workdps(dps):
        val, _ = j1_highsnr_mp(_mp_poles(structure), nu, asymptotic=True)
        return float(val)
