"""Multi-index enumeration for the product-of-sums → sum-of-products identities.

Raising the selection CDF to the k-th power turns a product of triple sums
into one giant sum over tuples.  Each summand is indexed by

    l_vec = (l_1 .. l_k),   l_q ∈ {1..L}          (inner binomial index)
    m, n, u = ragged rows per q, length l_q, with
        0 ≤ m_{q,p} ≤ M_D-1,  0 ≤ n_{q,p} ≤ m_{q,p},  0 ≤ u_{q,p} ≤ m_{q,p}-n_{q,p}

and every closed-form factor depends on the indices only through the per-q
hat sums (m̂_q, n̂_q, û_q summed over p) and the global tilde sums
(l̃, m̃, ũ).  This module provides deterministic lexicographic streams over
those sets, their exact counts, and direct checkers for the underlying
algebraic identities.  No library route uses it: the closed forms collapse
these sums by convolution (``esrsel.esr_engine``), and the tests use this
enumeration as their naive per-term reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Tuple

from esrsel.errors import ComplexityBudgetError, DomainError
from esrsel.esr_engine import DEFAULT_BUDGET

__all__ = [
    "AggregateSums",
    "IndexTuple",
    "enumerate_mnu",
    "enumerate_X",
    "mnu_count",
    "x_count",
    "pos_to_sop_check",
    "xi_identity_check",
]

MnuTriple = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class AggregateSums:
    """Hat/tilde sums of one index tuple; the only numbers the formulas use."""

    l_tilde: int
    m_tilde: int
    u_tilde: int
    m_hat: Tuple[int, ...]
    n_hat: Tuple[int, ...]
    u_hat: Tuple[int, ...]


@dataclass(frozen=True)
class IndexTuple:
    """One element of the full index set with its aggregates attached."""

    l_vec: Tuple[int, ...]
    m: Tuple[Tuple[int, ...], ...]
    n: Tuple[Tuple[int, ...], ...]
    u: Tuple[Tuple[int, ...], ...]
    aggregates: AggregateSums


def mnu_count(l: int, M_D: int) -> int:
    """|{(m, n, u) vectors of length l}| = (Σ_{m<M_D} (m+1)(m+2)/2)^l."""
    per_path = sum((m + 1) * (m + 2) // 2 for m in range(M_D))
    return per_path**l


def x_count(k: int, L: int, M_D: int) -> int:
    """|𝓧| for one power k: (Σ_{l=1..L} mnu_count(l, M_D))^k."""
    return sum(mnu_count(l, M_D) for l in range(1, L + 1)) ** k


def enumerate_mnu(l: int, M_D: int) -> Iterator[MnuTriple]:
    """Stream (m, n, u) vectors of length l, deterministic lexicographic order."""
    if l < 1 or M_D < 1:
        raise DomainError(f"need l >= 1 and M_D >= 1, got l={l}, M_D={M_D}")
    for m in itertools.product(range(M_D), repeat=l):
        for n in itertools.product(*(range(m_p + 1) for m_p in m)):
            for u in itertools.product(*(range(m_p - n_p + 1) for m_p, n_p in zip(m, n))):
                yield (m, n, u)


def _q_atoms(L: int, M_D: int) -> list[Tuple[int, MnuTriple]]:
    """All (l, (m, n, u)) choices available to a single q index."""
    out = []
    for l in range(1, L + 1):
        for triple in enumerate_mnu(l, M_D):
            out.append((l, triple))
    return out


def enumerate_X(
    k: int, L: int, M_D: int, budget: int = DEFAULT_BUDGET
) -> Tuple[int, Iterator[IndexTuple]]:
    """Stream the full index set for one power k.

    Returns (count, iterator); the count is exact and available before any
    term is produced, and the stream raises nothing further once started.
    """
    if k < 1 or L < 1 or M_D < 1:
        raise DomainError(f"need k, L, M_D >= 1, got ({k}, {L}, {M_D})")
    count = x_count(k, L, M_D)
    if count > budget:
        raise ComplexityBudgetError(k, L, M_D, count, budget)

    def stream() -> Iterator[IndexTuple]:
        atoms = _q_atoms(L, M_D)
        for combo in itertools.product(atoms, repeat=k):
            l_vec = tuple(c[0] for c in combo)
            m = tuple(c[1][0] for c in combo)
            n = tuple(c[1][1] for c in combo)
            u = tuple(c[1][2] for c in combo)
            m_hat = tuple(sum(row) for row in m)
            n_hat = tuple(sum(row) for row in n)
            u_hat = tuple(sum(row) for row in u)
            agg = AggregateSums(
                l_tilde=sum(l_vec),
                m_tilde=sum(m_hat),
                u_tilde=sum(u_hat),
                m_hat=m_hat,
                n_hat=n_hat,
                u_hat=u_hat,
            )
            yield IndexTuple(l_vec, m, n, u, agg)

    return count, stream()


def pos_to_sop_check(
    mu: int, zeta: int, f: Mapping[Tuple[int, int, int], float]
) -> Tuple[float, float]:
    """Evaluate both sides of (Σ_{i≤mu} Σ_{j≤i} Σ_{v≤i-j} f)^zeta.

    LHS is the direct power of the triple sum; RHS re-sums it as products
    over the enumerated index vectors.  Test-scale only (mu, zeta ≤ 4-ish).
    """
    total = 0.0
    for i in range(mu + 1):
        for j in range(i + 1):
            for v in range(i - j + 1):
                total += f[(i, j, v)]
    lhs = total**zeta

    rhs = 0.0
    for m, n, u in enumerate_mnu(zeta, mu + 1):
        prod = 1.0
        for p in range(zeta):
            prod *= f[(m[p], n[p], u[p])]
        rhs += prod
    return lhs, rhs


def aggregates_of(
    l_vec: Sequence[int],
    m: Sequence[Sequence[int]],
    n: Sequence[Sequence[int]],
    u: Sequence[Sequence[int]],
) -> AggregateSums:
    """Aggregates for an externally assembled index tuple (test helper)."""
    m_hat = tuple(sum(row) for row in m)
    n_hat = tuple(sum(row) for row in n)
    u_hat = tuple(sum(row) for row in u)
    return AggregateSums(
        l_tilde=sum(l_vec),
        m_tilde=sum(m_hat),
        u_tilde=sum(u_hat),
        m_hat=m_hat,
        n_hat=n_hat,
        u_hat=u_hat,
    )


def xi_identity_check(m_hat: int, k: int, M_E: int) -> float:
    """Directly evaluate the finite alternating sum Ξ(m̂, kM_E); equals 1.

    Ξ = Σ_{v=0}^{m̂-1} (-1)^{m̂-v-1} Π_{u≠v}(kM_E + m̂ - u - 1) / (v! (m̂-v-1)!),
    computed in exact rational arithmetic.
    """
    if m_hat < 1 or k < 1 or M_E < 1:
        raise DomainError("xi_identity_check needs m_hat, k, M_E >= 1")
    t = k * M_E
    total = Fraction(0)
    for v in range(m_hat):
        num = 1
        for u in range(m_hat):
            if u != v:
                num *= t + m_hat - u - 1
        total += (
            (-1) ** (m_hat - v - 1)
            * Fraction(num, math.factorial(v) * math.factorial(m_hat - v - 1))
        )
    return float(total)
