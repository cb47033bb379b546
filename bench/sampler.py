"""The benchmark's own Monte Carlo reference for the ergodic secrecy rate.

It shares no code with ``esrsel``: link SNRs are drawn directly from their
laws rather than synthesised from channel taps.  An i.i.d. link SNR is
``λ·Gamma(M)``.  With path correlation ``ρ`` (Toeplitz ``ρ^|i-j|``) a link
SNR is ``Σ_i μ_i·Exp(1)``, where ``μ_i`` are the eigenvalues of
``λ·Toeplitz(ρ)``.  Transmitter correlation couples links and is not
covered.

Seeded through ``numpy.random.default_rng``, whose ``SeedSequence`` keys
share nothing with the Philox keys of ``esrsel.simulation``.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

CHUNK = 1 << 15


def _link_snrs(rng: np.random.Generator, lam: float, m: int, rho: float, shape) -> np.ndarray:
    if rho == 0.0:
        return lam * rng.standard_gamma(m, shape)
    idx = np.arange(m)
    mu = np.linalg.eigvalsh(lam * rho ** np.abs(idx[:, None] - idx[None, :]))
    return rng.standard_exponential(tuple(shape) + (m,)) @ mu


def sample_esr(
    rng: np.random.Generator,
    k: int,
    l: int,
    m_d: int,
    m_e: int,
    lam_d: float,
    lam_e: float,
    trials: int,
    rho_d: float = 0.0,
    rho_e: float = 0.0,
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Mean and standard error of ``[log2 Γ]⁺`` for each (scheme, model).

    Schemes ``os`` and ``ss`` use one set of draws.  Model ``exact`` prices
    the selected pair at ``(1+γ_D)/(1+γ_E)``, and model ``ratio`` at
    ``γ_D/γ_E``, the law behind the high-SNR closed forms.  OS maximises
    the priced ratio over all (k, l) pairs; SS picks the largest ``γ_D``.
    """
    sums = {key: [0.0, 0.0] for key in (("os", "exact"), ("ss", "exact"), ("os", "ratio"), ("ss", "ratio"))}
    done = 0
    while done < trials:
        n = min(CHUNK, trials - done)
        g_d = _link_snrs(rng, lam_d, m_d, rho_d, (n, k, l)).reshape(n, k * l)
        g_e = np.repeat(_link_snrs(rng, lam_e, m_e, rho_e, (n, k)), l, axis=1)
        rows = np.arange(n)
        ss = g_d.argmax(axis=1)
        ratios = {
            ("os", "exact"): ((1.0 + g_d) / (1.0 + g_e)).max(axis=1),
            ("ss", "exact"): (1.0 + g_d[rows, ss]) / (1.0 + g_e[rows, ss]),
            ("os", "ratio"): (g_d / g_e).max(axis=1),
            ("ss", "ratio"): g_d[rows, ss] / g_e[rows, ss],
        }
        for key, ratio in ratios.items():
            rate = np.maximum(np.log2(ratio), 0.0)
            sums[key][0] += float(rate.sum())
            sums[key][1] += float((rate * rate).sum())
        done += n
    out = {}
    for key, (s1, s2) in sums.items():
        mean = s1 / trials
        var = max(0.0, (s2 - trials * mean * mean) / (trials - 1))
        out[key] = (mean, math.sqrt(var / trials))
    return out
