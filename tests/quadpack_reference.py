"""The nested-QUADPACK quadrature oracle: a reference for the tests.

``esrsel.simulation._quadrature`` integrates
C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx with its own batched G10/K21 rule at both
levels.  This module keeps the oracle it replaced: ``scipy.integrate.quad``
(QUADPACK's qagse) nested twice, one scalar integrand call per node, with the
same tolerances, panel limits, clipping and failure conditions.
"""

from __future__ import annotations

import math

from scipy import special as sp
from scipy.integrate import quad

from esrsel.channel_model import SystemConfig
from esrsel.errors import OracleFailureError
from esrsel.esr_engine import EsrResult, _norm_scheme


def _quadrature(
    cfg: SystemConfig,
    scheme: str,
    ratio_form: bool,
    epsabs: float,
    epsrel: float,
) -> EsrResult:
    """(1/ln 2) ∫_1^∞ (1 - F(x))/x dx for F(x) = E_y[F_D(arg(x,y))^{l_eff}]^{k_eff},
    where arg = x(1+y)-1 exactly or x·y in ratio form.

    OS has (k_eff, l_eff) = (K, L).  SS reduces to the single-transmitter
    form with K·L destinations because the selected eavesdropper SNR is
    independent of the destination maximum.

    The inner expectation integrates over u = arg at fixed x (the destination
    survival then varies on its own λ_D scale regardless of x), clipped where
    either the destination survival or the eavesdropper density tail drops
    below 1e-18 relative mass.
    """
    scheme = _norm_scheme(scheme)
    k_eff, l_eff = (cfg.K, cfg.L) if scheme == "OS" else (1, cfg.K * cfg.L)
    lam_d, lam_e = cfg.lambda_D, cfg.lambda_E
    m_d, m_e = cfg.M_D, cfg.M_E
    y_max = lam_e * float(sp.gammainccinv(m_e, 1e-18))
    u_dest = lam_d * float(sp.gammainccinv(m_d, 1e-20))
    lg_me = math.lgamma(m_e)
    eps_in_abs = max(epsabs / 20.0, 1e-15)
    eps_in_rel = max(epsrel / 30.0, 1e-13)
    evals = 0
    peak = -math.inf

    def f_e(y: float) -> float:
        if y <= 0.0:
            return 1.0 / lam_e if m_e == 1 else 0.0
        return math.exp(
            (m_e - 1) * math.log(y) - y / lam_e - lg_me - m_e * math.log(lam_e)
        )

    def one_minus_f(x: float) -> float:
        nonlocal evals
        lo = 0.0 if ratio_form else x - 1.0
        hi = min(u_dest, x * y_max if ratio_form else x * (1.0 + y_max) - 1.0)
        if hi <= lo:
            return 0.0

        def inner(u: float) -> float:
            nonlocal evals
            evals += 1
            q = float(sp.gammaincc(m_d, u / lam_d))
            s = 1.0 if q >= 1.0 else -math.expm1(l_eff * math.log1p(-q))
            y = u / x if ratio_form else (u + 1.0) / x - 1.0
            return s * f_e(y) / x

        res = quad(
            inner, lo, hi, epsabs=eps_in_abs, epsrel=eps_in_rel, limit=300,
            full_output=1,
        )
        val, err = res[0], res[1]
        if len(res) > 3 and err > max(1e-6 * abs(val), 1e-12):
            raise OracleFailureError(
                f"inner quadrature stalled at x={x:.6g}: value {val:.3e}, "
                f"error {err:.3e}"
            )
        q_total = min(max(val, 0.0), 1.0)
        if q_total >= 1.0:
            return 1.0
        if k_eff == 1:
            return q_total
        return -math.expm1(k_eff * math.log1p(-q_total))

    def outer(t: float) -> float:
        nonlocal peak
        if t >= 1.0:
            return 0.0
        x = 1.0 + t / (1.0 - t)
        v = one_minus_f(x) / (x * (1.0 - t) ** 2)
        if v > 0.0:
            peak = max(peak, math.log(v))
        return v

    res = quad(outer, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=400, full_output=1)
    val, err = res[0], res[1]
    if len(res) > 3 and err > max(1e-8 * abs(val), 1e-11):
        raise OracleFailureError(
            f"outer quadrature failed to converge: value {val:.6e}, "
            f"error estimate {err:.3e}: {res[3]}"
        )
    return EsrResult(val / math.log(2.0), scheme, "quadrature", evals, peak)
