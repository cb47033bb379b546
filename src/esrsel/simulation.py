"""Monte Carlo ground truth and the adaptive-quadrature ESR oracle.

The Monte Carlo path draws every link SNR from its law, applies the
selection rule per draw, and averages the clipped secrecy rate.  A link SNR
is γ = Σ_i μ_i·P_i, where μ are the eigenvalues of the path covariance
λ·Toeplitz(ρ) and P are unit path powers: Σ_i |h_{k,i}|² is
[R_S^½ W R_path W^H R_S^½]_kk for white W, and W·U has the law of W for the
real orthogonal U that diagonalises R_path.  Without transmitter correlation
(ρ_S = 0, which includes i.i.d.) the P are independent Exp(1) draws.  With
it, the taps of each path follow h_k = ρ_S·h_{k−1} + s·w_k across the
transmitters, s² = 1 − ρ_S², and only their power is carried: w_k turned by
the phase of h_{k−1} is still CN(0, 1) and independent of the past, so
P_1 ~ Exp(1) and P_k = (ρ_S√P_{k−1} + s·a_k)² + s²·b_k² with a, b ~ N(0, ½).
Where a link type's paths are i.i.d. (ρ_D = 0, or ρ_E = 0), CN(0, I_M) is
unitarily invariant, so the M paths of a link collapse into one power:
S_1 ~ Gamma(M) and S_k = (ρ_S√S_{k−1} + s·a_k)² + s²·b_k² + s²·G_k with
G_k ~ Gamma(M − 1), and γ = λ·S.  No complex tap and no Kronecker factor is
formed.

Substreams are counter-based: chunk i uses a Philox generator keyed by the
two-word key (seed, i) with a fixed chunk size, so no two (seed, chunk)
pairs share a stream (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  ``_mc_mean`` makes one draw plan per estimate: one
grouping of the unit draws for every configuration it is given (two for a
paired difference), and each one's μ.  A chunk of n draws reads its stream
as every destination draw, then every eavesdropper draw, which each
configuration reduces to its own link SNRs.  Per link type that is, for
Exp(1) path powers, one (n, …, M) slab per transmitter; for the recursion,
the first transmitter's Gamma(g) powers, then each later transmitter's
(a, b) slab, then, for g > 1 only, all the Gamma(g − 1) remainders.  A
C-order fill is the same stream as its leading-axis slabs filled in turn,
so these are the values of whole (K, n, …) draws; but each slab is drawn,
stepped and reduced before the next, and only g > 1, whose groups are one
per link, keeps its (a, b) whole.  The chunks run on a thread pool of up to
one thread per usable core, and their sums are added in chunk order, so
every estimate is bit-reproducible and independent of the thread count.

The quadrature path evaluates C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx directly
from the model CDFs with nested adaptive Gauss–Kronrod integration — no
binomial expansions, no partial fractions — which makes it an independent
cross-check of the closed forms.  One batched integrator, ``_gk21``, serves
both levels: QUADPACK's G10/K21 rule and error estimate (Piessens et al.,
1983) applied to many intervals at once, each round evaluating every live
panel's nodes in one vectorized integrand call.  Each outer round runs the
inner integrals of all its new nodes as one batch, so no scalar integrand
call and no ``scipy.integrate`` routine remains.  All probability quantities
are assembled from survival functions (the Erlang sum / expm1 / log1p) so
that 1 - F keeps full relative accuracy even when F is within 1e-15 of one.
The shapes are integers, so the destination survival at each inner node is
the Erlang sum e^{−t}·Σ_{k<M_D} t^k/k! (``_erlang_sf``), a few numpy passes;
``scipy.special.gammaincc`` takes its place only where the inner range
reaches t > 700 (M_D ≥ 471), past which e^{±t} leave the normal floats.
``scipy.special`` (``gammainccinv``, which sets the clipping points, and
that fallback) is imported by the first quadrature call, not with this
module: the closed forms and Monte Carlo never use it, and it is about half
of a fresh process's import time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .channel_model import CorrelationConfig, SystemConfig, _index, _is_real
from .errors import DomainError, OracleFailureError
from .esr_engine import EsrResult, _norm_scheme

__all__ = [
    "McEstimate",
    "estimate_esr",
    "paired_esr_difference",
    "quadrature_esr",
]

CHUNK_SIZE = 1 << 14  # draws per RNG substream; fixed so results never depend
# on how chunks are scheduled


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# random streams


def _substream(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _checked_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), the range of a Philox key word."""
    try:
        seed = _index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got seed={seed!r}") from None
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _checked_trials(trials) -> int:
    """``trials`` as an int of at least 1000."""
    try:
        trials = _index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, got trials={trials!r}") from None
    if trials < 1000:
        raise DomainError("need at least 1000 trials for a usable estimate")
    return trials


# ---------------------------------------------------------------------------
# link-SNR draws


def _toeplitz(size: int, rho: float, scale: float) -> np.ndarray:
    """Exponential-decay covariance: entry (i, j) = scale · rho^|i-j|."""
    idx = np.arange(size)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def _draw_groups(cfg: SystemConfig, *corrs: CorrelationConfig) -> Optional[Tuple[int, int]]:
    """How the unit draws read by every one of ``corrs`` are grouped: None
    (Exp(1) path powers) when none has transmitter correlation, else the
    paths per group (g_D, g_E), all M of a link type whose paths are i.i.d.
    in every one of ``corrs`` and 1 otherwise.  The scheme plays no part, so
    OS and SS read the same draws."""
    if all(c.rho_S == 0.0 for c in corrs):
        return None
    return (
        cfg.M_D if all(c.rho_D == 0.0 for c in corrs) else 1,
        cfg.M_E if all(c.rho_E == 0.0 for c in corrs) else 1,
    )


def _link_law(
    cfg: SystemConfig, corr: CorrelationConfig, groups: Optional[Tuple[int, int]]
) -> Tuple[float, np.ndarray, np.ndarray]:
    """(ρ_S, μ_D, μ_E) of ``corr`` on draws grouped by ``groups``, each link
    SNR being γ = Σ_i μ_i·S_i: μ is λ once where a link type's paths form
    one group (g = M > 1), else the eigenvalues of λ·Toeplitz(ρ)."""
    g_d, g_e = groups or (1, 1)
    mu_d = np.array([cfg.lambda_D]) if g_d > 1 else np.linalg.eigvalsh(
        _toeplitz(cfg.M_D, corr.rho_D, cfg.lambda_D))
    mu_e = np.array([cfg.lambda_E]) if g_e > 1 else np.linalg.eigvalsh(
        _toeplitz(cfg.M_E, corr.rho_E, cfg.lambda_E))
    return corr.rho_S, mu_d, mu_e


def _link_snrs(
    gen: np.random.Generator,
    k_count: int,
    shape: Tuple[int, ...],
    g: Optional[int],
    links: Sequence[Tuple[float, np.ndarray]],
) -> List[np.ndarray]:
    """γ[n, k, ...] = Σ_i μ_i·S_{k,...,i} of one link type for each (ρ_S, μ)
    of ``links``, drawn and reduced one transmitter at a time, where
    ``shape`` = (n, ..., M/g) is one transmitter's slab of unit powers S.

    ``g`` None: the S are Exp(1) path powers, one slab per transmitter.
    Otherwise each S is the power of g i.i.d. unit paths: S_1 ~ Gamma(g),
    then, for each later transmitter, the real and imaginary parts
    (a, b) ~ N(0, ½) of its innovation along the group's tap vector, on an
    axis of 2, and for g > 1 the Gamma(g − 1) power G of the innovation's
    other g − 1 dimensions, drawn after all the (a, b).  Each link steps its
    own S in place, S ← (ρ√S + s·a)² + s²·(b² + G) with s² = 1 − ρ²; the
    slabs are shared by every link and never written.  Elementwise, so no
    BLAS threads start."""
    out = [np.empty(shape[:1] + (k_count,) + shape[1:-1]) for _ in links]

    def reduce(k: int, powers: Sequence[np.ndarray]) -> None:
        for o, (_, mu), s in zip(out, links, powers):
            np.einsum("...m,m->...", s, mu, out=o[:, k])

    if g is None:
        for k in range(k_count):
            units = gen.standard_exponential(shape)
            reduce(k, [units] * len(links))
        return out
    first = gen.standard_gamma(g, shape)
    powers = [first] + [first.copy() for _ in links[1:]]
    reduce(0, powers)
    if g > 1 and k_count > 1:
        parts = gen.normal(0.0, math.sqrt(0.5), (k_count - 1, 2) + shape)
        rests = gen.standard_gamma(g - 1, (k_count - 1,) + shape)
    buf = np.empty(shape)
    for k in range(1, k_count):
        if g == 1:
            (a, b), rest = gen.normal(0.0, math.sqrt(0.5), (2,) + shape), None
        else:
            (a, b), rest = parts[k - 1], rests[k - 1]
        for (rho, _), s in zip(links, powers):
            s2 = 1.0 - rho * rho
            np.sqrt(s, out=s)
            s *= rho
            np.multiply(a, math.sqrt(s2), out=buf)
            s += buf
            np.multiply(s, s, out=s)
            np.multiply(b, b, out=buf)
            if rest is not None:
                buf += rest
            buf *= s2
            s += buf
        reduce(k, powers)
        del a, b  # so the next slab is drawn after this one is freed
    return out


# ---------------------------------------------------------------------------
# selection rules


def _chunk_rates(gd: np.ndarray, ge: np.ndarray, scheme: str) -> np.ndarray:
    n, _, l_count = gd.shape
    rows = np.arange(n)
    if scheme == "OS":
        ratio = (1.0 + gd) / (1.0 + ge[:, :, None])
        flat = ratio.reshape(n, -1)
        gamma = flat[rows, flat.argmax(axis=1)]
    else:
        flat = gd.reshape(n, -1)
        idx = flat.argmax(axis=1)
        gamma = (1.0 + flat[rows, idx]) / (1.0 + ge[rows, idx // l_count])
    rates = np.log2(gamma)
    return np.maximum(rates, 0.0, out=rates)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Processes that share the usable cores, this one included: 1, except in a
# worker of a process pool started with ``_share_cores`` as its initializer.
_core_sharers = 1


def _share_cores(processes: int) -> None:
    """Process-pool initializer: this worker is one of ``processes`` that
    run at once, so its chunk pools take its share of the usable cores."""
    global _core_sharers
    _core_sharers = processes


def _mc_mean(
    cfg: SystemConfig,
    trials: int,
    seed: int,
    corrs: Sequence[CorrelationConfig],
    chunk_values: Callable[[List[Tuple[np.ndarray, np.ndarray]]], np.ndarray],
) -> McEstimate:
    """Mean and standard error of ``chunk_values(snrs)`` over ``trials``
    draws, where ``snrs`` holds (γ_D[n, k, l], γ_E[n, k]) of one chunk of n
    draws under each of ``corrs``, in order, and the values are per draw.

    The draw plan, one grouping for all of ``corrs`` (``_draw_groups``) and
    each one's ``_link_law``, is made once.  Every config reduces the same
    unit draws, so beyond the grouping its SNRs ignore the configs beside it.

    The chunks run on a pool of up to one thread per usable core, or per
    core of this process's share in a worker pool (``_share_cores``); with
    one chunk, or one thread to run it, every chunk runs on the calling
    thread instead.  The pool is shut down before this returns, so no thread
    outlives the call.  The per-chunk sums are added in chunk order, so the
    estimate does not depend on the thread count."""
    trials = _checked_trials(trials)
    seed = _checked_seed(seed)
    groups = _draw_groups(cfg, *corrs)
    laws = [_link_law(cfg, c, groups) for c in corrs]
    dest = [(rho, mu_d) for rho, mu_d, _ in laws]
    eave = [(rho, mu_e) for rho, _, mu_e in laws]
    g_d, g_e = groups or (None, None)
    sizes = [min(CHUNK_SIZE, trials - done) for done in range(0, trials, CHUNK_SIZE)]

    def sums(chunk_index: int) -> Tuple[float, float]:
        gen, n = _substream(seed, chunk_index), sizes[chunk_index]
        gd = _link_snrs(gen, cfg.K, (n, cfg.L, cfg.M_D // (g_d or 1)), g_d, dest)
        ge = _link_snrs(gen, cfg.K, (n, cfg.M_E // (g_e or 1)), g_e, eave)
        values = chunk_values(list(zip(gd, ge)))
        return float(values.sum()), float((values * values).sum())

    workers = min(_usable_cores() // _core_sharers, len(sizes))
    if workers <= 1:
        chunk_sums = [sums(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_sums = list(pool.map(sums, range(len(sizes))))
    total = 0.0
    total_sq = 0.0
    for chunk_total, chunk_sq in chunk_sums:
        total += chunk_total
        total_sq += chunk_sq
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return McEstimate(mean=mean, stderr=math.sqrt(var / trials), trials=trials, seed=seed)


def estimate_esr(
    cfg: SystemConfig,
    corr: CorrelationConfig,
    scheme: str,
    trials: int,
    seed: int,
) -> McEstimate:
    """ESR estimate: mean of [log2 Γ_S]^+ over ``trials`` channel draws."""
    s = _norm_scheme(scheme)
    return _mc_mean(cfg, trials, seed, [corr], lambda snrs: _chunk_rates(*snrs[0], s))


def paired_esr_difference(
    cfg: SystemConfig,
    corr_a: CorrelationConfig,
    corr_b: CorrelationConfig,
    scheme: str,
    trials: int,
    seed: int,
) -> McEstimate:
    """ESR(corr_a) − ESR(corr_b) with common random numbers per draw.

    Both sides are one ``_mc_mean`` estimate, so they read the same unit
    draws: the transmitter recursion's innovations when either side has
    transmitter correlation, with a link type's paths collapsed into one
    group only when both sides have ρ = 0 for it, and Exp(1) path powers
    otherwise.  So the correlation-induced gap resolves at far fewer trials
    than two independent estimates would need.
    """
    s = _norm_scheme(scheme)
    return _mc_mean(cfg, trials, seed, [corr_a, corr_b],
                    lambda snrs: _chunk_rates(*snrs[0], s) - _chunk_rates(*snrs[1], s))


# ---------------------------------------------------------------------------
# quadrature oracle

# QUADPACK's qk21 rule (Piessens et al., 1983): the Kronrod abscissae on
# [-1, 1], centre last, their weights, and the 10-point Gauss weights of the
# even-numbered abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980627580, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# The 21 nodes as offsets from a panel's centre in half-widths, left to right.
_X21 = np.concatenate([-_XGK[:10], _XGK[::-1]])
_W21 = np.concatenate([_WGK[:10], _WGK[::-1]])
_G21 = np.zeros(21)
_G21[1:10:2] = _WG
_G21[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps
# The fewest float steps of x the exact form's eavesdropper range may span.
_MIN_E_STEPS = 2.0**20
# Up to this t, e^{-t} and the Erlang sum (at most e^t) are normal floats.
_ERLANG_T_MAX = 700.0


def _erlang_sf(m: int, t: np.ndarray) -> np.ndarray:
    """Q(m, t) = e^{−t}·Σ_{k<m} t^k/k!, the survival of a unit-rate Gamma(m)
    variable at integer m, by Horner's rule.  Every term is positive, so the
    sum keeps its relative accuracy in the far tail.  Valid for
    0 ≤ t ≤ ``_ERLANG_T_MAX``; beyond it e^{−t} underflows first."""
    q = np.ones_like(t)
    for k in range(m - 1, 0, -1):
        q *= t
        q /= k
        q += 1.0
    q *= np.exp(-t)
    return q


def _survival(m: int, t_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Q(m, ·) for arguments in [0, ``t_max``]: ``_erlang_sf`` where that
    whole range is safe for it, else ``scipy.special.gammaincc``."""
    if t_max <= _ERLANG_T_MAX:
        return lambda t: _erlang_sf(m, t)
    from scipy import special as sp

    return lambda t: sp.gammaincc(m, t)


def _gk21(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """∫_{a_i}^{b_i} f for every i at once by adaptive G10/K21.

    ``f(owner, u)`` gets each panel's owner index i, shaped (n,), and its 21
    nodes, shaped (n, 21), and returns the integrand there.  Each round
    evaluates every live panel in one call.  An owner stops once its error
    sum is at most max(epsabs, epsrel·|value|); otherwise its panels whose
    error is within that target's share of their width are kept and the rest
    are bisected.  Per-owner sums run over that owner's panels in its own
    order, so batching never changes a value.  Returns (value, error, ok,
    evaluations); ``ok`` is False where bisecting would exceed ``limit``
    panels before the target was met.
    """
    n = len(a)
    owner = np.arange(n)
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    width = hi - lo
    kept_val, kept_err = np.zeros(n), np.zeros(n)
    value, error = np.zeros(n), np.zeros(n)
    panels = np.ones(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    evals = 0
    while owner.size:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(owner, centre[:, None] + half[:, None] * _X21)
        evals += fx.size
        resk = (fx * _W21).sum(axis=1)
        resg = (fx * _G21).sum(axis=1)
        res = resk * half
        resabs = (np.abs(fx) * _W21).sum(axis=1) * half
        resasc = (np.abs(fx - 0.5 * resk[:, None]) * _W21).sum(axis=1) * half
        err = np.abs((resk - resg) * half)
        scaled = (err > 0.0) & (resasc > 0.0)
        err[scaled] = resasc[scaled] * np.minimum(
            1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5
        )
        err = np.maximum(err, 50.0 * _EPS * resabs)

        total = kept_val + np.bincount(owner, res, n)
        total_err = kept_err + np.bincount(owner, err, n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        split = err > tol[owner] * (hi - lo) / width[owner]
        splits = np.bincount(owner[split], minlength=n)
        panels += splits
        over = panels > limit
        ok[owner] &= ~(over & (total_err > tol))[owner]
        value[owner], error[owner] = total[owner], total_err[owner]

        on = ((total_err > tol) & (splits > 0) & ~over)[owner]
        keep = on & ~split
        kept_val += np.bincount(owner[keep], res[keep], n)
        kept_err += np.bincount(owner[keep], err[keep], n)
        split &= on
        mid = centre[split]
        owner = np.repeat(owner[split], 2)
        lo = np.column_stack([lo[split], mid]).ravel()
        hi = np.column_stack([mid, hi[split]]).ravel()
    return value, error, ok, evals


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

    The outer integral runs over t = (x-1)/x ∈ [0, 1].  Each outer round
    maps the nodes of its new t-panels to x and integrates all of their
    inner expectations as one ``_gk21`` batch.  The inner expectation
    integrates over u = arg at fixed x (the destination survival then varies
    on its own λ_D scale regardless of x), clipped where either the
    destination survival or the eavesdropper density tail drops below 1e-18
    relative mass.  The destination survival Q(M_D, u/λ_D) is ``_survival``'s,
    chosen once per call for u up to that clip: the Erlang sum for
    M_D ≤ 470, scipy's ``gammaincc`` above.  Like QUADPACK, it refuses
    tolerances that are negative, not finite, or both zero, and also ones
    that are not real numbers or are bools.  The exact form raises
    ``OracleFailureError`` when λ_E is too small for the float grid of x to
    resolve the eavesdropper range (below about −112 dB at M_E = 1), where it
    would otherwise stall or return a silent 0.  Either form raises it when
    the outer value is at most ``epsabs`` in magnitude: the tolerance cannot
    resolve such a value, and what comes back is mostly noise or 0.
    """
    tols = (epsabs, epsrel)
    if not all(_is_real(t) and 0.0 <= t < math.inf for t in tols) or not any(tols):
        raise DomainError(
            f"need finite tolerances >= 0, one of them positive; got epsabs={epsabs!r}, "
            f"epsrel={epsrel!r}"
        )
    from scipy import special as sp  # here, not at the top: no other route needs scipy

    scheme = _norm_scheme(scheme)
    k_eff, l_eff = (cfg.K, cfg.L) if scheme == "OS" else (1, cfg.K * cfg.L)
    lam_d, lam_e = cfg.lambda_D, cfg.lambda_E
    m_d, m_e = cfg.M_D, cfg.M_E
    y_max = lam_e * float(sp.gammainccinv(m_e, 1e-18))
    u_dest = lam_d * float(sp.gammainccinv(m_d, 1e-20))
    dest_sf = _survival(m_d, u_dest / lam_d)
    if not ratio_form and y_max < _MIN_E_STEPS * _EPS:
        # The exact form's eavesdropper range [x − 1, x(1 + y_max) − 1] sits on
        # the float grid of x, about x·eps apart.  Spanning fewer steps, its
        # nodes and width are rounding noise, and below one step it rounds
        # away, which would drop the mass of every node silently.
        raise OracleFailureError(
            f"eavesdropper range too narrow for the exact form: lambda_E={lam_e:.3g} "
            f"gives y_max={y_max:.3g}, fewer than 2**20 float steps of x"
        )
    lg_me = math.lgamma(m_e)
    ln_lam_e = math.log(lam_e)
    f_e0 = 1.0 / lam_e if m_e == 1 else 0.0
    eps_in_abs = max(epsabs / 20.0, 1e-15)
    eps_in_rel = max(epsrel / 30.0, 1e-13)
    evals = 0
    peak = -math.inf

    def one_minus_f(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        lo = np.zeros_like(x) if ratio_form else x - 1.0
        hi = np.minimum(u_dest, x * y_max if ratio_form else x * (1.0 + y_max) - 1.0)
        live = hi > lo
        xs = x[live]

        def inner(owner: np.ndarray, u: np.ndarray) -> np.ndarray:
            xo = xs[owner][:, None]
            q = dest_sf(u / lam_d)
            s = np.where(q >= 1.0, 1.0, -np.expm1(l_eff * np.log1p(-q)))
            y = u / xo if ratio_form else (u + 1.0) / xo - 1.0
            dens = np.exp((m_e - 1) * np.log(y) - y / lam_e - lg_me - m_e * ln_lam_e)
            return s * np.where(y <= 0.0, f_e0, dens) / xo

        val, err, ok, n = _gk21(inner, lo[live], hi[live], eps_in_abs, eps_in_rel, 300)
        evals += n
        stalled = ~ok & (err > np.maximum(1e-6 * np.abs(val), 1e-12))
        if stalled.any():
            i = int(np.argmax(stalled))
            raise OracleFailureError(
                f"inner quadrature stalled at x={xs[i]:.6g}: value {val[i]:.3e}, "
                f"error {err[i]:.3e}"
            )
        q_total = np.zeros_like(x)
        q_total[live] = np.clip(val, 0.0, 1.0)
        if k_eff == 1:
            return q_total
        return np.where(q_total >= 1.0, 1.0, -np.expm1(k_eff * np.log1p(-q_total)))

    def outer(_owner: np.ndarray, t: np.ndarray) -> np.ndarray:
        nonlocal peak
        inside = t < 1.0
        s = 1.0 - t[inside]
        x = 1.0 + t[inside] / s
        v = np.zeros_like(t)
        v[inside] = one_minus_f(x) / (x * s**2)
        pos = v[v > 0.0]
        if pos.size:
            peak = max(peak, float(np.log(pos).max()))
        return v

    with np.errstate(divide="ignore", invalid="ignore"):
        val, err, ok, _ = _gk21(outer, np.zeros(1), np.ones(1), epsabs, epsrel, 400)
    val, err = float(val[0]), float(err[0])
    if not ok[0] and err > max(1e-8 * abs(val), 1e-11):
        raise OracleFailureError(
            f"outer quadrature failed to converge: value {val:.6e}, "
            f"error estimate {err:.3e}: panel limit reached"
        )
    if abs(val) <= epsabs:
        raise OracleFailureError(
            f"outer value {val:.3e} is within epsabs={epsabs:.3g} of zero, "
            f"which the tolerance cannot resolve"
        )
    return EsrResult(val / math.log(2.0), scheme, "quadrature", evals, peak)


def quadrature_esr(
    cfg: SystemConfig,
    scheme: str,
    epsabs: float = 1e-12,
    epsrel: float = 1e-9,
) -> EsrResult:
    """ESR by nested adaptive quadrature of the i.i.d.-model CDFs.

    Independent of the closed forms: no series expansion is used anywhere.
    """
    return _quadrature(cfg, scheme, False, epsabs, epsrel)


def _quadrature_esr_ratio_form(
    cfg: SystemConfig,
    scheme: str,
    epsabs: float = 1e-12,
    epsrel: float = 1e-9,
) -> EsrResult:
    """Quadrature for the γ_D/γ_E ratio model (the high-SNR approximation's
    exact distribution); used to cross-check the high-SNR closed forms."""
    return _quadrature(cfg, scheme, True, epsabs, epsrel)
